// Package guest contains the user-level programs the evaluation runs
// inside the replicated system, written in the simulated ISA: the
// Dhrystone and Whetstone microbenchmarks, the memory-bandwidth copy
// benchmark, the data-race demonstrator, MD5, SPLASH-2-style parallel
// kernels, and the Redis-stand-in key-value server with its driver.
//
// Each program is produced as a fresh assembly builder so that it can run
// plain (LC, hardware-counted CC) or instrumented by the compiler pass
// (compiler-assisted CC). Assemble makes that choice for a configuration,
// and Boot builds a loaded system around it.
package guest

import (
	"rcoe/internal/asm"
	"rcoe/internal/isa"
	"rcoe/internal/kernel"
)

// Program couples a builder factory with the process resources it needs.
type Program struct {
	// Name identifies the workload in reports.
	Name string
	// Build returns a fresh builder for the program.
	Build func() *asm.Builder
	// DataBytes is the data-region size the program needs.
	DataBytes uint64
	// Data optionally pre-populates the data region.
	Data []byte
	// Arg is passed to the main thread in R1.
	Arg uint64
	// Stacks is the number of thread stacks to reserve.
	Stacks int
}

// Registers conventionally used by the guest programs. The reserved
// branch counter (isa.RBC = r27) and r28-r31 are never touched.
const (
	rCnt  = 5 // primary loop counter
	rEnd  = 6 // loop bound
	rT0   = 7
	rT1   = 8
	rT2   = 9
	rT3   = 10
	rT4   = 11
	rT5   = 12
	rT6   = 13
	rT7   = 14
	rT8   = 15
	rT9   = 16
	rBase = 20 // data-region base pointer
	rMask = 21 // 0xffffffff mask (32-bit workloads)
)

// exitWith emits the SysExit sequence returning code in R1.
func exitWith(b *asm.Builder, code int32) {
	b.Li(isa.RArg0, code)
	b.Syscall(kernel.SysExit)
}

// dataPtr emits a load of the data-region base address into rd, as a
// relocatable literal so decorrelated layouts shift it per replica.
func dataPtr(b *asm.Builder, rd uint8) {
	b.LiVA(rd, kernel.DataVA)
}
