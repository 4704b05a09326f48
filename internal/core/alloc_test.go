//go:build !race

// The race detector instruments allocations, so these counts hold only in
// normal builds.

package core

import (
	"runtime"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	"rcoe/internal/kernel"
)

// ftMemRepLoop builds a program that replicates the n bytes at DataVA with
// FT_Mem_Rep `events` times, counting the events in r5, then exits.
func ftMemRepLoop(t *testing.T, events, n uint64) []isa.Instr {
	t.Helper()
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, events)
	b.Label("loop")
	b.Li64(1, kernel.DataVA)
	b.Li64(2, n)
	b.Syscall(kernel.SysFTMemRep)
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "loop")
	b.Li(1, 0)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFTMemRepAllocBudget: an FT_Mem_Rep event copies the primary's buffer
// into the shared input buffer and from there into every other replica.
// Both copies go through the kernels' scratch buffer, so a 4 KiB event
// allocates only its barrier's bookkeeping, not the bytes it moves.
func TestFTMemRepAllocBudget(t *testing.T) {
	const events, n = 400, 4096
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2}, ftMemRepLoop(t, events, n))
	c := sys.Replica(1).Core()
	for c.Regs[5] < 10 && !sys.Finished() {
		sys.RunCycles(10_000)
	}
	ev0 := c.Regs[5]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustFinish(t, sys, 500_000_000)
	runtime.ReadMemStats(&after)
	done := events - ev0
	if ev0 == 0 || ev0 >= events/2 {
		t.Fatalf("warm-up ran %d of %d events", ev0, events)
	}
	if got := c.Regs[5]; got != events {
		t.Fatalf("replica 1 counted %d events, want %d", got, events)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / done
	t.Logf("%d bytes per %d-byte event", per, n)
	if per >= 1024 {
		t.Errorf("a %d-byte FT_Mem_Rep event allocates %d bytes", n, per)
	}
}
