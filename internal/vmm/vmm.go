// Package vmm models running workloads inside a virtual machine on top of
// the replicated kernel acting as hypervisor (§V-A3).
//
// The paper's observation is that Intel's virtualisation support makes
// *normal* guest execution cheap — system calls are redirected to the
// guest kernel and extended page tables avoid most exits — but CC-RCoE's
// instruction breakpoints *force* VM exits, and locating a rep-family
// instruction at a breakpoint requires a software walk of the guest page
// table plus the extended page table. Virtualised CC-RCoE therefore pays:
//
//   - a VM exit/entry round trip for every debug exception (breakpoint
//     and, on machines without a resume flag, the mismatch single-step);
//   - a VM exit for interrupt injection at each synchronisation;
//   - a guest page-table walk whenever the leader stopped at a block-copy
//     instruction.
//
// These costs are charged by internal/core when Config.VM is set; this
// package provides the guest-construction and accounting layer around it.
package vmm

import (
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/guest"
)

// GuestConfig describes a virtual machine running one guest workload.
type GuestConfig struct {
	// System is the replication configuration of the hypervisor; its VM
	// flag is forced on.
	System core.Config
	// Program is the guest workload (its text stands in for guest user
	// code plus guest kernel; the paper counts branches in both).
	Program guest.Program
}

// VM is a constructed virtual machine ready to run.
type VM struct {
	sys  *core.System
	prog guest.Program
}

// Launch builds the replicated hypervisor and boots the guest in a VM
// context.
func Launch(cfg GuestConfig) (*VM, error) {
	cfg.System.VM = true
	// Assemble defaults the profile to x86, where the VM benchmarks run:
	// the paper's seL4 version has no hypervisor mode on Arm, and neither
	// does the arm profile.
	pc, err := guest.Assemble(&cfg.System, cfg.Program)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg.System)
	if err != nil {
		return nil, err
	}
	if err := sys.Load(pc); err != nil {
		return nil, err
	}
	return &VM{sys: sys, prog: cfg.Program}, nil
}

// System exposes the underlying replicated system.
func (v *VM) System() *core.System { return v.sys }

// Run executes the guest to completion and returns the consumed cycles.
func (v *VM) Run(maxCycles uint64) (uint64, error) {
	start := v.sys.Machine().Now()
	if err := v.sys.Run(maxCycles); err != nil {
		return 0, fmt.Errorf("vmm: guest %s: %w", v.prog.Name, err)
	}
	return v.sys.Machine().Now() - start, nil
}

// VMExits returns the number of VM exits the run forced.
func (v *VM) VMExits() uint64 { return v.sys.Stats().VMExits }
