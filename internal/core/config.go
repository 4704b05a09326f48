// Package core implements redundant co-execution (RCoE) — the paper's
// contribution. It replicates a complete software stack (kernel and user
// process) across CPU cores of the simulated machine, synchronises the
// replicas on kernel events, votes on compact Fletcher state signatures,
// and — in TMR configurations — masks errors by downgrading to DMR.
//
// Two coupling models are provided (§III):
//
//   - ModeLC (loosely coupled): logical time is the count of deterministic
//     kernel events. Cheap, but requires race-free applications.
//   - ModeCC (closely coupled): logical time is the triple
//     (event count, user branches, instruction pointer), giving
//     instruction-accurate synchronisation via hardware breakpoints. It
//     supports racy code and virtual machines at a higher cost.
//
// ModeNone runs a single unreplicated stack and serves as the baseline in
// every benchmark.
package core

import (
	"fmt"

	"rcoe/internal/machine"
)

// Mode selects the replication coupling model.
type Mode int

// Replication modes.
const (
	// ModeNone is the unreplicated baseline.
	ModeNone Mode = iota + 1
	// ModeLC is loosely-coupled RCoE.
	ModeLC
	// ModeCC is closely-coupled RCoE.
	ModeCC
)

// String returns the mode name used in the paper's tables.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "base"
	case ModeLC:
		return "LC"
	case ModeCC:
		return "CC"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode maps a command-line mode name — "base", "lc" or "cc" — to its
// Mode. A tool that accepts fewer modes refuses the others itself.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "base":
		return ModeNone, nil
	case "lc":
		return ModeLC, nil
	case "cc":
		return ModeCC, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// SigConfig selects how much state is folded into the signature and how
// often the replicas vote (§V-B): a performance/detection-latency
// trade-off.
type SigConfig int

// Signature configurations.
const (
	// SigIO ("N") synchronises and votes on I/O events only.
	SigIO SigConfig = iota + 1
	// SigArgs ("A", the default) additionally folds all system-call
	// arguments into the signature.
	SigArgs
	// SigSync ("S") additionally votes on every system call.
	SigSync
)

// String returns the configuration letter used in the paper.
func (s SigConfig) String() string {
	switch s {
	case SigIO:
		return "N"
	case SigArgs:
		return "A"
	case SigSync:
		return "S"
	}
	return fmt.Sprintf("sig(%d)", int(s))
}

// Config describes a replicated system.
type Config struct {
	// Mode is the coupling model.
	Mode Mode
	// Replicas is the replica count: 1 (with ModeNone), 2 (DMR) or
	// 3 (TMR). The voting algorithm supports any N >= 3.
	Replicas int
	// Sig is the signature configuration.
	Sig SigConfig
	// Profile is the machine profile; defaults to machine.X86().
	Profile machine.Profile
	// MemBytes is total physical memory; 0 picks a size from
	// PartitionBytes.
	MemBytes int
	// PartitionBytes is each replica's private physical partition.
	PartitionBytes uint64
	// TickCycles is the preemption-timer period in cycles; 0 disables
	// the tick. The tick bounds error-detection latency (§III-C).
	TickCycles uint64
	// BarrierTimeout is the spin budget, in cycles, before a replica
	// waiting on a kernel barrier declares a straggler divergent.
	BarrierTimeout uint64
	// Masking enables TMR->DMR downgrade on a failed signature vote
	// (§IV). Requires Replicas >= 3.
	Masking bool
	// ExceptionBarriers makes user-level exceptions synchronisation
	// points, so a replica that faults alone is caught by a barrier
	// timeout rather than diverging silently (the Arm configuration in
	// Table VII).
	ExceptionBarriers bool
	// BranchSites is the set of instrumented branch addresses when the
	// program was compiled with the branch-counting pass (required for
	// ModeCC on profiles without a precise PMU). Keyed by virtual
	// address.
	BranchSites map[uint64]bool
	// ForceCompilerCounting makes CC-RCoE use the reserved-register
	// counter even on profiles with a precise PMU (the hardware- vs
	// compiler-assisted counting ablation). Requires BranchSites.
	ForceCompilerCounting bool
	// VM runs the workload inside a virtual-machine context: every
	// breakpoint and single-step forces a VM exit, and locating a
	// block-copy instruction requires a guest page-table walk (§III-D).
	VM bool
	// DisableExecCache turns off the machine's host-side execution cache
	// (the data translation memo) for this system, so every data access
	// scans the address space's segments. The two modes are bit-identical
	// by contract, enforced by the differential determinism tests.
	DisableExecCache bool
	// DisableSuperblock turns off the machine's superblock engine (batched
	// execution of predecoded straight-line runs, and the bulk credit of
	// idle windows) for this system, forcing per-cycle stepping. As with
	// the execution cache, the modes are bit-identical by contract,
	// enforced by the differential determinism tests across all four
	// {exec-cache × superblock} combinations.
	DisableSuperblock bool
	// Decorrelate gives each replica a structurally different memory
	// layout: the data and stack segments' virtual bases are shifted by a
	// distinct page-aligned per-replica delta, the physical placement
	// within the partition is padded and reordered, and address-literal
	// relocations in the program are patched to match. Replicas still
	// execute the identical instruction stream at identical text
	// addresses; the vote path canonicalizes the known pointer positions
	// (kernel.CanonVA), so fault-free runs vote clean. What changes is the
	// failure coverage: a wild pointer or a physical fault now corrupts
	// *different* program state in each replica, turning correlated silent
	// corruption into a detectable signature divergence.
	Decorrelate bool
	// LayoutSeed selects the per-replica deltas when Decorrelate is on
	// (0 = a fixed default). Deltas are bounded by kernel.MaxLayoutShift.
	LayoutSeed uint64
	// Trace configures the flight recorder and metrics (off by default;
	// ~zero cost when disabled).
	Trace TraceConfig
}

// TraceConfig configures the observability subsystem: the per-replica
// flight recorder (internal/trace) and the metric set (internal/metrics).
// When Enabled is false — the default — the system carries nil recorder
// and metric pointers and every hook point is a single nil check, so the
// simulated cycle counts are bit-identical to a build without the
// subsystem (benchmarked by BenchmarkTraceOverhead).
type TraceConfig struct {
	// Enabled turns on event recording and metric collection.
	Enabled bool
	// RingEvents is each ring's capacity in events
	// (trace.DefaultRingEvents when 0).
	RingEvents int
}

// withDefaults validates the configuration and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Mode == 0 {
		c.Mode = ModeNone
	}
	if c.Replicas == 0 {
		if c.Mode == ModeNone {
			c.Replicas = 1
		} else {
			c.Replicas = 2
		}
	}
	if c.Mode == ModeNone && c.Replicas != 1 {
		return c, fmt.Errorf("core: ModeNone requires exactly 1 replica, got %d", c.Replicas)
	}
	if c.Mode != ModeNone && c.Replicas < 2 {
		return c, fmt.Errorf("core: replication requires >= 2 replicas, got %d", c.Replicas)
	}
	if c.Profile.Name == "" {
		c.Profile = machine.X86()
	}
	if c.Replicas > c.Profile.Cores {
		return c, fmt.Errorf("core: %d replicas exceed %d cores", c.Replicas, c.Profile.Cores)
	}
	if c.Sig == 0 {
		c.Sig = SigArgs
	}
	if c.PartitionBytes == 0 {
		c.PartitionBytes = 8 << 20
	}
	if c.BarrierTimeout == 0 {
		c.BarrierTimeout = 2_000_000
	}
	if c.Masking && c.Replicas < 3 {
		return c, fmt.Errorf("core: masking requires TMR (>= 3 replicas)")
	}
	if c.Mode == ModeCC && (!c.Profile.PrecisePMU || c.ForceCompilerCounting) && c.BranchSites == nil {
		return c, fmt.Errorf("core: CC-RCoE on %s needs compiler-assisted branch counting (BranchSites)", c.Profile.Name)
	}
	if c.VM && c.Profile.Costs.VMExit == 0 {
		return c, fmt.Errorf("core: profile %s has no hypervisor support", c.Profile.Name)
	}
	if c.MemBytes == 0 {
		c.MemBytes = int(sharedSize+dmaSize) + c.Replicas*int(c.PartitionBytes) + (1 << 20)
	}
	return c, nil
}

// watchdogCycles is the synchronisation-watchdog period: when no rendezvous
// has opened for this many cycles, a probe rendezvous is opened so a
// silently dead primary (which receives all device interrupts) is caught by
// the barrier timeout instead of hanging the system. It is twice the
// barrier timeout under Masking; 0, no watchdog, otherwise.
func (c Config) watchdogCycles() uint64 {
	if c.Masking {
		return 2 * c.BarrierTimeout
	}
	return 0
}

// DetectionKind classifies how the system detected (or failed to detect)
// an error.
type DetectionKind int

// Detection kinds, matching the error categories of Tables VII-IX.
const (
	// DetectSignatureMismatch is a failed vote on state signatures.
	DetectSignatureMismatch DetectionKind = iota + 1
	// DetectBarrierTimeout is a straggler replica exceeding the kernel
	// barrier spin budget.
	DetectBarrierTimeout
	// DetectKernelException is a replica kernel failing internal checks
	// (canary, context corruption) and fail-stopping.
	DetectKernelException
	// DetectUserFault is a user-level exception observed by a replica
	// kernel (only a detection when exception barriers vote on it).
	DetectUserFault
	// DetectVoteInconclusive means the replicas could not agree on the
	// faulty replica's identity (Listing 5's ERROR_DIFF_FAULT_REPLICA).
	DetectVoteInconclusive
)

var detectionNames = map[DetectionKind]string{
	DetectSignatureMismatch: "signature-mismatch",
	DetectBarrierTimeout:    "barrier-timeout",
	DetectKernelException:   "kernel-exception",
	DetectUserFault:         "user-fault",
	DetectVoteInconclusive:  "vote-inconclusive",
}

// String returns the detection kind name.
func (k DetectionKind) String() string {
	if s, ok := detectionNames[k]; ok {
		return s
	}
	return fmt.Sprintf("detection(%d)", int(k))
}

// Detection records one detection event.
type Detection struct {
	Kind DetectionKind
	// Cycle is the global machine cycle at detection.
	Cycle uint64
	// Replica is the implicated replica, or -1 when unknown.
	Replica int
	// Masked reports whether the error was masked by downgrading.
	Masked bool
}
