package rcoe_test

import (
	"testing"

	"rcoe"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/workload"
)

// TestSuperblockDhrystoneHitRate is the CI bench smoke for the superblock
// engine: on Table II's Dhrystone — the instruction-dense workload the
// host-speedup numbers in EXPERIMENTS.md are quoted on — at least 90% of
// all retired instructions must execute from the batched path. A hit rate
// collapse here means the engine is refusing or invalidating blocks on
// the hot loop and the speedup silently regressed to exec-cache levels,
// which no determinism differential would catch (the contract is about
// bits, not speed). The deferred share guards the engine's second half the
// same way.
func TestSuperblockDhrystoneHitRate(t *testing.T) {
	sys, err := rcoe.BuildSystem(rcoe.Config{
		Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000,
	}, rcoe.Dhrystone(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(3_000_000_000); err != nil {
		t.Fatal(err)
	}
	s := sys.Machine().SuperblockStats()
	if s.Instrs == 0 || s.Blocks == 0 {
		t.Fatalf("superblock engine never engaged: %+v", s)
	}
	if hr := s.HitRate(); hr < 0.9 {
		t.Fatalf("block-hit rate %.2f%% < 90%% on Dhrystone (%+v)", hr*100, s)
	}
	// The same goes for deferred execution: most of both replicas' cycles
	// must be register-only stretches executed in bursts, or the engine
	// has silently stopped promising and fallen back to interleaving every
	// cycle.
	m := sys.Machine()
	cycles := m.Core(0).Cycles + m.Core(1).Cycles
	if share := float64(s.Deferred) / float64(cycles); s.Promises == 0 || share < 0.5 {
		t.Fatalf("deferred share %.2f%% < 50%% of %d core cycles on LC-DMR Dhrystone (%+v)", share*100, cycles, s)
	}
}

// TestSuperblockKVSoloShare is the same kind of smoke for the engine's solo
// path: an LC-DMR key-value server enters the kernel every few dozen
// instructions, so its replicas take turns — one sits in a kernel-entry
// stall, a promise, while the other executes memory-dense code. Of the
// batched cycles in which a core executed (the batches' idle credits,
// FastForwarded, are left out: 23 % of all batched cycles here) those not
// credited in bulk (both replicas stalled, 70 % of them) must be run by that
// one core alone at machine time: 29 % measured, 25 % required. The run is
// deterministic per seed, so the margin is against edits to the workload,
// not noise, and a halving of the solo path fails. If the share collapses
// the engine is back to driving the lone core through the
// promise/credit/burst round trip.
//
// The run also pins where batches end. The NIC watches only its RX flag,
// which the driver clears once per op (the load phase's inserts included),
// so stores into the watched word end at most one batch per op; and a batch
// goes on after a trap unless re-deriving its state refuses, so fewer than
// half of all traps end one.
func TestSuperblockKVSoloShare(t *testing.T) {
	const records, ops = 50, 400
	traps := uint64(0)
	machine.DebugTrace = func(int, machine.TrapKind, uint64, uint64) { traps++ }
	defer func() { machine.DebugTrace = nil }()
	run, err := harness.NewKV(harness.KVOptions{
		System:      rcoe.Config{Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 60_000},
		Workload:    workload.YCSBA,
		Records:     records,
		Operations:  ops,
		TraceOutput: true,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Run()
	if err != nil || res.Ops != ops || res.Errors != 0 {
		t.Fatalf("KV run: %+v, %v", res, err)
	}
	m := run.Sys.Machine()
	s := m.SuperblockStats()
	executed := s.Batched - m.FastForwarded()
	if share := float64(s.Solo) / float64(executed); executed == 0 || share < 0.25 {
		t.Fatalf("solo share %.1f%% < 25%% of %d batched cycles in which a core executed on LC-DMR KV (%+v)",
			share*100, executed, s)
	}
	if e := s.Exits; e.Watched > records+ops || e.Trap*2 >= traps {
		t.Fatalf("batch exits %+v over %d ops and %d traps: want at most one watched-store exit per op and trap exits below half of all traps",
			e, records+ops, traps)
	}
}
