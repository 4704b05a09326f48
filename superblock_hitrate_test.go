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
// bits, not speed). The run-ahead share guards the engine's second half the
// same way: 90 % of both replicas' cycles run ahead of machine time here,
// where the register-only promises before it covered 61 %, and under 2 %
// of what ran ahead is undone.
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
	// The same goes for run-ahead execution: most of both replicas' cycles
	// must run ahead of machine time between syncs, or the engine has
	// silently stopped promising and fallen back to interleaving the cores.
	m := sys.Machine()
	cycles := m.Core(0).Cycles + m.Core(1).Cycles
	if share := float64(s.Ahead) / float64(cycles); s.Promises == 0 || share < 0.8 {
		t.Fatalf("run-ahead share %.2f%% < 80%% of %d core cycles on LC-DMR Dhrystone (%+v)", share*100, cycles, s)
	}
	if r := s.Rewound.Total(); r*50 > s.Ahead {
		t.Fatalf("%d of %d cycles run ahead were undone (%+v): over 2%%", r, s.Ahead, s)
	}
	// Between syncs both replicas run far past the probe, so most of what
	// runs ahead goes on beside the other replica's run, on a second host
	// thread when there is one.
	if s.Overlapped*2 < s.Ahead {
		t.Fatalf("%d of %d cycles run ahead went on beside the other replica's run: under 50%% (%+v)", s.Overlapped, s.Ahead, s)
	}
}

// TestSuperblockKVSoloShare is the same kind of smoke for the engine on
// an LC-DMR key-value server, which enters the kernel every few dozen
// instructions, so its replicas take turns — one sits in a kernel-entry
// stall while the other executes memory-dense code. Of the batched cycles
// in which a core executed (the batches' idle credits, FastForwarded, are
// left out: 23 % of all batched cycles here) almost all must pass without
// the cores being interleaved cycle by cycle: credited in bulk while every
// executing core runs ahead, or run by one core alone at machine time
// (solo). Those stepped through the rotation were 0.79 % when promises
// covered register-only runs, which is what is allowed, 0.55 % before
// kernel entries could be local and 0.26 % now. And the replicas'
// cycles must mostly run ahead or solo: 86.2 % do, 78 % is required. Since
// most kernel entries here are local (core.System.LocalTrap: GetRID,
// GetPrimary, FT_Add_Trace) and leave the peer's run alone, a replica that
// enters the kernel runs on solo past it instead of rewinding its peer, so
// solo took cycles from run-ahead (62.1 % ahead now, 78 % before). At least
// half of all kernel entries must be local (64 % are), and the cycles
// rewinds replay at most a tenth of the 200 666 they were before local
// entries (14 242 now). The run is deterministic per seed, so the margins
// are against edits to the workload, not noise. If the shares collapse the
// engine is back to interleaving the replicas, or to rewinding them at every
// kernel entry.
//
// The run also pins where batches end. The NIC watches only its RX flag,
// which the driver clears once per op (the load phase's inserts included),
// so stores into the watched word end at most one batch per op; and a batch
// goes on after a trap unless re-deriving its state refuses, so fewer than
// half of all traps end one. Local entries are counted among the traps
// (DebugTrace sees every entry).
func TestSuperblockKVSoloShare(t *testing.T) {
	const records, ops = 50, 400
	const replayedBefore = 200_666 // Replayed before kernel entries could be local
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
	stepped := executed - (s.Jumped - m.FastForwarded()) - s.Solo
	if executed == 0 || stepped*10000 > executed*79 {
		t.Fatalf("%d of %d batched cycles in which a core executed were stepped core by core on LC-DMR KV, over 0.79%% (%+v)",
			stepped, executed, s)
	}
	cycles := m.Core(0).Cycles + m.Core(1).Cycles
	t.Logf("%d traps, %d core cycles, %d of %d executed cycles stepped: %+v", traps, cycles, stepped, executed, s)
	if share := float64(s.Ahead+s.Solo) / float64(cycles); share < 0.78 {
		t.Fatalf("run-ahead and solo share %.1f%% < 78%% of %d core cycles on LC-DMR KV (%+v)", share*100, cycles, s)
	}
	if s.Local*2 < traps {
		t.Fatalf("%d of %d kernel entries were local on LC-DMR KV: under half (%+v)", s.Local, traps, s)
	}
	if s.Replayed*10 > replayedBefore {
		t.Fatalf("rewinds replayed %d cycles on LC-DMR KV, over a tenth of the %d before local kernel entries (%+v)",
			s.Replayed, replayedBefore, s)
	}
	// No run outlasts the probe beside another: the KV node never hands a
	// run to a helper thread, so it leaves the host's second core to the
	// shard and trial pools.
	if s.Overlapped != 0 {
		t.Fatalf("%d cycles ran past the probe beside another core's run on LC-DMR KV (%+v)", s.Overlapped, s)
	}
	if e := s.Exits; e.Watched > records+ops || e.Trap*2 >= traps {
		t.Fatalf("batch exits %+v over %d ops and %d traps: want at most one watched-store exit per op and trap exits below half of all traps",
			e, records+ops, traps)
	}
}
