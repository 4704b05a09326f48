package rcoe_test

import (
	"testing"

	"rcoe"
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
