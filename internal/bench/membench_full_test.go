package bench

import (
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/guest"
	"rcoe/internal/machine"
)

// TestMembenchFullScaleCompletes is the regression test for the
// full-scale Table V barrier timeout: with 8 MiB buffers the replicas'
// copies outlast the rendezvous spin budget unless the bus shares fairly,
// because LC only levels logical time at events and membench's only event
// is the final exit. Under the pre-fix phase-locked arbitration replica 1
// received ~1/3 of the bandwidth, sat a whole copy behind at replica 0's
// exit, and could not catch up within BarrierTimeout. The DMR and TMR
// x86 cells (the ones that trip first in `rcoe-bench -scale full table5`)
// must complete without any detection.
func TestMembenchFullScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale membench is ~1s per cell; skipped with -short")
	}
	p := guest.Membench(8<<20, 4)
	for _, mode := range []core.Mode{core.ModeLC, core.ModeCC} {
		for _, replicas := range []int{2, 3} {
			cfg := core.Config{
				Mode: mode, Replicas: replicas, Profile: machine.X86(),
				TickCycles: 100_000,
			}
			// CC additionally exercises the mid-block catch-up path: every
			// tick rendezvous lands inside the 8 MiB copy, so the laggards
			// must converge onto the leader's exact remaining count via
			// the block watchpoint, not free-run past it.
			cycles, err := runProgram(cfg, p, 30_000_000_000)
			if err != nil {
				t.Fatalf("%v replicas=%d: %v", mode, replicas, err)
			}
			if cycles == 0 {
				t.Fatalf("%v replicas=%d: zero-cycle run", mode, replicas)
			}
		}
	}
}
