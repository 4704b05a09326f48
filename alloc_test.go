//go:build !race

// The race detector instruments allocations, so these counts hold only in
// normal builds.

package rcoe_test

import (
	"runtime"
	"testing"

	"rcoe"
	"rcoe/internal/core"
	"rcoe/internal/guest"
	"rcoe/internal/machine"
	"rcoe/internal/vmm"
)

// TestSteadyStateAllocFree pins the steady state of the benchmark's CPU
// systems at reduced scale: cpu-trap's CC-DMR DataRace, Arm SigSync
// Dhrystone and a SPLASH kernel in a VM, and cpu-dense's LC-DMR Dhrystone.
// After a warm-up slice, running on — kernel entries, logical-time
// samples, rendezvous, votes and runs ahead on the machine's pool included
// — allocates nothing but the block slots a core builds for the first
// time: a core allocates each slot of its block cache on first use, and a
// preemption that lands inside a straight run starts a block at a PC no
// block started at before. The count is exact (every allocation in the
// window), not an average rounded down. It is taken at GOMAXPROCS 1, as
// testing.AllocsPerRun takes its own: the machine's pool then runs a fork
// inline, while with a second thread a fork may start a helper goroutine,
// and whether it must depends on host timing.
func TestSteadyStateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boot := func(cfg core.Config, p guest.Program) func() (*core.System, error) {
		return func() (*core.System, error) { return rcoe.BuildSystem(cfg, p) }
	}
	lu := guest.SplashSuite()[4] // LU-C: a tight loop and a straight run per round
	lu.Outer = 400
	for _, tc := range []struct {
		name  string
		build func() (*core.System, error)
	}{
		{"cc-dmr-datarace", boot(core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: 2000},
			guest.DataRace(16, 20_000, 40))},
		{"arm-sigsync-dhrystone", boot(core.Config{Mode: core.ModeCC, Replicas: 2, Profile: machine.Arm(),
			Sig: core.SigSync, TickCycles: 5000}, guest.Dhrystone(200_000))},
		{"vm-splash-lu-c", func() (*core.System, error) {
			vm, err := vmm.Launch(vmm.GuestConfig{
				System:  core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: 30_000},
				Program: lu.Program(2),
			})
			if err != nil {
				return nil, err
			}
			return vm.System(), nil
		}},
		{"lc-dmr-dhrystone", boot(core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 20_000},
			guest.Dhrystone(200_000))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Machine()
			slots := func() (n uint64) {
				for id := range m.NumCores() {
					n += uint64(len(m.BlockStartPAs(id)))
				}
				return n
			}
			const warm, slice, slices = 4_000_000, 50_000, 80
			sys.RunCycles(warm)
			c0, s0 := m.Now(), slots()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range slices {
				sys.RunCycles(slice)
			}
			runtime.ReadMemStats(&after)
			if sys.Finished() || m.Now()-c0 != slices*slice {
				t.Fatalf("ran %d cycles (finished %v), want %d without finishing",
					m.Now()-c0, sys.Finished(), slices*slice)
			}
			if halted, why := sys.Halted(); halted {
				t.Fatalf("halted: %s", why)
			}
			allocs, fresh := after.Mallocs-before.Mallocs, slots()-s0
			t.Logf("%d slices of %d cycles: %d allocations, %d new block slots", slices, slice, allocs, fresh)
			if allocs != fresh {
				t.Errorf("%d warmed-up slices of %d cycles allocate %d times (%d bytes), %d of them new block slots",
					slices, slice, allocs, after.TotalAlloc-before.TotalAlloc, fresh)
			}
		})
	}
}
