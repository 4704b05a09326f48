package rcoe_test

import (
	"fmt"
	"sync"
	"testing"

	"rcoe"
	"rcoe/internal/machine"
)

// TestParkGateShadow is the park gate's exactness proof by exhaustion: with
// machine.DebugParkShadow set, every poll a ParkWatch declaration skips
// still evaluates its condition, and any that returns true — a wake the
// gate would have missed — is a violation. It covers the differential
// suite's scenarios (whose masking downgrade is a TMR barrier-timeout
// ejection), plus the three systems of the benchmark's cpu-trap workload at
// a tiny scale, and expects none. Each runs with every accelerator on and
// fully naive, where a parked core is polled on every cycle (the fault
// campaigns have no fast-forward switch and run once).
func TestParkGateShadow(t *testing.T) {
	var (
		mu         sync.Mutex // campaigns run their trials on worker goroutines
		violations []string
	)
	machine.DebugParkShadow = func(coreID int, now uint64) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) < 10 {
			violations = append(violations, fmt.Sprintf("core %d, cycle %d", coreID, now))
		}
	}
	defer func() { machine.DebugParkShadow = nil }()

	allOn, naive := hostVariants[0], hostVariants[len(hostVariants)-1]
	both := []hostVariant{allOn, naive}
	scenario := func(name string, variants []hostVariant, run func(t *testing.T, v hostVariant)) {
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				run(t, v)
				mu.Lock()
				defer mu.Unlock()
				if len(violations) > 0 {
					t.Fatalf("the park gate skipped polls that would have woken:\n%v", violations)
				}
			})
		}
	}

	for _, p := range table2Programs {
		for _, c := range table2Configs {
			scenario("table2/"+p.name+"/"+c.name, both, func(t *testing.T, v hostVariant) {
				runToFinish(t, c.cfg, p.prog, v)
			})
		}
	}
	scenario("kv-ycsba", both, func(t *testing.T, v hostVariant) { runKVUnderYCSB(t, v) })
	scenario("masking-downgrade", both, func(t *testing.T, v hostVariant) { runMaskingDowngrade(t, v) })
	if !testing.Short() {
		scenario("soak-cycle", both, func(t *testing.T, v hostVariant) { runSoakCycle(t, v) })
	}
	scenario("fault-campaigns", []hostVariant{allOn}, func(t *testing.T, _ hostVariant) {
		runMemCampaign(t, false, false)
		runRegCampaign(t, false, false)
	})
	for _, decorr := range []bool{false, true} {
		scenario(fmt.Sprintf("hard-fault-matrix/decorrelate=%v", decorr), both,
			func(t *testing.T, v hostVariant) { runHardCampaign(t, decorr, v) })
	}

	// The cpu-trap workload's systems (benchmark/workloads.go), tiny.
	scenario("cpu-trap/datarace-cc-dmr", both, func(t *testing.T, v hostVariant) {
		runToFinish(t, rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 2000},
			rcoe.DataRace(4, 40, 10), v)
	})
	scenario("cpu-trap/arm-sigsync-dhrystone", both, func(t *testing.T, v hostVariant) {
		runToFinish(t, rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, Profile: rcoe.Arm(), Sig: rcoe.SigSync, TickCycles: 5000},
			rcoe.Dhrystone(800), v)
	})
	scenario("cpu-trap/splash-cc-dmr-vm", both, func(t *testing.T, v hostVariant) {
		kern := rcoe.SplashSuite()[1] // CHOLESKY: breakpoint-heavy
		kern.Outer = 3
		cfg := rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 30_000}
		v.apply(&cfg)
		vm, err := rcoe.LaunchVM(rcoe.GuestConfig{System: cfg, Program: kern.Program(2)})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.System().Run(500_000_000); err != nil {
			t.Fatalf("run (%s): %v", v.name, err)
		}
		if st := vm.System().Machine().ParkStats(); st.Evals >= st.Polls {
			t.Fatalf("the gate never skipped a poll on a closely-coupled VM run: %+v", st)
		}
	})
}
