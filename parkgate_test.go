package rcoe_test

import (
	"fmt"
	"sync"
	"testing"

	"rcoe"
	"rcoe/internal/machine"
)

// TestParkGateShadow is the park gate's exactness proof by exhaustion: with
// machine.DebugParkShadow set, every poll a park's declarations skip
// still evaluates its condition, and any that returns true — a wake the
// gate would have missed — is a violation. It covers the differential
// suite's scenarios (whose masking downgrade is a TMR barrier-timeout
// ejection), plus the three systems of the benchmark's cpu-trap workload at
// a tiny scale, and expects none. Each runs with every accelerator on and
// fully naive, where a parked core is polled on every cycle (the fault
// campaigns take no host variant and run once).
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
	shadowScenarios(t, []hostVariant{allOn, naive}, func(t *testing.T) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) > 0 {
			t.Fatalf("the park gate skipped polls that would have woken:\n%v", violations)
		}
	})
}

// TestCondShadow is the same proof for RunUntil's contract: a superblock
// batch does not evaluate the condition it runs under, because nothing that
// can change it happens inside a batch without ending it. With
// machine.DebugCondShadow set the batch evaluates it anyway, before every
// cycle naive stepping would have, and a true result — a stop the batch
// would have run past — is a violation. Naive stepping has no batches, so
// only the accelerated variant runs.
func TestCondShadow(t *testing.T) {
	var (
		mu         sync.Mutex
		violations []uint64
	)
	machine.DebugCondShadow = func(now uint64) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) < 10 {
			violations = append(violations, now)
		}
	}
	defer func() { machine.DebugCondShadow = nil }()
	shadowScenarios(t, hostVariants[:1], func(t *testing.T) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) > 0 {
			t.Fatalf("a batch ran past cycles at which RunUntil's condition held: %v", violations)
		}
	})
}

// shadowScenarios runs what the two shadow tests cover under each of
// variants, calling verdict after every run: the differential suite's
// scenarios, plus the three systems of the benchmark's cpu-trap workload at
// a tiny scale.
func shadowScenarios(t *testing.T, variants []hostVariant, verdict func(t *testing.T)) {
	allOn := hostVariants[0]
	scenario := func(name string, variants []hostVariant, run func(t *testing.T, v hostVariant)) {
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				run(t, v)
				verdict(t)
			})
		}
	}

	for _, p := range table2Programs {
		for _, c := range table2Configs {
			scenario("table2/"+p.name+"/"+c.name, variants, func(t *testing.T, v hostVariant) {
				runToFinish(t, c.cfg, p.prog, v)
			})
		}
	}
	scenario("kv-ycsba", variants, func(t *testing.T, v hostVariant) { runKVUnderYCSB(t, v) })
	scenario("masking-downgrade", variants, func(t *testing.T, v hostVariant) { runMaskingDowngrade(t, v) })
	if !testing.Short() {
		scenario("soak-cycle", variants, func(t *testing.T, v hostVariant) { runSoakCycle(t, v) })
	}
	scenario("fault-campaigns", []hostVariant{allOn}, func(t *testing.T, _ hostVariant) {
		runMemCampaign(t, false, false)
		runRegCampaign(t, false, false)
	})
	for _, decorr := range []bool{false, true} {
		scenario(fmt.Sprintf("hard-fault-matrix/decorrelate=%v", decorr), variants,
			func(t *testing.T, v hostVariant) { runHardCampaign(t, decorr, v) })
	}

	// The cpu-trap workload's systems (benchmark/workloads.go), tiny.
	scenario("cpu-trap/datarace-cc-dmr", variants, func(t *testing.T, v hostVariant) {
		runToFinish(t, rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 2000},
			rcoe.DataRace(4, 40, 10), v)
	})
	scenario("cpu-trap/arm-sigsync-dhrystone", variants, func(t *testing.T, v hostVariant) {
		runToFinish(t, rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, Profile: rcoe.Arm(), Sig: rcoe.SigSync, TickCycles: 5000},
			rcoe.Dhrystone(800), v)
	})
	scenario("cpu-trap/splash-cc-dmr-vm", variants, func(t *testing.T, v hostVariant) {
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
		// Stepped naively a parked core is polled every cycle; with the
		// superblock engine a rider is credited beside a solo run instead,
		// so the gate's skips show only on the former.
		if st := vm.System().Machine().ParkStats(); v.noSB && st.Evals >= st.Polls {
			t.Fatalf("the gate never skipped a poll on a closely-coupled VM run: %+v", st)
		}
	})
}
