package rcoe_test

import (
	"testing"

	"rcoe"
)

// benchExperiment runs one of the paper's experiments per iteration at
// Quick scale; run with -bench to regenerate any table or figure, e.g.
//
//	go test -bench BenchmarkTable2 -benchtime 1x
//
// The rendered table is reported through b.Log on the final iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := rcoe.RunExperiment(id, rcoe.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == b.N-1 {
			b.Logf("\n%s", tbl)
		}
	}
}

// BenchmarkTable1 regenerates Table I (voting-algorithm examples).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkDataRace regenerates the §V-A1 data-race tolerance experiment.
func BenchmarkDataRace(b *testing.B) { benchExperiment(b, "datarace") }

// BenchmarkTable2 regenerates Table II (native Dhrystone/Whetstone).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table III (virtualised Dhrystone/Whetstone).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table IV (SPLASH-2 kernels under CC-RCoE).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table V (memory bandwidth under contention).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table VI (YCSB workload mixes).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig3 regenerates Fig 3 (Redis/YCSB throughput).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable7 regenerates Table VII (memory fault injection).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8 regenerates Table VIII (register fault injection).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkTable9 regenerates Table IX (overclocking-style burst faults).
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkTable10 regenerates Table X (error recovery time).
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }

// BenchmarkFig4 regenerates Fig 4 (throughput with error masking).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkAblateSig measures the signature-configuration trade-off.
func BenchmarkAblateSig(b *testing.B) { benchExperiment(b, "ablate-sig") }

// BenchmarkAblateCounting compares hardware vs compiler branch counting.
func BenchmarkAblateCounting(b *testing.B) { benchExperiment(b, "ablate-count") }

// BenchmarkAblateTick sweeps the preemption-timer period.
func BenchmarkAblateTick(b *testing.B) { benchExperiment(b, "ablate-tick") }

// BenchmarkAblateFletcher contrasts Fletcher with an additive checksum.
func BenchmarkAblateFletcher(b *testing.B) { benchExperiment(b, "ablate-fletcher") }

// BenchmarkAblateLatency measures detection latency vs tick period.
func BenchmarkAblateLatency(b *testing.B) { benchExperiment(b, "ablate-latency") }

// BenchmarkTraceOverhead measures the flight recorder's host-time cost on
// Table II's LC-D Dhrystone configuration. "off" is the shipping default:
// the hook points are compiled in but each is a single nil check, so the
// paper-facing experiments (which all run untraced) must see a negligible
// delta versus a hookless build. "on" records every syscall, tick,
// barrier and vote event into the rings. Compare ns/op between the two
// sub-benchmarks; EXPERIMENTS.md records the measured numbers. Neither
// setting perturbs *simulated* time (see core's zero-perturbation test).
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		for i := 0; i < b.N; i++ {
			sys, err := rcoe.BuildSystem(rcoe.Config{
				Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000,
				Trace: rcoe.TraceConfig{Enabled: enabled},
			}, rcoe.Dhrystone(1500))
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(3_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkIdleFastForward measures the batch's idle credit on an
// idle-dominated scenario: a masking TMR system whose third replica is
// stall-injected, so the survivors spend the barrier-timeout window (and
// the watchdog wait after it) fully parked before ejecting the straggler
// and finishing as DMR. "on" is the shipping default; "off" disables the
// superblock engine, the naive cycle-by-cycle loop. The two produce
// bit-identical simulations (see the TestDeterminism differential suite);
// only host time differs. EXPERIMENTS.md records the measured speedup.
func BenchmarkIdleFastForward(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			sys, err := rcoe.BuildSystem(rcoe.Config{
				Mode: rcoe.ModeLC, Replicas: 3, Masking: true,
				TickCycles: 50_000, BarrierTimeout: 2_000_000,
				DisableSuperblock: disable,
			}, rcoe.Dhrystone(20_000))
			if err != nil {
				b.Fatal(err)
			}
			sys.RunCycles(50_000)
			sys.InjectStall(2)
			if err := sys.Run(3_000_000_000); err != nil {
				b.Fatal(err)
			}
			if len(sys.Detections()) == 0 {
				b.Fatal("stall was not detected")
			}
		}
	}
	b.Run("on", func(b *testing.B) { run(b, false) })
	b.Run("off", func(b *testing.B) { run(b, true) })
}

// BenchmarkExecHotLoop measures the host-side execution accelerators on
// an instruction-dense workload: Table II's Dhrystone under LC-DMR, where
// nearly every simulated cycle retires a replicated instruction and there
// is almost no idle window to credit. "on" is the shipping default
// (superblock engine + execution cache); "ec" is the PR-5 configuration
// (execution cache only) — the baseline the superblock speedup is quoted
// against; "sb" is the superblock engine alone; "off" is the naive
// translate/read/decode path per instruction. All four produce
// bit-identical simulations (see the TestDeterminism differential suite);
// only host time differs. EXPERIMENTS.md records the measured speedups
// and hit rates.
func BenchmarkExecHotLoop(b *testing.B) {
	run := func(b *testing.B, noEC, noSB bool) {
		for i := 0; i < b.N; i++ {
			// Construction (memory arena, kernels, program load) is
			// identical in all modes and not what this benchmark measures;
			// keep only the execution loop on the clock.
			b.StopTimer()
			sys, err := rcoe.BuildSystem(rcoe.Config{
				Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000,
				DisableExecCache: noEC, DisableSuperblock: noSB,
			}, rcoe.Dhrystone(10_000))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := sys.Run(3_000_000_000); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				if !noEC && noSB {
					// Icache stats are only meaningful when the batch
					// path isn't bypassing the per-instruction fetch.
					s := sys.Machine().ExecCacheStats()
					b.ReportMetric(s.DecodeHitRate()*100, "decode-hit-%")
					b.ReportMetric(s.TLBHitRate()*100, "tlb-hit-%")
				}
				if !noSB {
					s := sys.Machine().SuperblockStats()
					b.ReportMetric(s.HitRate()*100, "block-hit-%")
					m := sys.Machine()
					cycles := float64(m.Core(0).Cycles + m.Core(1).Cycles)
					b.ReportMetric(float64(s.Ahead)/cycles*100, "ahead-%")
					b.ReportMetric(float64(s.Rewound.Total())/cycles*100, "rewound-%")
					b.ReportMetric(float64(s.Solo)/float64(s.Batched)*100, "solo-%")
				}
			}
		}
	}
	b.Run("on", func(b *testing.B) { run(b, false, false) })
	b.Run("ec", func(b *testing.B) { run(b, false, true) })
	b.Run("sb", func(b *testing.B) { run(b, true, false) })
	b.Run("off", func(b *testing.B) { run(b, true, true) })
}
