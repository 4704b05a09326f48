package bench

import (
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/guest"
	"rcoe/internal/stats"
)

// AblateLatency quantifies §III-C's central trade-off: error-detection
// latency against synchronisation frequency. A single bit flip is
// injected into one replica's signature accumulator at a known cycle and
// the system runs until the vote catches it; the latency is the gap. The
// tick period bounds the worst case ("detection latency can be reduced by
// configuring the kernel's timer tick"), and per-syscall voting (SigSync)
// shrinks it further for syscall-heavy workloads.
func AblateLatency(s Scale) (*stats.Table, error) {
	reps := 3
	if s == Full {
		reps = 8
	}
	ticks := []uint64{10_000, 30_000, 90_000, 270_000}
	lats, err := fanOut("ablate-latency", len(ticks)*reps, func(i int) (uint64, error) {
		return detectionLatency(core.Config{
			Mode: core.ModeLC, Replicas: 2, TickCycles: ticks[i/reps],
		}, 40_000+uint64(i%reps)*17_001)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: detection latency vs tick period (LC-D, cycles)",
		"tick", "mean latency", "max latency")
	for ti, tick := range ticks {
		var sample stats.Sample
		for _, lat := range lats[ti*reps : (ti+1)*reps] {
			sample.Add(float64(lat))
		}
		t.AddRow(fmt.Sprintf("%d", tick),
			fmt.Sprintf("%.0f", sample.Mean()), fmt.Sprintf("%.0f", sample.Max()))
	}
	return t, nil
}

// detectionLatency runs a CPU-bound DMR workload, corrupts replica 1's
// signature accumulator at injectAt, and returns the cycles until the
// system detects the divergence.
func detectionLatency(cfg core.Config, injectAt uint64) (uint64, error) {
	sys, err := guest.Boot(cfg, guest.Dhrystone(2_000_000))
	if err != nil {
		return 0, err
	}
	sys.RunCycles(injectAt)
	lay := sys.Replica(1).K.Layout()
	if err := sys.Machine().Mem().FlipBit(lay.SigPA()+8, 5); err != nil {
		return 0, err
	}
	start := sys.Machine().Now()
	_ = sys.Run(100_000_000) // halts on detection
	ds := sys.Detections()
	if len(ds) == 0 {
		return 0, fmt.Errorf("bench: fault never detected (tick %d)", cfg.TickCycles)
	}
	return ds[0].Cycle - start, nil
}
