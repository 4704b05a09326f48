// Package bench regenerates every table and figure of the paper's
// evaluation (§V): one runner per experiment, each producing the same
// rows/series the paper reports. Absolute numbers are simulator cycles;
// the shapes — who wins, by roughly what factor, where crossovers fall —
// are the reproduction target.
package bench

import (
	"context"
	"fmt"
	"sort"

	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/guest"
	"rcoe/internal/stats"
)

// Scale selects experiment sizing: Quick for CI and `go test -bench`,
// Full for paper-style runs.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1
	Full
)

// Experiment couples an experiment ID (the paper's table/figure number)
// with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) (*stats.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: voting examples", Run: Table1},
		{ID: "datarace", Title: "§V-A1: tolerating data races", Run: DataRace},
		{ID: "table2", Title: "Table II: native Dhrystone/Whetstone", Run: Table2},
		{ID: "table3", Title: "Table III: virtualised Dhrystone/Whetstone", Run: Table3},
		{ID: "table4", Title: "Table IV: SPLASH-2 under CC-RCoE VM", Run: Table4},
		{ID: "table5", Title: "Table V: memory bandwidth", Run: Table5},
		{ID: "table6", Title: "Table VI: YCSB workload mixes", Run: Table6},
		{ID: "fig3", Title: "Fig 3: Redis/YCSB throughput", Run: Fig3},
		{ID: "table7", Title: "Table VII: memory fault injection", Run: Table7},
		{ID: "table8", Title: "Table VIII: register fault injection (md5)", Run: Table8},
		{ID: "table9", Title: "Table IX: overclocking-style burst faults", Run: Table9},
		{ID: "table10", Title: "Table X: error recovery time", Run: Table10},
		{ID: "fig4", Title: "Fig 4: throughput with error masking", Run: Fig4},
		{ID: "ablate-sig", Title: "Ablation: signature configurations", Run: AblateSig},
		{ID: "ablate-count", Title: "Ablation: hardware vs compiler branch counting", Run: AblateCounting},
		{ID: "ablate-tick", Title: "Ablation: tick period vs overhead", Run: AblateTick},
		{ID: "ablate-fletcher", Title: "Ablation: Fletcher vs additive checksum", Run: AblateFletcher},
		{ID: "ablate-latency", Title: "Ablation: detection latency vs tick period", Run: AblateLatency},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// replCase names one replication configuration of the paper's tables.
type replCase struct {
	label    string
	mode     core.Mode
	replicas int
}

func stockCases() []replCase {
	return []replCase{
		{"Base", core.ModeNone, 1},
		{"LC-D", core.ModeLC, 2},
		{"LC-T", core.ModeLC, 3},
		{"CC-D", core.ModeCC, 2},
		{"CC-T", core.ModeCC, 3},
	}
}

// runProgram assembles and runs a guest program under a configuration,
// returning the cycles from boot to completion.
func runProgram(cfg core.Config, p guest.Program, budget uint64) (uint64, error) {
	sys, err := guest.Boot(cfg, p)
	if err != nil {
		return 0, err
	}
	start := sys.Machine().Now()
	if err := sys.Run(budget); err != nil {
		return 0, fmt.Errorf("bench: %s/%s: %w", cfg.Mode, p.Name, err)
	}
	return sys.Machine().Now() - start, nil
}

// fanOut runs n independent experiment cells on the experiment engine and
// returns their values in cell order. Cells must be self-contained
// simulated runs; the engine guarantees the values are identical at any
// host worker count.
func fanOut[T any](label string, n int, run func(i int) (T, error)) ([]T, error) {
	jobs := make([]exp.Job[T], n)
	for i := range jobs {
		i := i
		jobs[i] = exp.Job[T]{
			Name: fmt.Sprintf("%s[%d]", label, i),
			Run:  func(context.Context, uint64) (T, error) { return run(i) },
		}
	}
	results, err := exp.Run(exp.Options{}, jobs)
	if err != nil {
		return nil, err
	}
	return exp.Values(results)
}

// repeatRuns measures a program repeatedly, perturbing the tick phase so
// synchronisation points land at different code locations (the source of
// the paper's run-to-run variance on Whetstone). Repetitions are
// independent runs and fan out on the engine; the sample accumulates in
// repetition order.
func repeatRuns(cfg core.Config, p guest.Program, reps int, budget uint64) (*stats.Sample, error) {
	cycles, err := fanOut("rep/"+p.Name, reps, func(i int) (uint64, error) {
		c := cfg
		if c.TickCycles > 0 {
			c.TickCycles += uint64(i) * 137
		}
		return runProgram(c, p, budget)
	})
	if err != nil {
		return nil, err
	}
	var s stats.Sample
	for _, c := range cycles {
		s.Add(float64(c))
	}
	return &s, nil
}

// factor formats a ratio like the paper's overhead columns.
func factor(v, base float64) string {
	return fmt.Sprintf("%.2fx", v/base)
}
