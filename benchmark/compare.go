package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's repetitions in run b against reference run a.
// A move of the median beyond the bound is better or worse; within it,
// same. When either run's own spread (interquartile range over median)
// exceeds the bound the host was too noisy to tell, and the verdict is
// unresolved — unless every value of b beats every value of a. A bound
// of 0 is absolute: any increase is worse.
func judge(def metricDef, a, b summary) string {
	worsening := b.Median - a.Median
	if def.Better == "higher" {
		worsening = -worsening
	}
	if def.Bound == 0 {
		switch {
		case worsening > 0:
			return verdictWorse
		case worsening < 0:
			return verdictBetter
		}
		return verdictSame
	}
	if a.Median == 0 {
		return verdictUnresolved
	}
	rel := worsening / a.Median
	noisy := spread(a.Values) > def.Bound || spread(b.Values) > def.Bound
	if noisy {
		separated := b.Max < a.Min
		if def.Better == "higher" {
			separated = b.Min > a.Max
		}
		if !separated {
			return verdictUnresolved
		}
	}
	switch {
	case rel > def.Bound:
		return verdictWorse
	case rel < -def.Bound:
		return verdictBetter
	}
	return verdictSame
}

// compareRow is one line of the -compare table.
type compareRow struct {
	Workload string
	Metric   metricDef
	A, B     summary
	Verdict  string
}

// compareResults judges every end-to-end metric both files have, workload
// by workload in a's order. A workload or metric present on one side only
// is reported as unresolved.
func compareResults(a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		for _, def := range endToEnd {
			def.Bound = boundOn(wa.Name, def)
			sa, okA := wa.EndToEnd[def.Name]
			if wb == nil {
				if okA {
					rows = append(rows, compareRow{wa.Name, def, sa, summary{}, verdictUnresolved})
				}
				continue
			}
			sb, okB := wb.EndToEnd[def.Name]
			switch {
			case okA && okB:
				rows = append(rows, compareRow{wa.Name, def, sa, sb, judge(def, sa, sb)})
			case okA || okB:
				rows = append(rows, compareRow{wa.Name, def, sa, sb, verdictUnresolved})
			}
		}
	}
	return rows
}

// printComparison writes the table and returns how many rows were worse
// and how many unresolved.
func printComparison(out io.Writer, rows []compareRow) (worse, unresolved int) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [min, max]\tb median [min, max]\tchange\tbound\tverdict")
	for _, r := range rows {
		change := "n/a"
		if r.A.Median != 0 {
			change = fmt.Sprintf("%+.1f%%", (r.B.Median-r.A.Median)/r.A.Median*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%.0f%%\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit,
			r.A.Median, r.A.Min, r.A.Max, r.B.Median, r.B.Min, r.B.Max,
			change, r.Metric.Bound*100, r.Verdict)
		switch r.Verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	tw.Flush()
	return worse, unresolved
}
