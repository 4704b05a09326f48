package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// memDelta is the process's memory activity over one repetition.
type memDelta struct {
	// PeakRSSMB is the peak resident set reached during the repetition.
	PeakRSSMB float64
	AllocMB   float64
	Mallocs   uint64
	GCCycles  uint32
	GCPauseMS float64
}

// measure runs one repetition of w and attaches its memory activity.
// Before it starts, the heap is collected and freed memory handed back to
// the OS, and the kernel's peak-RSS mark is reset, so the peak is this
// repetition's own rather than the largest any earlier one happened to
// reach.
func measure(w workloadDef, p protocol, tr *tracer) (rep, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := w.Run(p.Scale, p.Seed, tr)
	runtime.ReadMemStats(&after)
	r.Mem = memDelta{
		PeakRSSMB: peakRSSMB(),
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		Mallocs:   after.Mallocs - before.Mallocs,
		GCCycles:  after.NumGC - before.NumGC,
		GCPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	return r, err
}

// metricValue is a single reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload reports. The end-to-end pass
// fills EndToEnd, the traced pass PerLayer; -all merges the two.
type workloadResult struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Seed      uint64 `json:"seed"`
	Reps      int    `json:"reps"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// EndToEnd holds a metric only where the workload has it: there is no
	// ops_per_s on a workload without operations.
	EndToEnd map[string]summary     `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Sim is the repetition's simulated statistics; Drift names the ones
	// that differ between repetitions and, behind refPrefix, the ones that
	// differ from expected.json.
	Sim   map[string]uint64 `json:"sim"`
	Drift []string          `json:"drift,omitempty"`
	// SelfTime is the traced pass's span roll-up.
	SelfTime []spanTotal `json:"self_time,omitempty"`
}

// refPrefix marks, in a drift list, a statistic that differs from the
// reference in expected.json rather than between repetitions: the one kind
// of drift -update-expected exists to clear.
const refPrefix = "expected:"

// drift compares every repetition's deterministic values with the first
// one's, and the first one's simulated statistics with the reference when
// there is one. It returns the names that differ, sorted.
func drift(reps []rep, expected map[string]uint64) []string {
	differ := map[string]bool{}
	compare := func(prefix string, a, b map[string]uint64) {
		for k, v := range a {
			if bv, ok := b[k]; !ok || bv != v {
				differ[prefix+k] = true
			}
		}
		for k := range b {
			if _, ok := a[k]; !ok {
				differ[prefix+k] = true
			}
		}
	}
	for _, r := range reps[1:] {
		compare("", reps[0].Sim, r.Sim)
		compare("counter.", reps[0].Counters, r.Counters)
	}
	if expected != nil {
		compare(refPrefix, expected, reps[0].Sim)
	}
	out := make([]string, 0, len(differ))
	for k := range differ {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// betweenReps returns the drift that is not against the reference.
func betweenReps(drift []string) []string {
	return slices.DeleteFunc(slices.Clone(drift), func(name string) bool {
		return strings.HasPrefix(name, refPrefix)
	})
}

// protocol fixes how a workload is measured.
type protocol struct {
	Scale scale
	Seed  uint64
	// Reps timed repetitions; when Seconds is set, repetitions instead
	// continue until that much time has been measured, minReps at least.
	Reps    int
	Seconds float64
	// Expected is the reference simulated statistics for this workload
	// (nil: only repetition-to-repetition identity is checked).
	Expected map[string]uint64
}

const minReps = 3

// runEndToEnd is the end-to-end pass: one discarded warm-up, then timed
// repetitions of fixed work, each on a fresh system, tracing off.
func runEndToEnd(w workloadDef, p protocol) (workloadResult, error) {
	res := workloadResult{Name: w.Name, Why: w.Why, Seed: p.Seed, EndToEnd: map[string]summary{}}
	warm, err := measure(w, p, nil)
	if err != nil {
		return res, fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	reps := []rep{warm}
	start := time.Now()
	for i := 0; ; i++ {
		if p.Seconds > 0 {
			if i >= minReps && time.Since(start).Seconds() >= p.Seconds {
				break
			}
		} else if i >= p.Reps {
			break
		}
		r, err := measure(w, p, nil)
		if err != nil {
			return res, fmt.Errorf("%s repetition %d: %w", w.Name, i+1, err)
		}
		reps = append(reps, r)
	}
	timed := reps[1:]
	res.Reps = len(timed)
	res.Sim = reps[0].Sim
	res.Drift = drift(reps, p.Expected)

	series := map[string][]float64{}
	for _, r := range timed {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		series["setup_s"] = append(series["setup_s"], r.SetupS)
		series["run_s"] = append(series["run_s"], r.RunS)
		series["peak_rss_mb"] = append(series["peak_rss_mb"], r.Mem.PeakRSSMB)
		for name, work := range map[string]float64{
			"guest_minstr_per_s": float64(r.Instr) / 1e6,
			"ops_per_s":          float64(r.Ops),
			"rounds_per_s":       float64(r.Rounds),
			"trials_per_s":       float64(r.Trials),
		} {
			if work > 0 && r.RunS > 0 {
				series[name] = append(series[name], work/r.RunS)
			}
		}
	}
	series["failed_share"] = []float64{float64(res.Failed) / float64(max(res.Attempted, 1))}
	series["sim_drift"] = []float64{float64(len(res.Drift))}
	for _, def := range endToEnd {
		if v := series[def.Name]; len(v) > 0 {
			res.EndToEnd[def.Name] = summarize(def.Unit, v)
		}
	}
	return res, nil
}

// tracedPairs is how many untraced/traced repetition pairs the traced
// pass alternates; bench.trace_overhead is the ratio of their medians.
const tracedPairs = 2

// runTraced is the traced pass: the same repetitions with a span around
// every call into a layer, alternated with untraced ones so the cost of
// tracing itself is measured, then the counters read off the traced
// repetitions. It returns the spans for the trace file.
func runTraced(w workloadDef, p protocol) (workloadResult, []span, error) {
	res := workloadResult{Name: w.Name, Why: w.Why, Seed: p.Seed, PerLayer: map[string]metricValue{}}
	if _, err := measure(w, p, nil); err != nil {
		return res, nil, fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	tr := newTracer(w.Name)
	var plain, traced []rep
	for i := 0; i < tracedPairs; i++ {
		r, err := measure(w, p, nil)
		if err != nil {
			return res, nil, fmt.Errorf("%s untraced repetition: %w", w.Name, err)
		}
		plain = append(plain, r)
		tr.rep = i
		id := tr.begin(w.Name)
		r, err = measure(w, p, tr)
		tr.end(id)
		if err != nil {
			return res, nil, fmt.Errorf("%s traced repetition: %w", w.Name, err)
		}
		traced = append(traced, r)
	}
	res.Reps = len(traced)
	res.Sim = traced[0].Sim
	res.Drift = drift(append(slices.Clone(traced), plain...), p.Expected)
	res.SelfTime = selfTimes(tr.spans)
	for _, r := range traced {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}

	med := func(f func(rep) float64) float64 {
		var v []float64
		for _, r := range traced {
			v = append(v, f(r))
		}
		return median(v)
	}
	last := traced[len(traced)-1]
	runS := med(func(r rep) float64 { return r.RunS })
	values := layerCounters(last, runS)
	for name := range last.Layer {
		values[name] = med(func(r rep) float64 { return r.Layer[name] })
	}
	if steps := durationsUS(runPhaseSpans(tr.spans), "Cluster.Step"); len(steps) > 0 {
		s := sorted(steps)
		values["cluster.round_p50_us"] = s[len(s)/2]
		values["cluster.round_p99_us"] = s[len(s)*99/100]
	}
	work := max(float64(last.Ops), float64(last.Trials))
	if work == 0 {
		work = float64(last.Instr) / 1e6
	}
	values["host.alloc_mb"] = med(func(r rep) float64 { return r.Mem.AllocMB })
	values["host.allocs_per_op"] = med(func(r rep) float64 { return float64(r.Mem.Mallocs) }) / max(work, 1)
	values["host.gc_cycles"] = med(func(r rep) float64 { return float64(r.Mem.GCCycles) })
	values["host.gc_pause_ms"] = med(func(r rep) float64 { return r.Mem.GCPauseMS })
	var plainRun []float64
	for _, r := range plain {
		plainRun = append(plainRun, r.RunS)
	}
	values["bench.trace_overhead"] = runS / median(plainRun)
	for _, def := range perLayer {
		if v, ok := values[def.Name]; ok {
			res.PerLayer[def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	return res, tr.spans, nil
}

// runPhaseSpans returns the spans recorded under a workload's timed
// phase (a "run" span), leaving set-up out.
func runPhaseSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "run" {
			out = append(out, s)
		}
	}
	return out
}

// layerCounters derives the per-layer counts and ratios from one
// repetition's counters. runS is the repetition's timed phase.
func layerCounters(r rep, runS float64) map[string]float64 {
	share := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	c, s := r.Counters, r.Sim
	v := map[string]float64{
		"machine.sb_hit_ratio":        share(c["sb_block_instrs"], s["instructions"]),
		"machine.sb_blocks_built":     float64(c["sb_blocks"]),
		"machine.ec_decode_hit_ratio": share(c["ec_decode_hits"], c["ec_decode_hits"]+c["ec_decode_misses"]),
		"machine.ec_tlb_hit_ratio":    share(c["ec_tlb_hits"], c["ec_tlb_hits"]+c["ec_tlb_misses"]),
		"machine.ff_skipped_share":    share(c["ff_skipped"], s["cycles"]),
		"core.syncs":                  float64(s["syncs"]),
		"core.votes":                  float64(s["votes"]),
		"core.instr_per_sync":         share(s["instructions"], s["syncs"]),
		"kernel.events":               float64(s["kernel_events"]),
		"vmm.exits":                   float64(s["vm_exits"]),
	}
	if runS > 0 {
		v["machine.sim_mcycles_per_s"] = float64(c["timed_cycles"]) / 1e6 / runS
	}
	return v
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// resident set. Where the kernel does not allow it the mark keeps
// growing, and every repetition reports the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB since the
// last reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
