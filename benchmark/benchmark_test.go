package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// wantEndToEnd lists, per workload, the end-to-end metrics it must
// report beyond the ones every workload has.
var wantEndToEnd = map[string][]string{
	"cpu-dense":     {"guest_minstr_per_s"},
	"cpu-trap":      {"guest_minstr_per_s"},
	"kv-node":       {"guest_minstr_per_s", "ops_per_s"},
	"cluster-serve": {"guest_minstr_per_s", "ops_per_s", "rounds_per_s"},
	"campaign-warm": {"trials_per_s"},
}

func TestEndToEndPassTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(w, protocol{Scale: tinyScale, Seed: 3, Reps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Reps != 2 || res.Attempted == 0 {
				t.Fatalf("reps=%d attempted=%d", res.Reps, res.Attempted)
			}
			want := append([]string{"setup_s", "run_s", "peak_rss_mb"}, wantEndToEnd[w.Name]...)
			for _, name := range want {
				s, ok := res.EndToEnd[name]
				if !ok || s.Median <= 0 {
					t.Errorf("%s = %+v, want a positive value", name, s)
				}
			}
			if got := len(res.EndToEnd); got != len(want)+2 {
				t.Errorf("%d end-to-end metrics %v, want %d", got, res.EndToEnd, len(want)+2)
			}
			if s := res.EndToEnd["failed_share"]; s.Median != 0 || res.Failed != 0 {
				t.Errorf("failed_share = %v (%d of %d failed)", s.Median, res.Failed, res.Attempted)
			}
			if s := res.EndToEnd["sim_drift"]; s.Median != 0 {
				t.Errorf("sim_drift = %v: %v", s.Median, res.Drift)
			}
			if len(res.Sim) == 0 {
				t.Error("no simulated statistics")
			}

			var out bytes.Buffer
			if err := printSummaryLine(&out, res, false); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("summary line %q: %v", out.String(), err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Errorf("summary keys %v, want %v", keys, want)
			}
			if string(line["correct"]) != "true" {
				t.Errorf("correct = %s", line["correct"])
			}
		})
	}
}

// snapshotSpans are the calls that move state through the snapshot layer.
var snapshotSpans = []string{"Cluster.Checkpoint", "Cluster.Failover", "faults.WarmTemplate", "snapshot.Parse", "KVRun.LoadState"}

func TestTracedPassTiny(t *testing.T) {
	dir := t.TempDir()
	produced := map[string]bool{}
	for _, w := range workloads {
		res, spans, err := runTraced(w, protocol{Scale: tinyScale, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || len(res.Drift) != 0 {
			t.Errorf("%s: %d failed, drift %v", w.Name, res.Failed, res.Drift)
		}
		for name := range res.PerLayer {
			produced[name] = true
		}
		if v := res.PerLayer["bench.trace_overhead"].Value; v <= 0 {
			t.Errorf("%s: bench.trace_overhead = %v", w.Name, v)
		}

		names := map[string]bool{}
		for i, s := range spans {
			names[s.Name] = true
			if s.ID != i || s.EndNS < s.StartNS || s.Parent >= i || s.Workload != w.Name {
				t.Fatalf("%s: malformed span %+v", w.Name, s)
			}
			if s.Parent >= 0 && (spans[s.Parent].StartNS > s.StartNS || spans[s.Parent].EndNS < s.EndNS) {
				t.Fatalf("%s: span %+v escapes its parent %+v", w.Name, s, spans[s.Parent])
			}
		}
		hasSnapshot := slices.ContainsFunc(snapshotSpans, func(n string) bool { return names[n] })
		if wantSnapshot := w.Name == "cluster-serve" || w.Name == "campaign-warm"; hasSnapshot != wantSnapshot {
			t.Errorf("%s: snapshot spans present = %v, want %v (%v)", w.Name, hasSnapshot, wantSnapshot, names)
		}
		path := filepath.Join(dir, "trace-"+w.Name+".json")
		if err := writeTrace(path, spans); err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &tf)
		}
		if err != nil || len(tf.Spans) != len(spans) || len(tf.SelfTime) == 0 {
			t.Errorf("%s: trace file: %v (%d spans, %d totals)", w.Name, err, len(tf.Spans), len(tf.SelfTime))
		}
	}

	tr := newTracer("probes")
	values, err := runProbes(tinyScale, tr)
	if err != nil {
		t.Fatal(err)
	}
	for name := range probeMetrics(values) {
		produced[name] = true
	}
	if len(probeMetrics(values)) != len(values) {
		t.Errorf("probes produced undeclared metrics: %v", values)
	}
	for _, def := range perLayer {
		if !produced[def.Name] {
			t.Errorf("per-layer metric %s is declared but nothing produced it", def.Name)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("probes left %d spans open", len(tr.open))
	}
}

func TestDrift(t *testing.T) {
	a := rep{Sim: map[string]uint64{"cycles": 10, "ops": 3}, Counters: map[string]uint64{"sb_blocks": 7}}
	b := rep{Sim: map[string]uint64{"cycles": 11, "ops": 3}, Counters: map[string]uint64{"sb_blocks": 8}}
	if got := drift([]rep{a, a}, a.Sim); len(got) != 0 {
		t.Errorf("identical repetitions drift: %v", got)
	}
	if got, want := drift([]rep{a, b}, nil), []string{"counter.sb_blocks", "cycles"}; !slices.Equal(got, want) {
		t.Errorf("drift = %v, want %v", got, want)
	}
	expected := map[string]uint64{"cycles": 10, "ops": 4, "gone": 1}
	got := drift([]rep{a, b}, expected)
	if want := []string{"counter.sb_blocks", "cycles", "expected:gone", "expected:ops"}; !slices.Equal(got, want) {
		t.Errorf("drift against reference = %v, want %v", got, want)
	}
	if got, want := betweenReps(got), []string{"counter.sb_blocks", "cycles"}; !slices.Equal(got, want) {
		t.Errorf("drift between repetitions = %v, want %v", got, want)
	}
	if err := (workloadResult{Attempted: 5}).verdict(); err != nil {
		t.Errorf("clean result: %v", err)
	}
	if (workloadResult{Attempted: 5, Failed: 1}).verdict() == nil || (workloadResult{Drift: got}).verdict() == nil {
		t.Error("a failed operation or a drifted statistic must end the run with an error")
	}
}

func TestSummaryStatistics(t *testing.T) {
	s := summarize("s", []float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] holds a [10,40] and a [50,90]; the second a holds b [60,70].
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "a", StartNS: 50, EndNS: 90},
		{ID: 3, Parent: 2, Name: "b", StartNS: 60, EndNS: 70},
	}
	want := []spanTotal{
		{Name: "a", Count: 2, TotalNS: 70, SelfNS: 60},
		{Name: "root", Count: 1, TotalNS: 100, SelfNS: 30},
		{Name: "b", Count: 1, TotalNS: 10, SelfNS: 10},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}

	var off *tracer
	off.end(off.begin("ignored")) // the untraced state records nothing and must not panic
	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || len(tr.open) != 0 {
		t.Errorf("tracer spans = %+v", tr.spans)
	}
	if got := rebase(tr.spans, 5); got[0].ID != 5 || got[0].Parent != -1 || got[1].Parent != 5 {
		t.Errorf("rebase = %+v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	absolute := metricDef{Name: "sim_drift", Better: "lower"}
	steady := func(m float64) summary {
		return summarize("", []float64{m * 0.99, m, m, m, m * 1.01})
	}
	noisy := func(m float64) summary {
		return summarize("", []float64{m * 0.7, m * 0.8, m, m * 1.2, m * 1.3})
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"within bound", lower, steady(2), steady(2.1), verdictSame},
		{"slower", lower, steady(2), steady(2.5), verdictWorse},
		{"faster", lower, steady(2), steady(1.5), verdictBetter},
		{"throughput down", higher, steady(100), steady(80), verdictWorse},
		{"throughput up", higher, steady(100), steady(125), verdictBetter},
		{"noisy", lower, noisy(2), steady(2.1), verdictUnresolved},
		{"noisy but separated", lower, noisy(2), steady(1), verdictBetter},
		{"noisy, separated the wrong way", lower, steady(1), noisy(2), verdictUnresolved},
		{"zero stays zero", absolute, steady(0), steady(0), verdictSame},
		{"any drift is worse", absolute, steady(0), steady(1), verdictWorse},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	a := &resultFile{Schema: schema, Workloads: []workloadResult{{
		Name: "kv-node", EndToEnd: map[string]summary{"run_s": steady(2), "ops_per_s": steady(100), "sim_drift": steady(0)},
	}, {
		Name: "cpu-dense", EndToEnd: map[string]summary{"run_s": steady(2)},
	}}}
	b := &resultFile{Schema: schema, Workloads: []workloadResult{{
		Name: "kv-node", EndToEnd: map[string]summary{"run_s": steady(3), "ops_per_s": steady(101)},
	}}}
	var out bytes.Buffer
	worse, unresolved := printComparison(&out, compareResults(a, b))
	// kv-node run_s is worse; sim_drift is missing from b and cpu-dense
	// from b altogether, so both are unresolved.
	if worse != 1 || unresolved != 2 {
		t.Errorf("worse=%d unresolved=%d\n%s", worse, unresolved, out.String())
	}
	if same, _ := printComparison(&out, compareResults(a, a)); same != 0 {
		t.Errorf("a file compared with itself has %d worse rows", same)
	}

	// 15 % slower is beyond cpu-dense's own bound and within kv-node's.
	slower := func(name string) string {
		a := &resultFile{Workloads: []workloadResult{{Name: name, EndToEnd: map[string]summary{"run_s": steady(2)}}}}
		b := &resultFile{Workloads: []workloadResult{{Name: name, EndToEnd: map[string]summary{"run_s": steady(2.3)}}}}
		return compareResults(a, b)[0].Verdict
	}
	if dense, kv := slower("cpu-dense"), slower("kv-node"); dense != verdictWorse || kv != verdictSame {
		t.Errorf("15 %% slower: cpu-dense %s, kv-node %s", dense, kv)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	in := resultFile{
		Schema: schema, Host: readHostInfo(), Seed: 9,
		Workloads: []workloadResult{{
			Name: "kv-node", Why: "w", Seed: 9, Reps: 5, Attempted: 10, Failed: 0,
			EndToEnd: map[string]summary{"run_s": summarize("s", []float64{1.5, 2.5, 2})},
			PerLayer: map[string]metricValue{"core.syncs": {Value: 12, Unit: "count"}},
			Sim:      map[string]uint64{"cycles": 1<<63 + 1},
			SelfTime: []spanTotal{{Name: "run", Count: 1, TotalNS: 5, SelfNS: 2}},
		}},
		Probes: map[string]metricValue{"isa.decode_ns": {Value: 3.25, Unit: "ns"}},
	}
	if in.Host.NProc < 1 || in.Host.GoVersion == "" || in.Host.CPUModel == "" || in.Host.GitCommit == "" {
		t.Errorf("host fingerprint incomplete: %+v", in.Host)
	}
	path := filepath.Join(t.TempDir(), "sub", "run.json")
	if err := writeJSON(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&in, out) {
		t.Errorf("round trip changed the file:\n in %+v\nout %+v", in, *out)
	}

	in.Workloads[0].EndToEnd["bad name"] = summary{}
	if err := in.validate(); err == nil {
		t.Error("a metric name with a space validated")
	}
	for name, want := range map[string]bool{"cpu-dense": true, "machine.ns_per_instr.sb": true, "": false, "a/b": false, ".x": false, strings.Repeat("x", 65): false} {
		if validName(name) != want {
			t.Errorf("validName(%q) = %v", name, !want)
		}
	}
}

// TestDeclarations holds BENCHMARK.json, the metric tables and the
// workload list to each other.
func TestDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if def, ok := lookupWorkload(w.Name); !ok || def.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %q does not match the benchmark's", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark has %d", names, len(workloads))
	}
	check := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark emits %d", len(got), kind, len(want))
		}
		for _, g := range got {
			def, ok := lookupMetric(want, g.Name)
			if !ok || def.Unit != g.Unit || def.Better != g.Better || def.Bound != g.Bound {
				t.Errorf("BENCHMARK.json %s metric %+v does not match %+v", kind, g, def)
			}
		}
	}
	var everywhere []metricDef
	for _, def := range endToEnd {
		if def.Everywhere {
			everywhere = append(everywhere, def)
		}
	}
	check("end_to_end", decl.EndToEnd, everywhere)
	check("per_layer", decl.PerLayer, perLayer)
	// A declared bound is the loosest any workload has.
	for _, def := range endToEnd {
		var loosest float64
		for _, w := range workloads {
			loosest = max(loosest, boundOn(w.Name, def))
		}
		if loosest != def.Bound {
			t.Errorf("%s: declared bound %v, loosest workload bound %v", def.Name, def.Bound, loosest)
		}
	}
	for _, def := range append(slices.Clone(endToEnd), perLayer...) {
		if !validName(def.Name) || (def.Better != "higher" && def.Better != "lower") {
			t.Errorf("bad metric declaration %+v", def)
		}
	}
	if _, err := expectedFor("kv-node", expectedSeed); err != nil {
		t.Error(err)
	}
}

func lookupMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
