// Command benchmark is the repository's performance benchmark: five
// workloads, each measured end to end (host seconds, throughput, memory,
// failures, simulated-statistics drift) and, in a separate traced pass,
// layer by layer. It measures every layer from outside — timing calls
// into exported functions and reading exported counters — and changes
// nothing else in the repository. See README.md.
//
//	go run ./benchmark -all -seed 1 -out benchmark/out/run.json
//	go run ./benchmark -workload kv-node -seed 7
//	go run ./benchmark -workload kv-node -trace 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"text/tabwriter"

	"rcoe/internal/exp"
)

//go:embed expected.json
var expectedJSON []byte

// expectedPath is where -update-expected rewrites the embedded file,
// relative to the repository root the benchmark is run from.
const expectedPath = "benchmark/expected.json"

type options struct {
	workload string
	all      bool
	seed     uint64
	seconds  float64
	trace    int
	probes   bool
	out      string
	outDir   string
	compare  bool
	update   bool
}

// timedReps is the protocol's repetition count. Seven, not the five the
// benchmark was first specified with: the quartiles of five values are all
// but their extremes, so one slow repetition in five made -compare call
// setup_s unresolved between two runs of one commit; of seven, one on
// either side is ignored.
const timedReps = 7

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (see -all for the names)")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in its own process, both passes, then the layer probes")
	flag.Uint64Var(&o.seed, "seed", expectedSeed, "workload seed: tick jitter on the cpu workloads, YCSB/campaign seed elsewhere")
	flag.Float64Var(&o.seconds, "seconds", 0, "with -workload, for the acceptance driver: instead of 7 repetitions, repeat until this many seconds are measured (at least 3 repetitions)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end pass (tracing off), 1 = traced pass (per-layer metrics, span file)")
	flag.BoolVar(&o.probes, "probes", true, "with -trace 1: also run the workload-independent layer probes")
	flag.StringVar(&o.out, "out", "", "write the result file here")
	flag.StringVar(&o.outDir, "outdir", "benchmark/out", "directory for span files")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&o.update, "update-expected", false, "with -all at the default seed: rewrite benchmark/expected.json")
	flag.Parse()

	runtime.GOMAXPROCS(hostWorkers())
	exp.SetDefaultWorkers(hostWorkers())

	var err error
	switch {
	case o.compare:
		err = runCompare(os.Stdout, flag.Args())
	case o.all:
		err = runAll(os.Stdout, o)
	case o.workload != "":
		err = runOne(os.Stdout, o)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errRegression = fmt.Errorf("at least one metric is worse")

func runCompare(out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(args))
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	worse, unresolved := printComparison(out, compareResults(a, b))
	fmt.Fprintf(out, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return errRegression
	}
	return nil
}

// expectedFor returns the reference simulated statistics for a workload,
// which exist only at the default seed.
func expectedFor(name string, seed uint64) (map[string]uint64, error) {
	if seed != expectedSeed {
		return nil, nil
	}
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e.Workloads[name], nil
}

// runOne measures one workload in this process and ends its output with
// the one-line JSON summary the acceptance driver reads.
func runOne(out io.Writer, o options) error {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	expected, err := expectedFor(w.Name, o.seed)
	if err != nil {
		return err
	}
	p := protocol{Scale: fullScale, Seed: o.seed, Reps: timedReps, Seconds: o.seconds, Expected: expected}
	file := resultFile{Schema: schema, Host: readHostInfo(), Seed: o.seed}

	var res workloadResult
	if o.trace == 0 {
		if res, err = runEndToEnd(w, p); err != nil {
			return err
		}
	} else {
		var spans []span
		if res, spans, err = runTraced(w, p); err != nil {
			return err
		}
		if o.probes {
			values, probeSpans, err := probePass(p.Scale)
			if err != nil {
				return err
			}
			for name, v := range values {
				res.PerLayer[name] = v
			}
			spans = append(spans, rebase(probeSpans, len(spans))...)
		}
		if err := writeTrace(filepath.Join(o.outDir, "trace-"+w.Name+".json"), spans); err != nil {
			return err
		}
	}
	file.Workloads = []workloadResult{res}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return err
		}
	}
	printWorkload(out, res)
	if err := printSummaryLine(out, res, o.trace != 0); err != nil {
		return err
	}
	return res.verdict()
}

// verdict is the error a workload's result ends the process with: the
// benchmark checks its outputs, so a failed operation or a simulated
// statistic that moved is a non-zero exit, not only a line to read.
func (res workloadResult) verdict() error {
	if res.Failed != 0 || len(res.Drift) != 0 {
		return fmt.Errorf("%s: %d of %d failed, drift %v", res.Name, res.Failed, res.Attempted, res.Drift)
	}
	return nil
}

// probePass runs the layer probes under a tracer of their own and
// returns their metrics and spans.
func probePass(sc scale) (map[string]metricValue, []span, error) {
	tr := newTracer("probes")
	values, err := runProbes(sc, tr)
	if err != nil {
		return nil, nil, err
	}
	return probeMetrics(values), tr.spans, nil
}

// probeMetrics attaches units to probe values.
func probeMetrics(values map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, def := range perLayer {
		if v, ok := values[def.Name]; ok {
			out[def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	return out
}

// printSummaryLine prints, as the last line of output, the summary object
// the acceptance driver parses: the end-to-end metrics every workload has
// after the end-to-end pass, every per-layer metric after the traced one
// (0 where the workload does not touch the layer).
func printSummaryLine(out io.Writer, res workloadResult, traced bool) error {
	metrics := map[string]metricValue{}
	if traced {
		for _, def := range perLayer {
			metrics[def.Name] = metricValue{Value: res.PerLayer[def.Name].Value, Unit: def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			if def.Everywhere {
				metrics[def.Name] = metricValue{Value: res.EndToEnd[def.Name].Median, Unit: def.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(res.Drift) == 0 && res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func printWorkload(out io.Writer, res workloadResult) {
	fmt.Fprintf(out, "== %s (seed %d, %d repetitions, %d attempted, %d failed)\n", res.Name, res.Seed, res.Reps, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, def := range endToEnd {
		if s, ok := res.EndToEnd[def.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t[%.6g, %.6g]\tn=%d\n", def.Name, def.Unit, s.Median, s.Min, s.Max, s.N)
		}
	}
	printLayer(tw, res.PerLayer)
	tw.Flush()
	for _, name := range res.Drift {
		fmt.Fprintf(out, "drift: %s\n", name)
	}
	for i, t := range res.SelfTime {
		if i == 0 {
			fmt.Fprintln(out, "self time by span:")
		}
		fmt.Fprintf(out, "  %-24s n=%-6d total %9.3f ms  self %9.3f ms\n", t.Name, t.Count, float64(t.TotalNS)/1e6, float64(t.SelfNS)/1e6)
	}
}

func printLayer(tw *tabwriter.Writer, values map[string]metricValue) {
	for _, def := range perLayer {
		if v, ok := values[def.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\n", def.Name, def.Unit, v.Value)
		}
	}
}

// runAll runs the whole suite: each workload's two passes in a child
// process of its own — so peak_rss_mb is the workload's, not the suite's —
// then the layer probes, once.
func runAll(out io.Writer, o options) error {
	if o.seconds != 0 {
		return errors.New("-all runs the fixed protocol; -seconds goes with -workload")
	}
	if o.update && o.seed != expectedSeed {
		return fmt.Errorf("-update-expected needs -seed %d", expectedSeed)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.outDir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := resultFile{Schema: schema, Host: readHostInfo(), Seed: o.seed}
	if file.Host.LoadAvg1m > busyLoad {
		fmt.Fprintf(os.Stderr, "benchmark: 1-minute load average is %.2f: the host is busy, timings will be noisy\n", file.Host.LoadAvg1m)
	}
	child := func(name string, trace int) (workloadResult, error) {
		path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, trace))
		cmd := exec.Command(exe,
			"-workload", name, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(trace), "-probes=false",
			"-out", path, "-outdir", o.outDir)
		cmd.Stderr = os.Stderr
		// A child that measured but found failures or drift exits non-zero
		// after writing its result; the suite goes on and reports them all.
		runErr := cmd.Run()
		f, err := readResultFile(path)
		if err != nil {
			return workloadResult{}, fmt.Errorf("%s (trace %d): %w", name, trace, cmp.Or(runErr, err))
		}
		return f.Workloads[0], nil
	}
	for _, w := range workloads {
		res, err := child(w.Name, 0)
		if err != nil {
			return err
		}
		traced, err := child(w.Name, 1)
		if err != nil {
			return err
		}
		res.PerLayer, res.SelfTime = traced.PerLayer, traced.SelfTime
		for _, name := range traced.Drift {
			if !slices.Contains(res.Drift, name) {
				res.Drift = append(res.Drift, name)
			}
		}
		file.Workloads = append(file.Workloads, res)
		printWorkload(out, res)
	}

	var probeSpans []span
	if file.Probes, probeSpans, err = probePass(fullScale); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(o.outDir, "trace-probes.json"), probeSpans); err != nil {
		return err
	}
	fmt.Fprintln(out, "== layer probes")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	printLayer(tw, file.Probes)
	tw.Flush()

	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return err
		}
	}
	// What ends the suite with an error: any failed operation or drift —
	// except, under -update-expected, drift from the reference about to be
	// replaced. Repetitions that disagree among themselves leave no
	// statistics worth recording.
	var bad []error
	for _, w := range file.Workloads {
		if o.update {
			w.Drift = betweenReps(w.Drift)
		}
		bad = append(bad, w.verdict())
	}
	if err := errors.Join(bad...); err != nil {
		return err
	}
	if o.update {
		e := expectedFile{Seed: expectedSeed, Workloads: map[string]map[string]uint64{}}
		for _, w := range file.Workloads {
			e.Workloads[w.Name] = w.Sim
		}
		if err := writeJSON(expectedPath, e); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s; rebuild to measure against it\n", expectedPath)
	}
	return nil
}
