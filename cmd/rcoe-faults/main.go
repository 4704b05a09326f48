// rcoe-faults runs standalone fault-injection campaigns against the
// replicated key-value system.
//
// Usage:
//
//	rcoe-faults [-mode base|lc|cc] [-replicas N] [-arch x86|arm]
//	            [-trials N] [-burst N] [-no-trace] [-seed N] [-warm]
//	            [-parallel N] [-json] [-out FILE]
//	rcoe-faults soak [-cycles N] [-campaigns N] [-seed N] [-window N]
//	                 [-budget N] [-parallel N] [-json] [-quiet]
//	rcoe-faults taxonomy [-mode lc|cc] [-replicas N] [-arch x86|arm]
//	                     [-classes LIST] [-trials N] [-decorrelate]
//	                     [-masking] [-seed N] [-warm] [-parallel N]
//	                     [-json] [-out FILE] [-quiet]
//
// The default campaign prints a per-outcome tally in the categories of
// the paper's Tables VII/IX, with the controlled/uncontrolled split. The
// soak subcommand drives the chaos-soak campaign: randomized fault
// cycles (memory flips, register flips, injected stalls) against a
// masking TMR system, with straggler ejection and live re-integration
// after every downgrade. -campaigns N sweeps N independent campaigns
// (seeds derived from -seed) fanned across host cores.
//
// The taxonomy subcommand runs the hard-fault characterization study:
// per fault class (transient, stuck-at, burst, intermittent, device) it
// tallies trial outcomes and folds them into the dependability taxonomy —
// SDC / detected-corrected / detected-uncorrected / masked. -classes
// selects a comma-separated subset ("all" by default); -decorrelate runs
// the replicas under structurally decorrelated memory layouts. Per-class
// progress goes to stderr; stdout stays a timing-free artifact.
//
// -parallel sets the host worker count of the experiment engine; worker
// count never changes results. -json emits a structured result artifact
// on stdout (no host timings, byte-reproducible) with logs on stderr.
// -out writes the artifact (text or JSON) to a file instead; the path's
// writability is checked before the campaign runs, so a bad path fails
// immediately. -warm forks every trial from a single post-preload
// checkpoint instead of cold-booting each (see internal/faults
// warm-start docs; warm and cold campaigns sample different workload
// streams, so their tallies are not comparable to each other).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/faults"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "soak" {
		return runSoak(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "taxonomy" {
		return runTaxonomy(os.Args[2:])
	}
	return runMemCampaign(os.Args[1:])
}

// tallyCounts converts a tally's outcome map to string keys, which
// encoding/json emits in sorted order — a deterministic artifact.
func tallyCounts(t *faults.Tally) map[string]uint64 {
	counts := map[string]uint64{}
	for o, n := range t.Counts {
		counts[o.String()] = n
	}
	return counts
}

// sortedOutcomes returns the tally's outcomes in stable order for text
// output.
func sortedOutcomes(t *faults.Tally) []faults.Outcome {
	var keys []faults.Outcome
	for o := range t.Counts {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// preflightOut verifies an -out path is writable before the campaign
// runs, so a bad path fails in milliseconds instead of after the study
// (and never leaves a half-written artifact behind).
func preflightOut(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// writeArtifact writes the rendered artifact to -out, or stdout when no
// path is given. Write and close failures both surface.
func writeArtifact(path string, data []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitJSON renders v as the indented JSON artifact and writes it to -out
// (or stdout).
func emitJSON(path string, v any) int {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := writeArtifact(path, data); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: %v\n", err)
		return 1
	}
	return 0
}

func runMemCampaign(args []string) int {
	fs := flag.NewFlagSet("rcoe-faults", flag.ExitOnError)
	mode := fs.String("mode", "lc", "replication mode: base, lc or cc")
	replicas := fs.Int("replicas", 2, "replica count (1 for base, 2-3 otherwise)")
	arch := fs.String("arch", "x86", "machine profile: x86 or arm")
	trials := fs.Int("trials", 20, "number of injection trials")
	burst := fs.Int("burst", 1, "bits per injection (>1 models overclocking)")
	noTrace := fs.Bool("no-trace", false, "disable driver output traces (the -N configurations)")
	seed := fs.Uint64("seed", 1, "campaign seed")
	ops := fs.Uint64("ops", 150, "client operations per trial")
	warm := fs.Bool("warm", false, "fork trials from a post-preload checkpoint instead of cold-booting each")
	parallel := fs.Int("parallel", 0, "host workers for the experiment engine (0 = all cores)")
	jsonOut := fs.Bool("json", false, "emit a structured JSON result on stdout")
	outFile := fs.String("out", "", "write the artifact (text or JSON) to FILE")
	_ = fs.Parse(args)
	exp.SetDefaultWorkers(*parallel)

	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: %v\n", err)
		return 2
	}
	if m == core.ModeNone {
		*replicas = 1
	}
	prof, ok := machine.ProfileByName(*arch)
	if !ok {
		fmt.Fprintf(os.Stderr, "rcoe-faults: unknown arch %q\n", *arch)
		return 2
	}
	if err := preflightOut(*outFile); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: -out: %v\n", err)
		return 1
	}

	tally, err := faults.MemCampaign(faults.MemCampaignOptions{
		KV: harness.KVOptions{
			System: core.Config{
				Mode: m, Replicas: *replicas, Profile: prof,
				TickCycles:        50_000,
				ExceptionBarriers: prof.Name == "arm",
			},
			Workload:    workload.YCSBA,
			Records:     32,
			Operations:  *ops,
			TraceOutput: !*noTrace,
		},
		Trials:            *trials,
		FlipEveryCycles:   2_000,
		MaxFlips:          4_000,
		TargetAllReplicas: prof.Name == "arm",
		IncludeDMA:        true,
		Burst:             *burst,
		Seed:              *seed,
		WarmStart:         *warm,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: %v\n", err)
		return 1
	}

	if *jsonOut {
		return emitJSON(*outFile, struct {
			Schema       string            `json:"schema"`
			Mode         string            `json:"mode"`
			Replicas     int               `json:"replicas"`
			Arch         string            `json:"arch"`
			Trials       int               `json:"trials"`
			Seed         uint64            `json:"seed"`
			Warm         bool              `json:"warm"`
			Injected     uint64            `json:"injected"`
			Outcomes     map[string]uint64 `json:"outcomes"`
			Observed     uint64            `json:"observed"`
			Controlled   uint64            `json:"controlled"`
			Uncontrolled uint64            `json:"uncontrolled"`
		}{
			Schema: "rcoe-faults/mem/v1", Mode: *mode, Replicas: *replicas,
			Arch: *arch, Trials: *trials, Seed: *seed, Warm: *warm,
			Injected: tally.Injected, Outcomes: tallyCounts(tally),
			Observed: tally.Observed(), Controlled: tally.Controlled(),
			Uncontrolled: tally.Uncontrolled(),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign: %s-%d on %s, %d trials, %d bit flips\n",
		*mode, *replicas, *arch, *trials, tally.Injected)
	for _, o := range sortedOutcomes(tally) {
		fmt.Fprintf(&sb, "  %-20s %d\n", o.String(), tally.Counts[o])
	}
	fmt.Fprintf(&sb, "observed errors: %d  controlled: %d  uncontrolled: %d\n",
		tally.Observed(), tally.Controlled(), tally.Uncontrolled())
	if err := writeArtifact(*outFile, []byte(sb.String())); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults: %v\n", err)
		return 1
	}
	return 0
}

// classReport is one fault class's slice of the taxonomy artifact.
type classReport struct {
	Trials     int               `json:"trials"`
	Injected   uint64            `json:"injected"`
	Outcomes   map[string]uint64 `json:"outcomes"`
	Categories map[string]uint64 `json:"categories"`
}

func runTaxonomy(args []string) int {
	fs := flag.NewFlagSet("rcoe-faults taxonomy", flag.ExitOnError)
	mode := fs.String("mode", "lc", "replication mode: lc or cc")
	replicas := fs.Int("replicas", 3, "replica count (2-3)")
	arch := fs.String("arch", "x86", "machine profile: x86 or arm")
	classes := fs.String("classes", "all", "comma-separated fault classes (transient, stuck-at, burst, intermittent, device) or all")
	trials := fs.Int("trials", 10, "injection trials per class")
	decorrelate := fs.Bool("decorrelate", false, "run replicas under structurally decorrelated layouts")
	masking := fs.Bool("masking", true, "allow a TMR system to vote faulty replicas out")
	seed := fs.Uint64("seed", 1, "campaign seed")
	ops := fs.Uint64("ops", 150, "client operations per trial")
	warm := fs.Bool("warm", false, "fork trials from a post-preload checkpoint instead of cold-booting each")
	parallel := fs.Int("parallel", 0, "host workers for the experiment engine (0 = all cores)")
	jsonOut := fs.Bool("json", false, "emit a structured JSON result on stdout (progress on stderr)")
	outFile := fs.String("out", "", "write the artifact (text or JSON) to FILE")
	quiet := fs.Bool("quiet", false, "suppress the progress log")
	_ = fs.Parse(args)
	exp.SetDefaultWorkers(*parallel)

	m, err := core.ParseMode(*mode)
	if err != nil || m == core.ModeNone {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: unknown mode %q\n", *mode)
		return 2
	}
	prof, ok := machine.ProfileByName(*arch)
	if !ok {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: unknown arch %q\n", *arch)
		return 2
	}
	selected, err := faults.ParseClasses(*classes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: %v\n", err)
		return 2
	}
	if err := preflightOut(*outFile); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: -out: %v\n", err)
		return 1
	}

	opts := faults.HardCampaignOptions{
		KV: harness.KVOptions{
			System: core.Config{
				Mode: m, Replicas: *replicas, Profile: prof,
				Masking:           *masking && *replicas >= 3,
				Decorrelate:       *decorrelate,
				TickCycles:        50_000,
				ExceptionBarriers: prof.Name == "arm",
			},
			Workload:    workload.YCSBA,
			Records:     32,
			Operations:  *ops,
			TraceOutput: true,
		},
		Classes:           selected,
		TrialsPerClass:    *trials,
		TargetAllReplicas: prof.Name == "arm",
		Seed:              *seed,
		WarmStart:         *warm,
	}
	if !*quiet {
		opts.TrialProgress = func(class faults.FaultClass, p exp.Progress) {
			fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: %-12s trial %d/%d\n",
				class, p.Done, p.Total)
		}
		opts.Progress = func(class faults.FaultClass, done, total int) {
			fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: %-12s done (%d/%d classes, %d trials each)\n",
				class, done, total, *trials)
		}
	}
	tallies, err := faults.HardCampaign(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: %v\n", err)
		return 1
	}

	categoryCounts := func(t *faults.Tally) map[string]uint64 {
		out := map[string]uint64{}
		for c, n := range t.Categories() {
			out[c.String()] = n
		}
		return out
	}
	if *jsonOut {
		perClass := map[string]classReport{}
		total := map[string]uint64{}
		for class, t := range tallies {
			perClass[class.String()] = classReport{
				Trials: *trials, Injected: t.Injected,
				Outcomes: tallyCounts(t), Categories: categoryCounts(t),
			}
			for c, n := range t.Categories() {
				total[c.String()] += n
			}
		}
		return emitJSON(*outFile, struct {
			Schema      string                 `json:"schema"`
			Mode        string                 `json:"mode"`
			Replicas    int                    `json:"replicas"`
			Arch        string                 `json:"arch"`
			Masking     bool                   `json:"masking"`
			Decorrelate bool                   `json:"decorrelate"`
			Trials      int                    `json:"trials_per_class"`
			Seed        uint64                 `json:"seed"`
			Warm        bool                   `json:"warm"`
			Classes     map[string]classReport `json:"classes"`
			Categories  map[string]uint64      `json:"categories"`
		}{
			Schema: "rcoe-faults/taxonomy/v1", Mode: *mode, Replicas: *replicas,
			Arch: *arch, Masking: opts.KV.System.Masking, Decorrelate: *decorrelate,
			Trials: *trials, Seed: *seed, Warm: *warm,
			Classes: perClass, Categories: total,
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "taxonomy: %s-%d on %s, %d trials/class, decorrelate=%v masking=%v\n",
		*mode, *replicas, *arch, *trials, *decorrelate, opts.KV.System.Masking)
	for _, class := range selected {
		t := tallies[class]
		fmt.Fprintf(&sb, "%s (%d injections):\n", class, t.Injected)
		for _, o := range sortedOutcomes(t) {
			fmt.Fprintf(&sb, "  %-20s %-4d -> %s\n", o.String(), t.Counts[o], faults.Categorize(o))
		}
	}
	total := map[faults.Category]uint64{}
	for _, t := range tallies {
		for c, n := range t.Categories() {
			total[c] += n
		}
	}
	fmt.Fprintln(&sb, "taxonomy totals:")
	for _, c := range faults.AllCategories() {
		fmt.Fprintf(&sb, "  %-22s %d\n", c.String(), total[c])
	}
	if err := writeArtifact(*outFile, []byte(sb.String())); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-faults taxonomy: %v\n", err)
		return 1
	}
	return 0
}

func runSoak(args []string) int {
	fs := flag.NewFlagSet("rcoe-faults soak", flag.ExitOnError)
	cycles := fs.Int("cycles", 20, "fault cycles to run")
	campaigns := fs.Int("campaigns", 1, "independent campaigns to sweep in parallel")
	seed := fs.Uint64("seed", 1, "campaign seed (sweep master seed with -campaigns > 1)")
	window := fs.Uint64("window", 2_000_000, "availability window in cycles")
	budget := fs.Uint64("budget", 40_000_000, "cycle budget per fault cycle")
	parallel := fs.Int("parallel", 0, "host workers for the experiment engine (0 = all cores)")
	jsonOut := fs.Bool("json", false, "emit a structured JSON result on stdout (logs go to stderr)")
	quiet := fs.Bool("quiet", false, "suppress the per-cycle log")
	_ = fs.Parse(args)
	exp.SetDefaultWorkers(*parallel)

	opts := faults.SoakSweepOptions{
		Soak: faults.SoakOptions{
			Cycles:       *cycles,
			Seed:         *seed,
			WindowCycles: *window,
			CycleBudget:  *budget,
		},
		Campaigns: *campaigns,
	}
	if !*quiet {
		logOut := os.Stdout
		if *jsonOut {
			logOut = os.Stderr // keep stdout clean for the artifact
		}
		opts.Soak.Log = func(line string) { fmt.Fprintln(logOut, line) }
	}
	res, err := faults.SoakSweep(opts)
	if err != nil && !*jsonOut {
		if errors.Is(err, faults.ErrNoEjection) {
			fmt.Fprintf(os.Stderr, "rcoe-faults soak: straggler ejection failed: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "rcoe-faults soak: %v\n", err)
		}
		return 1
	}

	if *jsonOut {
		violations := res.Violations
		if violations == nil {
			violations = []string{}
		}
		code := emitJSON("", struct {
			Schema         string            `json:"schema"`
			Campaigns      int               `json:"campaigns"`
			CyclesEach     int               `json:"cycles_each"`
			Seed           uint64            `json:"seed"`
			Seeds          []uint64          `json:"seeds"`
			Outcomes       map[string]uint64 `json:"outcomes"`
			Ops            uint64            `json:"ops"`
			Errors         uint64            `json:"errors"`
			Corruptions    uint64            `json:"corruptions"`
			Ejections      uint64            `json:"ejections"`
			Reintegrations uint64            `json:"reintegrations"`
			Violations     []string          `json:"violations"`
			Ok             bool              `json:"ok"`
		}{
			Schema: "rcoe-faults/soak/v1", Campaigns: len(res.Campaigns),
			CyclesEach: *cycles, Seed: *seed, Seeds: res.Seeds,
			Outcomes: tallyCounts(res.Tally), Ops: res.Ops, Errors: res.Errors,
			Corruptions: res.Corruptions, Ejections: res.Ejections,
			Reintegrations: res.Reintegrations, Violations: violations, Ok: res.Ok(),
		})
		if code != 0 || err != nil || !res.Ok() {
			return 1
		}
		return 0
	}

	fmt.Printf("soak: %d campaigns x %d cycles, seed %#x\n", len(res.Campaigns), *cycles, *seed)
	for _, o := range sortedOutcomes(res.Tally) {
		fmt.Printf("  %-20s %d\n", o.String(), res.Tally.Counts[o])
	}
	fmt.Printf("client ops: %d  errors: %d  corruptions: %d\n",
		res.Ops, res.Errors, res.Corruptions)
	fmt.Printf("ejections: %d  reintegrations: %d\n", res.Ejections, res.Reintegrations)
	for ci := range res.Campaigns {
		c := &res.Campaigns[ci]
		fmt.Printf("campaign %d: windows: %d  min window: %.1f ops/Mcycle\n",
			ci, len(c.Windows), c.MinWindow)
	}
	if len(res.Campaigns) == 1 {
		fmt.Println()
		fmt.Println(res.Campaigns[0].Metrics.Table("soak metrics (cycles unless noted)"))
	}
	if !res.Ok() {
		fmt.Println("invariant violations:")
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
		for ci := range res.Campaigns {
			for _, rep := range res.Campaigns[ci].Forensics {
				fmt.Println()
				fmt.Println(rep)
			}
		}
		return 1
	}
	fmt.Println("invariants held: all outcomes controlled, client progressed in every window")
	return 0
}
