// rcoe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	rcoe-bench [-scale quick|full] [-parallel N] [-json] [-out FILE]
//	           [-list] [-no-execcache] [-no-superblock]
//	           [-cpuprofile FILE] [-memprofile FILE] [experiment ...]
//
// With no experiment IDs it runs everything in paper order. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers are simulator cycles, shapes are the reproduction target.
//
// -parallel sets the host worker count of the experiment engine (default:
// all cores). Worker count never changes results: -parallel=1 and
// -parallel=N emit byte-identical artifacts.
//
// -json emits the campaign as an rcoe-bench/v1 JSON report instead of
// text tables. -out writes the artifact (text or JSON) to a file —
// results_quick.txt and results_full.txt are regenerated this way — with
// progress on stderr. Artifacts carry no host timings, so they are
// byte-reproducible across runs and worker counts.
//
// -no-execcache disables the host-side execution cache (the data
// translation memo) and -no-superblock the superblock engine (batched
// straight-line execution and the bulk credit of idle windows); with both
// the machine steps every cycle naively. Results are bit-identical either
// way (the determinism contract); the flags exist so CI can diff artifacts
// across all four on/off combinations and so suspected accelerator drift
// can be debugged in the field.
//
// -cpuprofile/-memprofile write pprof profiles of the run (see
// "Profiling the simulator" in EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rcoe/internal/bench"
	"rcoe/internal/exp"
	"rcoe/internal/machine"
)

func main() {
	os.Exit(run())
}

func run() int {
	scaleFlag := flag.String("scale", "quick", "experiment sizing: quick or full")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	parallel := flag.Int("parallel", 0, "host workers for the experiment engine (0 = all cores)")
	jsonOut := flag.Bool("json", false, "emit an rcoe-bench/v1 JSON report instead of text tables")
	outFile := flag.String("out", "", "write the artifact to FILE (progress goes to stderr)")
	noEC := flag.Bool("no-execcache", false, "disable the host-side execution cache (the data translation memo)")
	noSB := flag.Bool("no-superblock", false, "disable the superblock engine (batched straight-line execution)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE at exit")
	flag.Parse()

	if *noEC {
		machine.SetDefaultExecCache(false)
	}
	if *noSB {
		machine.SetDefaultSuperblock(false)
	}
	exp.SetDefaultWorkers(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcoe-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rcoe-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}
	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "rcoe-bench: unknown scale %q\n", *scaleFlag)
		return 2
	}

	var selected []bench.Experiment
	if flag.NArg() == 0 {
		selected = bench.All()
	} else {
		for _, id := range flag.Args() {
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "rcoe-bench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if err := preflightOut(*outFile); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-bench: -out: %v\n", err)
		return 1
	}

	// Interactive text mode (no -json, no -out) streams each table as it
	// lands, with host timings; artifact modes keep stdout/-out clean of
	// timings so the bytes are reproducible.
	streaming := !*jsonOut && *outFile == ""
	start := time.Now()
	report := bench.BuildReport(scale, selected, func(res bench.ExperimentResult) {
		elapsed := time.Since(start).Seconds()
		start = time.Now()
		if streaming {
			fmt.Printf("=== %s (%s)\n", res.Title, res.ID)
			if res.Err != "" {
				fmt.Fprintf(os.Stderr, "rcoe-bench: %s: %s\n", res.ID, res.Err)
			} else {
				fmt.Println(res.Table)
			}
			fmt.Printf("(%s in %.1fs)\n\n", res.ID, elapsed)
			return
		}
		status := "ok"
		if res.Err != "" {
			status = "ERROR: " + res.Err
		}
		fmt.Fprintf(os.Stderr, "rcoe-bench: %s in %.1fs: %s\n", res.ID, elapsed, status)
	})

	if !streaming {
		if err := writeArtifact(report, *jsonOut, *outFile); err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-bench: %v\n", err)
			return 1
		}
	}
	if report.Failed() > 0 {
		return 1
	}
	return 0
}

// preflightOut verifies an -out path is writable before the experiments
// run, so a bad path fails in milliseconds instead of after the whole
// suite (and never leaves a half-written artifact behind).
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

// writeArtifact renders the report as JSON or text to -out (or stdout).
// Close failures surface too: a full disk at flush time must not exit 0
// behind a truncated artifact.
func writeArtifact(report *bench.Report, asJSON bool, outFile string) (err error) {
	out := os.Stdout
	if outFile != "" {
		f, cerr := os.Create(outFile)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}
	if asJSON {
		data, merr := report.MarshalIndent()
		if merr != nil {
			return merr
		}
		_, err = out.Write(data)
		return err
	}
	return report.WriteText(out)
}
