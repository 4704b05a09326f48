// rcoe-snap saves, restores and inspects checkpoint files of the
// replicated KV benchmark system.
//
// Usage:
//
//	rcoe-snap save -o FILE [-mode base|lc|cc] [-replicas N] [-arch x86|arm]
//	               [-records N] [-ops N] [-seed N] [-decorrelate]
//	               [-cycles N]
//	rcoe-snap restore FILE [scenario flags] [-run] [-o FILE2]
//	rcoe-snap info FILE
//	rcoe-snap diff FILE1 FILE2
//
// save builds the KV scenario, simulates it through boot and the preload
// phase (or exactly -cycles cycles when nonzero), and writes the
// serialized state. restore rebuilds the same scenario — the scenario
// flags must match the ones used at save time, a mismatch is rejected
// with a field-level error — loads the checkpoint into it, and optionally
// continues the workload to completion (-run) or re-serializes the
// restored state (-o), whose bytes are identical to the input file. info
// lists the file's sections; diff compares two files section by section
// and exits nonzero when they differ.
package main

import (
	"flag"
	"fmt"
	"os"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "save":
		return runSave(args[1:])
	case "restore":
		return runRestore(args[1:])
	case "info":
		return runInfo(args[1:])
	case "diff":
		return runDiff(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "rcoe-snap: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rcoe-snap save -o FILE [-mode base|lc|cc] [-replicas N] [-arch x86|arm]
                 [-records N] [-ops N] [-seed N] [-decorrelate] [-cycles N]
  rcoe-snap restore FILE [scenario flags] [-run] [-o FILE2]
  rcoe-snap info FILE
  rcoe-snap diff FILE1 FILE2`)
}

// scenario holds the KV benchmark configuration shared by save and
// restore. Restore targets must be built with the same scenario the
// checkpoint was saved from; the harness verifies this field by field.
type scenario struct {
	mode        *string
	replicas    *int
	arch        *string
	records     *uint64
	ops         *uint64
	seed        *uint64
	decorrelate *bool
}

func scenarioFlags(fs *flag.FlagSet) *scenario {
	return &scenario{
		mode:        fs.String("mode", "lc", "replication mode: base, lc or cc"),
		replicas:    fs.Int("replicas", 2, "replica count (1 for base, 2-3 otherwise)"),
		arch:        fs.String("arch", "x86", "machine profile: x86 or arm"),
		records:     fs.Uint64("records", 64, "preloaded record count"),
		ops:         fs.Uint64("ops", 200, "run-phase client operations"),
		seed:        fs.Uint64("seed", 1, "workload seed"),
		decorrelate: fs.Bool("decorrelate", false, "structurally decorrelated replica layouts"),
	}
}

func (s *scenario) build() (*harness.KVRun, error) {
	var m core.Mode
	switch *s.mode {
	case "base":
		m = core.ModeNone
		*s.replicas = 1
	case "lc":
		m = core.ModeLC
	case "cc":
		m = core.ModeCC
	default:
		return nil, fmt.Errorf("unknown mode %q", *s.mode)
	}
	var prof machine.Profile
	switch *s.arch {
	case "x86":
		prof = machine.X86()
	case "arm":
		prof = machine.Arm()
	default:
		return nil, fmt.Errorf("unknown arch %q", *s.arch)
	}
	return harness.NewKV(harness.KVOptions{
		System: core.Config{
			Mode: m, Replicas: *s.replicas, Profile: prof,
			TickCycles:        50_000,
			ExceptionBarriers: prof.Name == "arm",
			Decorrelate:       *s.decorrelate,
			LayoutSeed:        *s.seed | 1,
		},
		Workload:    workload.YCSBA,
		Records:     *s.records,
		Operations:  *s.ops,
		TraceOutput: true,
		Seed:        *s.seed | 1,
	})
}

func runSave(args []string) int {
	fs := flag.NewFlagSet("rcoe-snap save", flag.ExitOnError)
	out := fs.String("o", "state.snap", "output checkpoint file")
	cycles := fs.Uint64("cycles", 0, "simulate exactly N cycles before saving (0: through the preload phase)")
	sc := scenarioFlags(fs)
	_ = fs.Parse(args)

	run, err := sc.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 2
	}
	m := run.Sys.Machine()
	// The save point is the end of the preload, or with -cycles N exactly
	// cycle N: whole steps while one fits, then the remainder in one.
	const step, budget = 25_000, 2_000_000_000
	ready := run.LoadPhaseDone
	if *cycles > 0 {
		ready = func() bool { return *cycles-m.Now() < step }
	}
	stop, reason := harness.StopCallback, ""
	if !ready() {
		stop, reason = run.Drive(step, budget, ready)
	}
	if rest := *cycles - m.Now(); stop == harness.StopCallback && *cycles > 0 && rest > 0 {
		stop, reason = run.Drive(rest, budget, func() bool { return true })
	}
	switch stop {
	case harness.StopHalted:
		fmt.Fprintf(os.Stderr, "rcoe-snap: system fail-stopped before the save point: %s\n", reason)
		return 1
	case harness.StopBudget:
		fmt.Fprintln(os.Stderr, "rcoe-snap: save point not reached within the cycle budget")
		return 1
	}
	data, err := snapshot.Save(run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	snap, _ := snapshot.Parse(data)
	fmt.Printf("saved %s: %d bytes, %d sections, cycle %d\n",
		*out, len(data), len(snap.Sections()), m.Now())
	return 0
}

func runRestore(args []string) int {
	fs := flag.NewFlagSet("rcoe-snap restore", flag.ExitOnError)
	cont := fs.Bool("run", false, "continue the workload to completion after restoring")
	out := fs.String("o", "", "re-serialize the restored state to FILE2 (round-trip check)")
	sc := scenarioFlags(fs)
	if len(args) < 1 || len(args[0]) == 0 || args[0][0] == '-' {
		fmt.Fprintln(os.Stderr, "rcoe-snap restore: missing checkpoint file")
		return 2
	}
	path := args[0]
	_ = fs.Parse(args[1:])

	run, err := sc.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 2
	}
	if err := snapshot.RestoreFile(path, run); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	fmt.Printf("restored %s at cycle %d\n", path, run.Sys.Machine().Now())
	if *out != "" {
		if err := snapshot.SaveFile(*out, run); err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
			return 1
		}
		fmt.Printf("re-serialized to %s\n", *out)
	}
	if *cont {
		res, err := run.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-snap: run: %v\n", err)
			return 1
		}
		fmt.Printf("run complete: ops=%d cycles=%d corruptions=%d errors=%d finished=%v\n",
			res.Ops, res.Cycles, res.Corruptions, res.Errors, res.Finished)
		if res.HaltReason != "" {
			fmt.Printf("halt reason: %s\n", res.HaltReason)
		}
	}
	return 0
}

func runInfo(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "rcoe-snap info: expected exactly one checkpoint file")
		return 2
	}
	snap, err := snapshot.LoadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	total := 0
	for _, s := range snap.Sections() {
		total += len(s.Data)
	}
	fmt.Printf("%s: format v%d, %d sections, %d payload bytes\n",
		args[0], snapshot.Version, len(snap.Sections()), total)
	for _, s := range snap.Sections() {
		fmt.Printf("  %-12s %8d bytes\n", s.Name, len(s.Data))
	}
	return 0
}

func runDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "rcoe-snap diff: expected exactly two checkpoint files")
		return 2
	}
	a, err := snapshot.LoadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	b, err := snapshot.LoadFile(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-snap: %v\n", err)
		return 1
	}
	diffs := snapshot.Diff(a, b)
	if len(diffs) == 0 {
		fmt.Println("snapshots identical")
		return 0
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	return 1
}
