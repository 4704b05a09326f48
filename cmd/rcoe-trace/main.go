// rcoe-trace records, dumps, diffs and summarizes flight-recorder traces.
//
// Usage:
//
//	rcoe-trace record [-o FILE] [-mode lc|cc] [-replicas N] [-events N]
//	                  [-ops N] [-flip R]
//	rcoe-trace dump FILE [-ring N|sys] [-last N]
//	rcoe-trace diff FILE
//	rcoe-trace summary FILE
//	rcoe-trace replay [-mode lc|cc] [-replicas N] [-ops N] [-flip R]
//	                  [-events N] [-replay-events N] [-every N] [-o FILE]
//
// record runs a syscall-heavy replicated workload with the flight
// recorder on and saves the trace file. With -flip R it corrupts a live
// register of replica R mid-run, producing a diverged trace pair (on a
// masking TMR system the replica is voted out and the frozen
// divergence-report trace is what gets saved). diff aligns the replica
// streams by logical time and prints the first-divergence report; dump
// lists raw events; summary prints per-ring totals and per-kind counts.
// replay reproduces a detected divergence from its last periodic
// checkpoint with the flight recorder at full verbosity (see replay.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"rcoe/internal/asm"
	"rcoe/internal/core"
	"rcoe/internal/kernel"
	"rcoe/internal/stats"
	"rcoe/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	switch os.Args[1] {
	case "record":
		return runRecord(os.Args[2:])
	case "dump":
		return runDump(os.Args[2:])
	case "diff":
		return runDiff(os.Args[2:])
	case "summary":
		return runSummary(os.Args[2:])
	case "replay":
		return runReplay(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "rcoe-trace: unknown subcommand %q\n", os.Args[1])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rcoe-trace record [-o FILE] [-mode lc|cc] [-replicas N] [-events N] [-ops N] [-flip R]
  rcoe-trace dump FILE [-ring N|sys] [-last N]
  rcoe-trace diff FILE
  rcoe-trace summary FILE
  rcoe-trace replay [-mode lc|cc] [-replicas N] [-ops N] [-flip R] [-events N]
                    [-replay-events N] [-every N] [-o FILE]`)
}

// syscallLoop builds a guest program of n null syscalls — one comparable
// trace event per iteration, the densest forensic substrate.
func syscallLoop(n uint64) (kernel.ProcessConfig, error) {
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, n)
	b.Label("loop")
	b.Syscall(kernel.SysNull)
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "loop")
	b.Li(1, 0)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		return kernel.ProcessConfig{}, err
	}
	return kernel.ProcessConfig{Prog: prog, DataBytes: 1 << 16}, nil
}

func runRecord(args []string) int {
	fs := flag.NewFlagSet("rcoe-trace record", flag.ExitOnError)
	out := fs.String("o", "trace.trc", "output trace file")
	mode := fs.String("mode", "lc", "replication mode: lc or cc")
	replicas := fs.Int("replicas", 3, "replica count")
	events := fs.Int("events", 2048, "ring capacity in events")
	ops := fs.Uint64("ops", 60_000, "syscalls the workload performs")
	flip := fs.Int("flip", -1, "replica whose loop register to corrupt mid-run (-1: clean run)")
	_ = fs.Parse(args)

	m, err := core.ParseMode(*mode)
	if err != nil || m == core.ModeNone {
		fmt.Fprintf(os.Stderr, "rcoe-trace: unknown mode %q\n", *mode)
		return 2
	}
	cfg := core.Config{
		Mode: m, Replicas: *replicas, TickCycles: 20_000,
		Sig: core.SigArgs, Masking: *replicas >= 3, BarrierTimeout: 300_000,
		Trace: core.TraceConfig{Enabled: true, RingEvents: *events},
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: %v\n", err)
		return 1
	}
	proc, err := syscallLoop(*ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: %v\n", err)
		return 1
	}
	if err := sys.Load(proc); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: %v\n", err)
		return 1
	}

	rec := sys.TraceRecorder()
	if *flip >= 0 {
		if *flip >= *replicas {
			fmt.Fprintf(os.Stderr, "rcoe-trace: no replica %d to flip\n", *flip)
			return 2
		}
		sys.RunCycles(100_000)
		// Flip the workload's loop counter until the divergence is
		// detected (a flip can land while the value is dead and be
		// silently overwritten).
		for i := 0; i < 50 && sys.AliveCount() == *replicas; i++ {
			if halted, _ := sys.Halted(); halted {
				break
			}
			sys.Replica(*flip).Core().Regs[5] ^= 1
			sys.RunCycles(600_000)
		}
		if rep := sys.TakeDivergenceReport(); rep != nil {
			fmt.Println(rep)
			fmt.Println()
			rec = rep.Trace
		} else if halted, reason := sys.Halted(); halted {
			fmt.Printf("system fail-stopped: %s\n", reason)
		} else {
			fmt.Println("flip was never detected (masked/dead value); saving the live trace")
		}
	} else {
		if err := sys.Run(4_000_000_000); err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-trace: run: %v\n", err)
			return 1
		}
	}

	if err := rec.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: save: %v\n", err)
		return 1
	}
	total := uint64(0)
	for rid := 0; rid < rec.NumReplicas(); rid++ {
		total += rec.Ring(rid).Total()
	}
	fmt.Printf("saved %s: %d replica rings + system ring, %d replica events (%d system)\n",
		*out, rec.NumReplicas(), total, rec.System().Total())
	return 0
}

// loadArg parses "subcmd FILE [flags]" argument lists.
func loadArg(fs *flag.FlagSet, args []string) (*trace.Recorder, int) {
	if len(args) < 1 || len(args[0]) == 0 || args[0][0] == '-' {
		fmt.Fprintf(os.Stderr, "rcoe-trace %s: missing trace file\n", fs.Name())
		return nil, 2
	}
	_ = fs.Parse(args[1:])
	rec, err := trace.LoadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: %v\n", err)
		return nil, 1
	}
	return rec, 0
}

func runDump(args []string) int {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	ringSel := fs.String("ring", "", "ring to dump: replica number or \"sys\" (default: all)")
	last := fs.Int("last", 0, "only the newest N events per ring (0: all retained)")
	rec, code := loadArg(fs, args)
	if rec == nil {
		return code
	}
	dumpRing := func(name string, r *trace.Ring) {
		fmt.Printf("%s: %d recorded, %d retained, %d dropped\n", name, r.Total(), r.Len(), r.Dropped())
		first := 0
		if *last > 0 && r.Len() > *last {
			first = r.Len() - *last
		}
		for i := first; i < r.Len(); i++ {
			fmt.Printf("  %s\n", r.At(i))
		}
	}
	switch *ringSel {
	case "":
		for rid := 0; rid < rec.NumReplicas(); rid++ {
			dumpRing(fmt.Sprintf("replica %d", rid), rec.Ring(rid))
		}
		dumpRing("system", rec.System())
	case "sys":
		dumpRing("system", rec.System())
	default:
		rid, err := strconv.Atoi(*ringSel)
		if err != nil || rid < 0 || rid >= rec.NumReplicas() {
			fmt.Fprintf(os.Stderr, "rcoe-trace dump: no ring %q\n", *ringSel)
			return 2
		}
		dumpRing(fmt.Sprintf("replica %d", rid), rec.Ring(rid))
	}
	return 0
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	context := fs.Int("context", 3, "agreed events to show before the divergence")
	rec, code := loadArg(fs, args)
	if rec == nil {
		return code
	}
	streams := rec.Streams()
	d := trace.FirstDivergence(streams)
	fmt.Println(d)
	if !d.Found {
		return 0
	}
	if *context > 0 && d.Index > 0 {
		// Walk replica 0's comparable stream back from the divergence
		// point to show the agreed run-up.
		evs := comparableOf(streams[0])
		at := 0
		for at < len(evs) && evs[at].LC < d.LC {
			at++
		}
		lo := at - *context
		if lo < 0 {
			lo = 0
		}
		if lo < at {
			fmt.Printf("\nlast %d agreed events (replica 0's copy):\n", at-lo)
			for _, ev := range evs[lo:at] {
				fmt.Printf("  %s\n", ev)
			}
		}
	}
	return 1 // diff semantics: nonzero exit when the streams differ
}

func comparableOf(stream []trace.Event) []trace.Event {
	out := stream[:0:0]
	for _, ev := range stream {
		if ev.Kind.Comparable() {
			out = append(out, ev)
		}
	}
	return out
}

func runSummary(args []string) int {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	rec, code := loadArg(fs, args)
	if rec == nil {
		return code
	}
	kinds := []trace.Kind{
		trace.KindSyscall, trace.KindTick, trace.KindUserFault, trace.KindFinish,
		trace.KindBarrierJoin, trace.KindBarrierRelease, trace.KindCatchUpStep,
		trace.KindBarrierOpen, trace.KindVote, trace.KindIRQRoute,
		trace.KindEject, trace.KindReintegrate,
	}
	tbl := stats.NewTable("trace summary",
		append([]string{"ring", "recorded", "retained", "dropped", "lc-span"},
			kindNames(kinds)...)...)
	addRing := func(name string, r *trace.Ring) {
		counts := map[trace.Kind]int{}
		var lcMin, lcMax uint64
		for i := 0; i < r.Len(); i++ {
			ev := r.At(i)
			counts[ev.Kind]++
			if i == 0 || ev.LC < lcMin {
				lcMin = ev.LC
			}
			if ev.LC > lcMax {
				lcMax = ev.LC
			}
		}
		span := "-"
		if r.Len() > 0 {
			span = fmt.Sprintf("%d..%d", lcMin, lcMax)
		}
		row := []string{name, fmt.Sprint(r.Total()), fmt.Sprint(r.Len()),
			fmt.Sprint(r.Dropped()), span}
		for _, k := range kinds {
			row = append(row, fmt.Sprint(counts[k]))
		}
		tbl.AddRow(row...)
	}
	for rid := 0; rid < rec.NumReplicas(); rid++ {
		addRing(fmt.Sprintf("replica %d", rid), rec.Ring(rid))
	}
	addRing("system", rec.System())
	fmt.Println(tbl)
	return 0
}

func kindNames(kinds []trace.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}
