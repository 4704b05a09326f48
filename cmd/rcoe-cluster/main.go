// rcoe-cluster drives the sharded RCoE key-value cluster: N
// independently replicated nodes behind a consistent-hash router,
// serving a multi-stream YCSB workload.
//
// Usage:
//
//	rcoe-cluster run [-shards N] [-mode base|lc|cc] [-replicas N]
//	                 [-masking] [-vnodes N] [-workload a-f] [-records N]
//	                 [-ops N] [-streams N] [-window N] [-hot F] [-seed N]
//	                 [-shard-workers N] [-pipeline K]
//	                 [-cpuprofile FILE] [-memprofile FILE]
//	                 [-json] [-out FILE]
//	rcoe-cluster bench [-shards N] [-vnodes N] [-workload a-f]
//	                   [-records N] [-ops N] [-streams N] [-seed N]
//	                   [-shard-workers N] [-pipeline K] [-parallel N]
//	                   [-cpuprofile FILE] [-memprofile FILE]
//	                   [-json] [-out FILE] [-quiet]
//	rcoe-cluster failover [-shards N] [-mode lc|cc] [-replicas N]
//	                      [-masking] [-victim N] [-kill-after N]
//	                      [-rolling] [-ckpt-rounds N] [-records N]
//	                      [-ops N] [-seed N] [-shard-workers N]
//	                      [-cpuprofile FILE] [-memprofile FILE]
//	                      [-json] [-out FILE]
//
// run executes one cluster configuration end to end (preload, run
// phase, acknowledged-write audit) and reports fleet and per-shard
// results. bench sweeps the standard configurations (base, LC-DMR,
// masking LC-TMR) over the same cluster shape, fanning rows across host
// workers — worker count never changes the artifact. failover is the
// crash-and-replace drill: it kills the victim shard's node mid-run,
// transfers state to a fresh node (checkpoint restore plus acked-write
// replay), finishes the run, and audits that no acknowledged write was
// lost; -rolling rolls the drill through every shard.
//
// -shard-workers bounds the host goroutines advancing shard nodes
// concurrently inside each lockstep round (0 = all cores, 1 = serial);
// artifacts are byte-identical at any setting. -pipeline K lets each
// client stream keep up to K operations in flight back to back instead
// of strict per-op round-robin.
//
// -json emits a structured rcoe-cluster/v1 artifact (no host timings,
// byte-reproducible); -out writes the artifact to a file, with the
// path's writability checked before the campaign runs.
// -cpuprofile/-memprofile write pprof profiles of the run (parity with
// rcoe-bench) — the way the per-round router overhead is attributed.
// run and failover also print one host-profile line on stderr: rounds,
// wall-clock per round phase, router share, and checkpoint count and
// time. Host time never enters the artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rcoe/internal/cluster"
	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			return runOne(os.Args[2:])
		case "bench":
			return runBench(os.Args[2:])
		case "failover":
			return runFailover(os.Args[2:])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: rcoe-cluster run|bench|failover [flags]")
	return 2
}

// clusterFlags registers the flags every subcommand shares and returns
// a builder that assembles cluster.Options after parsing.
func clusterFlags(fs *flag.FlagSet) func() (cluster.Options, error) {
	shards := fs.Int("shards", 4, "shard (node) count")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	wl := fs.String("workload", "b", "YCSB workload mix: a-f")
	records := fs.Uint64("records", 64, "cluster-wide preloaded records")
	ops := fs.Uint64("ops", 200, "total run-phase operations across streams")
	streams := fs.Int("streams", 0, "client streams (0 = one per shard)")
	window := fs.Int("window", 0, "per-shard outstanding window (0 = default)")
	hot := fs.Float64("hot", 0, "fraction of operations redirected to a single hot key")
	seed := fs.Uint64("seed", 1, "cluster seed")
	ckptRounds := fs.Uint64("ckpt-rounds", 0, "checkpoint every shard every N rounds (0 = off)")
	shardWorkers := fs.Int("shard-workers", 0, "host goroutines advancing shards per round (0 = all cores, 1 = serial)")
	pipeline := fs.Int("pipeline", 1, "consecutive ops drawn per client stream per scheduler visit")
	return func() (cluster.Options, error) {
		kind, err := parseWorkload(*wl)
		if err != nil {
			return cluster.Options{}, err
		}
		return cluster.Options{
			Shards: *shards, VNodes: *vnodes, Workload: kind,
			Records: *records, Operations: *ops, Streams: *streams,
			Window: *window, HotKeyFraction: *hot, Seed: *seed,
			CheckpointRounds: *ckptRounds,
			ShardWorkers:     *shardWorkers, Pipeline: *pipeline,
		}, nil
	}
}

// profileFlags registers -cpuprofile/-memprofile (parity with
// rcoe-bench) and returns start/stop hooks bracketing the campaign.
func profileFlags(fs *flag.FlagSet) (start func() error, stop func() error) {
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := fs.String("memprofile", "", "write a heap profile to FILE at exit")
	start = func() error {
		if *cpuProfile == "" {
			return nil
		}
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		return pprof.StartCPUProfile(f)
	}
	stop = func() error {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile == "" {
			return nil
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	return start, stop
}

// systemFlags registers the per-shard replication flags.
func systemFlags(fs *flag.FlagSet) func() (core.Config, error) {
	mode := fs.String("mode", "lc", "replication mode: base, lc or cc")
	replicas := fs.Int("replicas", 2, "replicas per shard (1 for base, 2-3 otherwise)")
	masking := fs.Bool("masking", false, "enable TMR->DMR masking downgrade (requires -replicas 3)")
	return func() (core.Config, error) {
		cfg := core.Config{Replicas: *replicas, TickCycles: 50_000}
		switch *mode {
		case "base":
			cfg.Mode = core.ModeNone
			cfg.Replicas = 1
		case "lc":
			cfg.Mode = core.ModeLC
		case "cc":
			cfg.Mode = core.ModeCC
		default:
			return cfg, fmt.Errorf("unknown mode %q", *mode)
		}
		cfg.Masking = *masking
		if cfg.Masking {
			cfg.BarrierTimeout = 2_000_000
		}
		return cfg, nil
	}
}

func parseWorkload(s string) (workload.Kind, error) {
	for _, k := range workload.AllKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q (want a-f)", s)
}

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

func emit(art *cluster.Artifact, jsonOut bool, outFile string) int {
	var data []byte
	if jsonOut {
		var err error
		data, err = json.MarshalIndent(art, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-cluster: %v\n", err)
			return 1
		}
		data = append(data, '\n')
	} else {
		data = []byte(renderText(art))
	}
	if err := writeArtifact(outFile, data); err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster: %v\n", err)
		return 1
	}
	return 0
}

// renderText renders the artifact as the timing-free text report.
func renderText(art *cluster.Artifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d shards (%d vnodes), YCSB-%s, %d records, %d ops, %d streams\n",
		art.Campaign, art.Shards, art.VNodes, art.Workload,
		art.Records, art.Operations, art.Streams)
	for _, row := range art.Rows {
		if row.Err != "" {
			fmt.Fprintf(&sb, "%-10s ERROR: %s\n", row.Config, row.Err)
			continue
		}
		r := row.Result
		fmt.Fprintf(&sb, "%-10s ops %-6d tput %8.2f ops/Mcycle  errors %d  corrupt %d  acked %d  lost %d\n",
			row.Config, r.Ops, r.Throughput, r.Errors, r.Corruptions,
			r.AckedWrites, r.LostWrites)
		for _, s := range r.Shards {
			fmt.Fprintf(&sb, "  shard %d: ops %-5d responses %-6d alive %d failovers %d detections %d",
				s.ID, s.Ops, s.Responses, s.Alive, s.Failovers, s.Detections)
			if s.Halted {
				fmt.Fprintf(&sb, " HALTED (%s)", s.HaltReason)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func runOne(args []string) int {
	fs := flag.NewFlagSet("rcoe-cluster run", flag.ExitOnError)
	baseFn := clusterFlags(fs)
	sysFn := systemFlags(fs)
	profStart, profStop := profileFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the rcoe-cluster/v1 JSON artifact")
	outFile := fs.String("out", "", "write the artifact (text or JSON) to FILE")
	_ = fs.Parse(args)

	opts, err := baseFn()
	if err == nil {
		opts.System, err = sysFn()
	}
	if err == nil {
		err = preflightOut(*outFile)
	}
	if err == nil {
		err = profStart()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster run: %v\n", err)
		return 2
	}
	art, err := cluster.RunArtifact(opts)
	if perr := profStop(); perr != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster run: %v\n", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster run: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rcoe-cluster run: host profile: %s\n", art.Host)
	return emit(art, *jsonOut, *outFile)
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("rcoe-cluster bench", flag.ExitOnError)
	baseFn := clusterFlags(fs)
	parallel := fs.Int("parallel", 0, "host workers for the experiment engine (0 = all cores)")
	profStart, profStop := profileFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the rcoe-cluster/v1 JSON artifact")
	outFile := fs.String("out", "", "write the artifact (text or JSON) to FILE")
	quiet := fs.Bool("quiet", false, "suppress the progress log")
	_ = fs.Parse(args)
	exp.SetDefaultWorkers(*parallel)

	opts, err := baseFn()
	if err == nil {
		err = preflightOut(*outFile)
	}
	if err == nil {
		err = profStart()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster bench: %v\n", err)
		return 2
	}
	bopts := cluster.BenchOptions{Base: opts}
	if !*quiet {
		bopts.OnProgress = func(p exp.Progress) {
			fmt.Fprintf(os.Stderr, "rcoe-cluster bench: %-8s done (%d/%d)\n", p.Name, p.Done, p.Total)
		}
	}
	art, err := cluster.Bench(bopts)
	if perr := profStop(); perr != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster bench: %v\n", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster bench: %v\n", err)
		return 1
	}
	return emit(art, *jsonOut, *outFile)
}

func runFailover(args []string) int {
	fs := flag.NewFlagSet("rcoe-cluster failover", flag.ExitOnError)
	baseFn := clusterFlags(fs)
	sysFn := systemFlags(fs)
	profStart, profStop := profileFlags(fs)
	victim := fs.Int("victim", 0, "shard to kill")
	killAfter := fs.Uint64("kill-after", 20, "kill the victim after this many completed operations")
	rolling := fs.Bool("rolling", false, "roll the drill through every shard")
	jsonOut := fs.Bool("json", false, "emit the rcoe-cluster/v1 JSON artifact")
	outFile := fs.String("out", "", "write the artifact (text or JSON) to FILE")
	_ = fs.Parse(args)

	opts, err := baseFn()
	if err == nil {
		opts.System, err = sysFn()
	}
	if err == nil {
		err = preflightOut(*outFile)
	}
	if err == nil {
		err = profStart()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster failover: %v\n", err)
		return 2
	}
	art, err := cluster.FailoverDrill(cluster.FailoverOptions{
		Base: opts, Victim: *victim, KillAfterOps: *killAfter, Rolling: *rolling,
	})
	if perr := profStop(); perr != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster failover: %v\n", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-cluster failover: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rcoe-cluster failover: host profile: %s\n", art.Host)
	code := emit(art, *jsonOut, *outFile)
	if code != 0 {
		return code
	}
	for _, row := range art.Rows {
		if row.Result.LostWrites != 0 {
			fmt.Fprintf(os.Stderr, "rcoe-cluster failover: %d acknowledged writes lost\n",
				row.Result.LostWrites)
			return 1
		}
	}
	return 0
}
