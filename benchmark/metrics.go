package main

import "regexp"

// metricDef declares one metric: its name, unit and which direction is
// better. The README's glossary says what each one means.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is how far an end-to-end metric's median may worsen, as a
	// share of the reference median, before it counts as a regression, on
	// the workload that holds it least steadily: the figure BENCHMARK.json
	// declares. -compare applies each workload's own (workloadBounds). The
	// two correctness metrics have bound 0: any increase is a regression.
	Bound float64
	// Everywhere marks the end-to-end metrics every workload reports and
	// that are never 0 — the ones BENCHMARK.json can declare.
	Everywhere bool
}

// endToEnd is what a user of the simulator sees. Host time throughout.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Everywhere: true},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Everywhere: true},
	{Name: "guest_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "rounds/s", Better: "higher", Bound: 0.25},
	{Name: "trials_per_s", Unit: "trials/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20, Everywhere: true},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "sim_drift", Unit: "count", Better: "lower"},
}

// workloadBounds is each workload's own bound on run time and the rates
// (at fixed work a rate is a constant over run_s) and on peak memory: three
// times the widest spread — interquartile range over median of ten runs of
// one commit, each with another seed — that sizing saw for that workload on
// a quiet host, rounded up to a multiple of 5 % (README, "End-to-end
// metrics"). Set-up time keeps its 25 % everywhere: the set-ups are short,
// and that is the bound the acceptance driver wants widest.
var workloadBounds = map[string]struct{ Run, RSS float64 }{
	"cpu-dense":     {Run: 0.10, RSS: 0.10},
	"cpu-trap":      {Run: 0.20, RSS: 0.10},
	"kv-node":       {Run: 0.20, RSS: 0.10},
	"cluster-serve": {Run: 0.25, RSS: 0.15},
	"campaign-warm": {Run: 0.25, RSS: 0.20},
}

// boundOn is the bound -compare holds a metric to on one workload.
func boundOn(workload string, def metricDef) float64 {
	b, ok := workloadBounds[workload]
	switch {
	case !ok || def.Bound == 0 || def.Name == "setup_s":
		return def.Bound
	case def.Name == "peak_rss_mb":
		return b.RSS
	}
	return b.Run
}

// perLayer is what the traced pass reports: layer probes plus counters
// read after each workload. A workload that does not touch a layer
// reports 0 for its counters.
var perLayer = []metricDef{
	{Name: "machine.ns_per_instr.default", Unit: "ns", Better: "lower"},
	{Name: "machine.ns_per_instr.sb", Unit: "ns", Better: "lower"},
	{Name: "machine.ns_per_instr.ec", Unit: "ns", Better: "lower"},
	{Name: "machine.ns_per_instr.naive", Unit: "ns", Better: "lower"},
	{Name: "machine.ns_per_instr.pair", Unit: "ns", Better: "lower"},
	{Name: "machine.ns_per_instr.tri", Unit: "ns", Better: "lower"},
	{Name: "machine.sb_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "machine.sb_blocks_built", Unit: "count", Better: "lower"},
	{Name: "machine.ec_decode_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "machine.ec_tlb_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "machine.ff_skipped_share", Unit: "ratio", Better: "higher"},
	{Name: "machine.sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher"},
	{Name: "core.syncs", Unit: "count", Better: "lower"},
	{Name: "core.votes", Unit: "count", Better: "lower"},
	{Name: "core.instr_per_sync", Unit: "instr", Better: "higher"},
	{Name: "core.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "core.sync_ns.tmr", Unit: "ns", Better: "lower"},
	{Name: "kernel.events", Unit: "count", Better: "lower"},
	{Name: "kernel.entry_ns", Unit: "ns", Better: "lower"},
	{Name: "vmm.exits", Unit: "count", Better: "lower"},
	{Name: "vmm.exit_ns", Unit: "ns", Better: "lower"},
	{Name: "checksum.fletcher_ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "checksum.fletcher_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "asm.assemble_us", Unit: "us", Better: "lower"},
	{Name: "compilerpass.instrument_us", Unit: "us", Better: "lower"},
	{Name: "isa.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "device.nic_inject_ns", Unit: "ns", Better: "lower"},
	{Name: "device.nic_drain_ns", Unit: "ns", Better: "lower"},
	{Name: "netstack.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "netstack.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.key_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.node_boot_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.node_serve_us_per_op", Unit: "us", Better: "lower"},
	{Name: "harness.client_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.sim_ops_per_mcycle", Unit: "ops/Mcycle", Better: "higher"},
	{Name: "cluster.generate_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "cluster.fill_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "cluster.run_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "cluster.drain_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "cluster.router_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.round_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.round_p99_us", Unit: "us", Better: "lower"},
	{Name: "cluster.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.audit_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.sim_ops_per_mcycle", Unit: "ops/Mcycle", Better: "higher"},
	{Name: "cluster.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.failover_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "bytes", Better: "lower"},
	{Name: "snapshot.sections", Unit: "count", Better: "lower"},
	{Name: "snapshot.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "faults.template_ms", Unit: "ms", Better: "lower"},
	{Name: "faults.warm_trial_ms", Unit: "ms", Better: "lower"},
	{Name: "faults.cold_trial_ms", Unit: "ms", Better: "lower"},
	{Name: "faults.warm_speedup", Unit: "ratio", Better: "higher"},
	{Name: "exp.job_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "exp.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "trace.on_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "host.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return len(s) <= 64 && nameRE.MatchString(s) }
