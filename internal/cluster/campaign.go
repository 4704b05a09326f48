package cluster

import (
	"context"
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/exp"
)

// Schema identifies the JSON artifact format rcoe-cluster emits. Like
// every artifact in the repo it carries no host timings, so serial and
// parallel runs produce byte-identical bytes.
const Schema = "rcoe-cluster/v1"

// Row is one configuration's outcome in a cluster artifact.
type Row struct {
	Config string `json:"config"`
	Seed   uint64 `json:"seed"`
	Result Result `json:"result"`
	Err    string `json:"err,omitempty"`
}

// Artifact is the structured result of a cluster campaign.
type Artifact struct {
	Schema     string `json:"schema"`
	Campaign   string `json:"campaign"`
	Shards     int    `json:"shards"`
	VNodes     int    `json:"vnodes"`
	Workload   string `json:"workload"`
	Records    uint64 `json:"records"`
	Operations uint64 `json:"operations"`
	Streams    int    `json:"streams"`
	Seed       uint64 `json:"seed"`
	Rows       []Row  `json:"rows"`
	// Host is the host-side wall-clock profile of a single-cluster
	// campaign (run, failover), for the CLI's stderr. Never serialized:
	// the artifact stays timing-free.
	Host HostProfile `json:"-"`
}

// BenchConfig names one per-shard replication configuration of a bench
// sweep.
type BenchConfig struct {
	Name   string
	System core.Config
}

// DefaultBenchConfigs is the standard sweep: the unreplicated baseline
// against LC-DMR and masking LC-TMR, the paper's main comparison at
// cluster scale.
func DefaultBenchConfigs() []BenchConfig {
	return []BenchConfig{
		{Name: "base", System: core.Config{Mode: core.ModeNone, Replicas: 1, TickCycles: 50_000}},
		{Name: "LC-DMR", System: core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000}},
		{Name: "LC-TMR", System: core.Config{
			Mode: core.ModeLC, Replicas: 3, Masking: true,
			TickCycles: 50_000, BarrierTimeout: 2_000_000,
		}},
	}
}

// BenchOptions configures a cluster bench sweep.
type BenchOptions struct {
	// Base carries the cluster shape (shards, workload, records,
	// operations, seed, ...); each row overrides Base.System.
	Base Options
	// Configs are the rows (DefaultBenchConfigs when empty).
	Configs []BenchConfig
	// OnProgress, when set, receives per-row completion events.
	OnProgress func(exp.Progress)
}

// Bench runs one cluster per configuration, fanned across host workers
// by the experiment engine; per-row seeds derive from the base seed and
// the row index, so worker count never changes the artifact.
func Bench(opts BenchOptions) (*Artifact, error) {
	configs := opts.Configs
	if len(configs) == 0 {
		configs = DefaultBenchConfigs()
	}
	jobs := make([]exp.Job[Result], len(configs))
	for i, cfg := range configs {
		sys := cfg.System
		jobs[i] = exp.Job[Result]{
			Name: cfg.Name,
			Run: func(ctx context.Context, seed uint64) (Result, error) {
				o := opts.Base
				o.System = sys
				o.Seed = seed
				return Run(o)
			},
		}
	}
	results, err := exp.Run(exp.Options{
		MasterSeed: opts.Base.Seed,
		OnProgress: opts.OnProgress,
	}, jobs)
	if err != nil {
		return nil, err
	}
	art := newArtifact("bench", opts.Base)
	for _, r := range results {
		row := Row{Config: r.Name, Seed: r.Seed, Result: r.Value}
		if r.Err != nil {
			row.Err = r.Err.Error()
		}
		art.Rows = append(art.Rows, row)
	}
	return art, nil
}

// FailoverOptions configures the failover drill.
type FailoverOptions struct {
	// Base carries the full cluster configuration.
	Base Options
	// Victim is the shard to kill (ignored under Rolling).
	Victim int
	// KillAfterOps kills the victim once this many run-phase operations
	// have completed.
	KillAfterOps uint64
	// Rolling kills and replaces every shard in sequence instead of a
	// single victim, KillAfterOps operations apart.
	Rolling bool
}

// FailoverDrill runs one cluster, crash-and-replaces the victim shard
// (or every shard, rolling) mid-run, completes the run, and audits the
// acknowledged-write ledger. The drill passes when LostWrites is zero.
func FailoverDrill(opts FailoverOptions) (*Artifact, error) {
	c, err := New(opts.Base)
	if err != nil {
		return nil, err
	}
	for !c.LoadPhaseDone() && !c.Done() {
		c.Step()
	}
	victims := []int{opts.Victim}
	if opts.Rolling {
		victims = victims[:0]
		for i := 0; i < opts.Base.Shards; i++ {
			victims = append(victims, i)
		}
	}
	for _, v := range victims {
		if v < 0 || v >= opts.Base.Shards {
			return nil, fmt.Errorf("cluster: victim shard %d out of range", v)
		}
		target := c.OpsDone() + opts.KillAfterOps
		for c.OpsDone() < target && !c.Done() {
			c.Step()
		}
		if err := c.Failover(v); err != nil {
			return nil, err
		}
	}
	res, err := c.Run()
	if err != nil {
		return nil, err
	}
	if _, err := c.VerifyAcked(); err != nil {
		return nil, err
	}
	res = c.Snapshot()
	art := newArtifact("failover", opts.Base)
	name := fmt.Sprintf("kill-shard-%d", opts.Victim)
	if opts.Rolling {
		name = "rolling"
	}
	art.Rows = append(art.Rows, Row{Config: name, Seed: opts.Base.Seed, Result: res})
	art.Host = c.HostProfile()
	return art, nil
}

// RunArtifact wraps a single cluster run in the artifact envelope.
func RunArtifact(opts Options) (*Artifact, error) {
	res, host, err := runProfiled(opts)
	if err != nil {
		return nil, err
	}
	art := newArtifact("run", opts)
	art.Rows = append(art.Rows, Row{Config: opts.System.Mode.String(), Seed: opts.Seed, Result: res})
	art.Host = host
	return art, nil
}

func newArtifact(campaign string, base Options) *Artifact {
	vnodes := base.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	streams := base.Streams
	if streams <= 0 {
		streams = base.Shards
	}
	return &Artifact{
		Schema: Schema, Campaign: campaign,
		Shards: base.Shards, VNodes: vnodes,
		Workload: base.Workload.String(),
		Records:  base.Records, Operations: base.Operations,
		Streams: streams, Seed: base.Seed,
		Rows: []Row{},
	}
}
