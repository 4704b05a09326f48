package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"rcoe/internal/cluster"
	"rcoe/internal/core"
	"rcoe/internal/faults"
	"rcoe/internal/guest"
	"rcoe/internal/harness"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
	"rcoe/internal/vmm"
	"rcoe/internal/workload"

	"rcoe"
)

// scale fixes the amount of work of every workload. The benchmark runs
// fullScale; tinyScale exists so the package's tests drive the same code
// in a fraction of a second. Work is a count, never a duration, so the
// simulated statistics of a repetition are identical on every run.
type scale struct {
	DenseLoops int64

	RaceThreads         int
	RaceIters, RaceIdle int64
	ArmLoops            int64
	SplashReps          int
	SplashOuter         int64

	KVRecords, KVOps uint64

	ClusterShards                               int
	ClusterRecords, ClusterOps, CheckpointEvery uint64

	CampRecords, CampOps   uint64
	CampTrials, CampFlips  int
	CampFlipEvery          uint64
	ProbeLoops, ProbeSyncs int64
	ProbeOps               uint64
	ProbeTrials            int
}

var fullScale = scale{
	// Not larger: Dhrystone(2_000_000) under this configuration fail-stops
	// with a barrier-timeout when replica 0 exits (see README, known limits).
	DenseLoops: 1_000_000,

	RaceThreads: 16, RaceIters: 2000, RaceIdle: 40,
	ArmLoops:   200_000,
	SplashReps: 5, SplashOuter: 60,

	KVRecords: 2000, KVOps: 60_000,

	ClusterShards: 4, ClusterRecords: 8000, ClusterOps: 60_000, CheckpointEvery: 4000,

	CampRecords: 1000, CampOps: 200, CampTrials: 200, CampFlips: 200, CampFlipEvery: 20_000,

	ProbeLoops: 100_000, ProbeSyncs: 100_000, ProbeOps: 6000, ProbeTrials: 24,
}

var tinyScale = scale{
	DenseLoops: 3000,

	RaceThreads: 4, RaceIters: 40, RaceIdle: 10,
	ArmLoops:   800,
	SplashReps: 1, SplashOuter: 3,

	KVRecords: 40, KVOps: 150,

	ClusterShards: 2, ClusterRecords: 60, ClusterOps: 200, CheckpointEvery: 40,

	CampRecords: 32, CampOps: 20, CampTrials: 4, CampFlips: 20, CampFlipEvery: 20_000,

	ProbeLoops: 1500, ProbeSyncs: 1500, ProbeOps: 60, ProbeTrials: 2,
}

// hostWorkers is the parallelism every workload uses — GOMAXPROCS, the
// cluster's shard workers and the campaign's trial workers alike — so a
// result does not depend on how many cores the host happens to expose
// beyond the second.
func hostWorkers() int { return min(runtime.NumCPU(), 2) }

// rep is what one repetition of a workload reports.
type rep struct {
	// SetupS is the host time until the timed phase could start; RunS that
	// of the timed phase itself.
	SetupS, RunS float64
	// Work done in the timed phase; a unit the workload does not have
	// stays 0.
	Instr, Ops, Rounds, Trials uint64
	// Attempted and Failed count the workload's operations: whole runs on
	// the cpu workloads, KV operations, campaign trials.
	Attempted, Failed uint64
	// Sim holds simulated statistics: a change that only speeds the
	// simulator up must leave every one identical (expected.json).
	Sim map[string]uint64
	// Counters holds the simulator's host-side diagnostics (superblock,
	// exec-cache, fast-forward): deterministic, so identical between
	// repetitions, but free to move when an accelerator is rewritten.
	Counters map[string]uint64
	// Layer holds host timings of single layers read off this repetition.
	Layer map[string]float64
	// Mem is the Go runtime's allocation and GC activity over the
	// repetition.
	Mem memDelta
}

func newRep() rep {
	return rep{Sim: map[string]uint64{}, Counters: map[string]uint64{}, Layer: map[string]float64{}}
}

// observe folds one finished system's counters into the repetition.
func (r *rep) observe(sys *core.System) {
	m := sys.Machine()
	st, sb, ec := sys.Stats(), m.SuperblockStats(), m.ExecCacheStats()
	r.Sim["cycles"] += m.Now()
	r.Sim["instructions"] += sb.Instrs
	r.Sim["syncs"] += st.Syncs
	r.Sim["votes"] += st.Votes
	r.Sim["vm_exits"] += st.VMExits
	for rid := 0; rid < sys.NumReplicas(); rid++ {
		r.Sim["kernel_events"] += sys.Replica(rid).K.EventCount()
	}
	r.Counters["sb_blocks"] += sb.Blocks
	r.Counters["sb_block_instrs"] += sb.BlockInstrs
	r.Counters["ec_decode_hits"] += ec.DecodeHits.Value()
	r.Counters["ec_decode_misses"] += ec.DecodeMisses.Value()
	r.Counters["ec_tlb_hits"] += ec.TLBHits.Value()
	r.Counters["ec_tlb_misses"] += ec.TLBMisses.Value()
	r.Counters["ff_skipped"] += m.FastForwarded()
}

// instructions sums the guest instructions retired on every replica core.
func instructions(sys *core.System) uint64 { return sys.Machine().SuperblockStats().Instrs }

func seconds(since time.Time) float64 { return time.Since(since).Seconds() }

// A workloadFunc runs one repetition on a fresh system. tr is nil on the
// end-to-end pass.
type workloadFunc func(sc scale, seed uint64, tr *tracer) (rep, error)

type workloadDef struct {
	Name string
	// Why is the reason the workload exists: the layers it loads that the
	// others do not.
	Why string
	Run workloadFunc
}

var workloads = []workloadDef{
	{"cpu-dense", "Dhrystone LC-DMR: one sync per ~20k instr, so the machine layer's batched superblock path does nearly all the work", cpuDense},
	{"cpu-trap", "DataRace CC-DMR + Arm SigSync Dhrystone + SPLASH in a VM: batches refuse constantly, so the per-instruction path, core trap/sync/vote, kernel entries and VM exits dominate", cpuTrap},
	{"kv-node", "single-node YCSB-A over NIC, netstack, kernel IRQs and syscalls, with more than one sync per op: the basis of every fault campaign", kvNode},
	{"cluster-serve", "4-shard YCSB-B with checkpoints, one failover and the acked-write audit: ring routing, batched fill/drain, the fork-join pool, snapshot save and restore+replay", clusterServe},
	{"campaign-warm", "warm-start memory-fault campaign: snapshot load per trial plus the experiment engine's fan-out, the read side of the state layer", campaignWarm},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Every repetition's spans sit under a set-up or a run span, so the
// traced pass can tell the timed phase's calls from the rest.
const (
	phaseSetup = "setup"
	phaseRun   = "run"
)

// sliceCycles is how far one System.RunCycles call advances a cpu
// workload: long enough that slicing costs nothing, short enough that the
// traced pass shows progress as a series of spans.
const sliceCycles = 4_000_000

// runToEnd drives a finite guest program to completion in slices and
// reports whether it finished cleanly.
func runToEnd(sys *core.System, tr *tracer) bool {
	const budget = 6_000_000_000
	start := sys.Machine().Now()
	for !sys.Finished() {
		if halted, _ := sys.Halted(); halted || sys.Machine().Now()-start > budget {
			return false
		}
		id := tr.begin("System.RunCycles")
		sys.RunCycles(sliceCycles)
		tr.end(id)
	}
	return true
}

// shortSetups is how often a workload repeats a set-up that is a single
// call of a few milliseconds: one such call is at the mercy of a single
// interrupt or collection, the median of three is not.
const shortSetups = 3

// medianSetup sets up n times and returns the last result with the median
// of the n times, in seconds. Like a repetition (measurer.measure), each
// try starts from a collected heap with freed memory back at the OS, so
// an earlier try's garbage — or, in cpu-trap, the previous system — is not
// resident when the next is built. Left to the pacer and the scavenger,
// how many dead systems were, and with them peak_rss_mb, varied by 40 %
// from run to run.
func medianSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var v T
	times := make([]float64, n)
	for i := range times {
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		times[i] = seconds(t0)
	}
	return v, median(times), nil
}

// cpuRun builds one system (setup, the median of builds tries), runs it to
// the end (timed) and folds it into r. check, when set, validates the
// program's output.
func cpuRun(r *rep, tr *tracer, builds int, build func() (*core.System, error), check func(*core.System) bool) error {
	id := tr.begin(phaseSetup)
	sys, setupS, err := medianSetup(builds, build)
	tr.end(id)
	if err != nil {
		return err
	}
	r.SetupS += setupS
	t1 := time.Now()
	id = tr.begin(phaseRun)
	ok := runToEnd(sys, tr)
	tr.end(id)
	r.RunS += seconds(t1)
	r.Attempted++
	if !ok || (check != nil && !check(sys)) {
		r.Failed++
	}
	r.observe(sys)
	r.Counters["timed_cycles"] += sys.Machine().Now()
	return nil
}

func cpuDense(sc scale, seed uint64, tr *tracer) (rep, error) {
	r := newRep()
	err := cpuRun(&r, tr, shortSetups, func() (*core.System, error) {
		id := tr.begin("rcoe.BuildSystem")
		defer tr.end(id)
		return rcoe.BuildSystem(core.Config{
			Mode: core.ModeLC, Replicas: 2, TickCycles: 20_000 + seed%997,
		}, guest.Dhrystone(sc.DenseLoops))
	}, nil)
	r.Instr = r.Sim["instructions"]
	return r, err
}

// quickSplash is the Table IV quick set: CHOLESKY, LU-C, RADIOSITY,
// RAYTRACE — two breakpoint-heavy kernels and two straight-line ones.
var quickSplash = []int{1, 4, 8, 10}

// trapTick is how the seed reaches cpu-trap: it lengthens each preemption
// tick by a whole number of cycles, 0.25 % at most — seed%6 on 2 000,
// seed%13 on 5 000, seed%76 on 30 000, so two seeds less than 2 964 apart
// differ in at least one of the three. Closely-coupled runs pay so much per
// tick that the work is steeply sensitive to its length — DataRace at tick
// 2 050 takes a quarter fewer cycles than at 2 000 — so cpu-dense's
// seed % 997 would make the amount of work, not just the interleaving,
// depend on the seed.
func trapTick(tick, seed uint64) uint64 { return tick + seed%(tick/400+1) }

func cpuTrap(sc scale, seed uint64, tr *tracer) (rep, error) {
	r := newRep()
	build := func(cfg core.Config, p guest.Program) func() (*core.System, error) {
		return func() (*core.System, error) {
			id := tr.begin("rcoe.BuildSystem")
			defer tr.end(id)
			return rcoe.BuildSystem(cfg, p)
		}
	}
	// The racy counter must come out the same on both replicas: that is
	// what closely-coupled execution buys.
	sameCounter := func(sys *core.System) bool {
		a, errA := sys.Replica(0).K.CopyFromUser(kernel.DataVA, 8)
		b, errB := sys.Replica(1).K.CopyFromUser(kernel.DataVA, 8)
		return errA == nil && errB == nil && string(a) == string(b)
	}
	if err := cpuRun(&r, tr, 1, build(
		core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: trapTick(2000, seed)},
		guest.DataRace(sc.RaceThreads, sc.RaceIters, sc.RaceIdle)), sameCounter); err != nil {
		return r, err
	}
	if err := cpuRun(&r, tr, 1, build(
		core.Config{Mode: core.ModeCC, Replicas: 2, Profile: machine.Arm(), Sig: core.SigSync, TickCycles: trapTick(5000, seed)},
		guest.Dhrystone(sc.ArmLoops)), nil); err != nil {
		return r, err
	}
	suite := guest.SplashSuite()
	for i := 0; i < sc.SplashReps; i++ {
		for _, k := range quickSplash {
			kern := suite[k]
			kern.Outer = sc.SplashOuter
			err := cpuRun(&r, tr, 1, func() (*core.System, error) {
				id := tr.begin("vmm.Launch")
				defer tr.end(id)
				vm, err := vmm.Launch(vmm.GuestConfig{
					System:  core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: trapTick(30_000, seed)},
					Program: kern.Program(2),
				})
				if err != nil {
					return nil, err
				}
				return vm.System(), nil
			}, nil)
			if err != nil {
				return r, err
			}
		}
	}
	r.Instr = r.Sim["instructions"]
	return r, nil
}

func kvOptions(sc scale, seed uint64) harness.KVOptions {
	return harness.KVOptions{
		System:      core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 60_000},
		Workload:    workload.YCSBA,
		Records:     sc.KVRecords,
		Operations:  sc.KVOps,
		TraceOutput: true,
		Seed:        seed,
	}
}

// kvChunk is the single-node client's pump period (KVRun.Run's own).
const kvChunk = 2000

// pumpKV steps a KV run until done() or the run can make no more
// progress.
func pumpKV(run *harness.KVRun, tr *tracer, done func() bool) {
	m := run.Sys.Machine()
	deadline := m.Now() + 2_000_000_000
	for !done() && m.Now() < deadline {
		if halted, _ := run.Sys.Halted(); halted {
			return
		}
		id := tr.begin("KVRun.StepChunk")
		run.StepChunk(kvChunk)
		tr.end(id)
	}
}

// kvFailed counts the operations of a KV run that did not complete
// correctly.
func kvFailed(res harness.KVResult, want uint64) uint64 {
	return res.Errors + res.Corruptions + (want - min(res.Ops, want))
}

func kvNode(sc scale, seed uint64, tr *tracer) (rep, error) {
	r := newRep()
	t0 := time.Now()
	setup := tr.begin(phaseSetup)
	id := tr.begin("harness.NewKV")
	run, err := harness.NewKV(kvOptions(sc, seed))
	tr.end(id)
	if err != nil {
		return r, err
	}
	pumpKV(run, tr, run.LoadPhaseDone)
	tr.end(setup)
	r.SetupS = seconds(t0)
	baseInstr, baseCycles := instructions(run.Sys), run.Sys.Machine().Now()

	t1 := time.Now()
	id = tr.begin(phaseRun)
	pumpKV(run, tr, run.Done)
	tr.end(id)
	r.RunS = seconds(t1)

	res := run.Snapshot()
	r.Ops, r.Instr = res.Ops, instructions(run.Sys)-baseInstr
	r.Counters["timed_cycles"] = run.Sys.Machine().Now() - baseCycles
	r.Layer["harness.sim_ops_per_mcycle"] = res.Throughput
	r.Attempted, r.Failed = sc.KVOps, kvFailed(res, sc.KVOps)
	r.observe(run.Sys)
	r.Sim["run_cycles"] = res.Cycles
	r.Sim["ops"] = res.Ops
	r.Sim["ops_per_gcycle"] = perGcycle(res.Ops, res.Cycles)
	return r, nil
}

// perGcycle is simulated throughput as an integer (operations per 10^9
// cycles), so it compares exactly.
func perGcycle(ops, cycles uint64) uint64 {
	if cycles == 0 {
		return 0
	}
	return uint64(math.Round(float64(ops) / float64(cycles) * 1e9))
}

func clusterOptions(sc scale, seed uint64) cluster.Options {
	return cluster.Options{
		Shards:       sc.ClusterShards,
		System:       core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
		Workload:     workload.YCSBB,
		Records:      sc.ClusterRecords,
		Operations:   sc.ClusterOps,
		TraceOutput:  true,
		Seed:         seed,
		ChunkCycles:  2000,
		ShardWorkers: hostWorkers(),
	}
}

// failedShard is the shard the cluster workload kills half way through.
const failedShard = 1

func clusterServe(sc scale, seed uint64, tr *tracer) (rep, error) {
	r := newRep()
	opts := clusterOptions(sc, seed)
	t0 := time.Now()
	setup := tr.begin(phaseSetup)
	id := tr.begin("cluster.New")
	c, err := cluster.New(opts)
	tr.end(id)
	r.Layer["cluster.new_ms"] = seconds(t0) * 1e3
	if err != nil {
		return r, err
	}
	step := func() {
		id := tr.begin("Cluster.Step")
		c.Step()
		tr.end(id)
	}
	// 80M cycles without the phase ending is the cluster's own stall budget.
	maxRounds := c.Rounds() + 2_000_000_000/opts.ChunkCycles
	for !c.LoadPhaseDone() && c.Rounds() < maxRounds {
		step()
	}
	tr.end(setup)
	r.SetupS = seconds(t0)

	nodeInstr := func(i int) uint64 { return instructions(c.Node(i).Sys()) }
	var base uint64
	for i := 0; i < sc.ClusterShards; i++ {
		base += nodeInstr(i)
	}
	profBase, roundBase := c.HostProfile(), c.Rounds()

	t1 := time.Now()
	run := tr.begin(phaseRun)
	var (
		ckptMS, failMS []float64
		// ckptInstr is the failed shard's instruction count inside its last
		// checkpoint: the replacement node restores it, so it must not be
		// counted twice.
		ckptInstr, lostInstr uint64
		dead                 []*harness.Node
	)
	for !c.Done() && c.Rounds() < maxRounds {
		step()
		if c.Rounds()%sc.CheckpointEvery == 0 {
			for i := 0; i < sc.ClusterShards; i++ {
				tc := time.Now()
				id := tr.begin("Cluster.Checkpoint")
				err := c.Checkpoint(i)
				tr.end(id)
				ckptMS = append(ckptMS, seconds(tc)*1e3)
				if err != nil {
					return r, err
				}
			}
			ckptInstr = nodeInstr(failedShard)
		}
		if len(dead) == 0 && c.OpsDone() >= sc.ClusterOps/2 {
			old := c.Node(failedShard)
			dead = append(dead, old)
			lostInstr = instructions(old.Sys()) - ckptInstr
			tf := time.Now()
			id := tr.begin("Cluster.Failover")
			err := c.Failover(failedShard)
			tr.end(id)
			failMS = append(failMS, seconds(tf)*1e3)
			if err != nil {
				return r, err
			}
		}
	}
	ta := time.Now()
	id = tr.begin("Cluster.VerifyAcked")
	_, err = c.VerifyAcked()
	tr.end(id)
	tr.end(run)
	r.Layer["cluster.audit_ms"] = seconds(ta) * 1e3
	r.RunS = seconds(t1)
	if err != nil {
		return r, err
	}

	res := c.Snapshot()
	r.Ops, r.Rounds = res.Ops, c.Rounds()-roundBase
	r.Attempted = sc.ClusterOps
	r.Failed = res.Errors + res.Corruptions + res.LostWrites + (sc.ClusterOps - min(res.Ops, sc.ClusterOps))
	for i := 0; i < sc.ClusterShards; i++ {
		r.observe(c.Node(i).Sys())
	}
	// The dead node's work since its last checkpoint was really executed;
	// everything before it is inside the replacement's restored counters.
	r.Sim["instructions"] += lostInstr
	for _, n := range dead {
		sb := n.Sys().Machine().SuperblockStats()
		r.Counters["sb_block_instrs"] += sb.BlockInstrs
		r.Counters["sb_blocks"] += sb.Blocks
	}
	r.Instr = r.Sim["instructions"] - base
	r.Counters["timed_cycles"] = r.Rounds * opts.ChunkCycles * uint64(sc.ClusterShards)
	r.Layer["cluster.sim_ops_per_mcycle"] = res.Throughput
	r.Sim["rounds"] = c.Rounds()
	r.Sim["run_cycles"] = res.Cycles
	r.Sim["ops"] = res.Ops
	r.Sim["ops_per_gcycle"] = perGcycle(res.Ops, res.Cycles)
	r.Sim["acked_writes"] = res.AckedWrites
	r.Sim["failovers"] = uint64(len(dead))
	r.Sim["result_hash"] = jsonHash(res)

	prof := c.HostProfile()
	rounds := float64(prof.Rounds - profBase.Rounds)
	if rounds > 0 {
		r.Layer["cluster.generate_ns_per_round"] = float64(prof.GenerateNS-profBase.GenerateNS) / rounds
		r.Layer["cluster.fill_ns_per_round"] = float64(prof.FillNS-profBase.FillNS) / rounds
		r.Layer["cluster.run_ns_per_round"] = float64(prof.RunNS-profBase.RunNS) / rounds
		r.Layer["cluster.drain_ns_per_round"] = float64(prof.DrainNS-profBase.DrainNS) / rounds
	}
	timed := cluster.HostProfile{
		GenerateNS: prof.GenerateNS - profBase.GenerateNS, FillNS: prof.FillNS - profBase.FillNS,
		RunNS: prof.RunNS - profBase.RunNS, DrainNS: prof.DrainNS - profBase.DrainNS,
	}
	r.Layer["cluster.router_share"] = timed.RouterShare()
	r.Layer["cluster.checkpoint_ms"] = median(ckptMS)
	r.Layer["cluster.failover_ms"] = median(failMS)
	return r, nil
}

// jsonHash folds a value's JSON encoding into 48 bits (exact in any JSON
// reader's float64).
func jsonHash(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8]) >> 16
}

func campaignOptions(sc scale, seed uint64) faults.MemCampaignOptions {
	return faults.MemCampaignOptions{
		KV: harness.KVOptions{
			System:      core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
			Workload:    workload.YCSBA,
			Records:     sc.CampRecords,
			Operations:  sc.CampOps,
			TraceOutput: true,
		},
		Trials:          sc.CampTrials,
		FlipEveryCycles: sc.CampFlipEvery,
		MaxFlips:        sc.CampFlips,
		IncludeDMA:      true,
		Seed:            seed,
		WarmStart:       true,
		Workers:         hostWorkers(),
	}
}

func campaignWarm(sc scale, seed uint64, tr *tracer) (rep, error) {
	r := newRep()
	opts := campaignOptions(sc, seed)
	setup := tr.begin(phaseSetup)
	tmpl, setupS, err := medianSetup(shortSetups, func() ([]byte, error) {
		id := tr.begin("faults.WarmTemplate")
		defer tr.end(id)
		return faults.WarmTemplate(opts.KV, opts.Seed)
	})
	tr.end(setup)
	if err != nil {
		return r, err
	}
	r.SetupS, opts.Template = setupS, tmpl

	t1 := time.Now()
	run := tr.begin(phaseRun)
	id := tr.begin("faults.MemCampaign")
	tally, err := faults.MemCampaign(opts)
	tr.end(id)
	tr.end(run)
	r.RunS = seconds(t1)
	r.Attempted = uint64(sc.CampTrials)
	if err != nil {
		// The engine reports the first failing trial; without the tally
		// the whole campaign counts as failed.
		r.Failed = r.Attempted
		return r, nil
	}
	var classified uint64
	for o, n := range tally.Counts {
		r.Sim["outcome."+o.String()] = n
		classified += n
	}
	r.Trials = classified
	r.Failed = r.Attempted - min(classified, r.Attempted)
	r.Sim["injected"] = tally.Injected
	r.Sim["template_bytes"] = uint64(len(tmpl))
	if tr != nil {
		if err := traceFork(tr, opts.KV, opts.Seed, tmpl); err != nil {
			return r, err
		}
	}
	return r, nil
}

// traceFork forks one trial from the template by hand, outside the timed
// phase, so the trace shows what MemCampaign pays per trial inside its
// single span: a node boot, a parse, a load.
func traceFork(tr *tracer, kv harness.KVOptions, campaignSeed uint64, tmpl []byte) error {
	// A warm campaign pins the workload seed to the campaign seed with its
	// low bit set (faults/warmstart.go); LoadState refuses any other.
	kv.Seed = campaignSeed | 1
	fork := tr.begin("trial-fork")
	defer tr.end(fork)
	id := tr.begin("harness.NewKV")
	run, err := harness.NewKV(kv)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("snapshot.Parse")
	snap, err := snapshot.Parse(tmpl)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("campaign-warm: template: %w", err)
	}
	id = tr.begin("KVRun.LoadState")
	err = run.LoadState(snap)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("campaign-warm: fork from template: %w", err)
	}
	return nil
}
