package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// testOptions is a small-but-real cluster: 3 shards of LC-DMR serving
// YCSB-B. Sized so the full suite stays in CI budget.
func testOptions() Options {
	return Options{
		Shards:     3,
		System:     core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
		Workload:   workload.YCSBB,
		Records:    24,
		Operations: 36,
		Seed:       7,
	}
}

func TestClusterRunAndAudit(t *testing.T) {
	res, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 36 {
		t.Fatalf("ops = %d, want 36", res.Ops)
	}
	if res.Errors != 0 || res.Corruptions != 0 {
		t.Fatalf("errors=%d corruptions=%d, want 0/0", res.Errors, res.Corruptions)
	}
	if res.LostWrites != 0 {
		t.Fatalf("lost writes = %d, want 0", res.LostWrites)
	}
	if res.AckedWrites < 24 {
		t.Fatalf("acked writes = %d, want >= 24 (the preload)", res.AckedWrites)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	var shardOps uint64
	for _, s := range res.Shards {
		shardOps += s.Ops
		if s.Halted {
			t.Fatalf("shard %d halted: %s", s.ID, s.HaltReason)
		}
		if s.Alive != 2 {
			t.Fatalf("shard %d alive = %d, want 2", s.ID, s.Alive)
		}
	}
	if shardOps != res.Ops {
		t.Fatalf("per-shard ops sum %d != total %d", shardOps, res.Ops)
	}
}

// TestClusterDeterminism pins that two identical runs produce identical
// results — the property the campaign layer's worker-count invariance
// rests on.
func TestClusterDeterminism(t *testing.T) {
	a, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("two identical runs diverged:\n%s\n%s", ja, jb)
	}
}

// TestClusterFailoverZeroLostWrites is the acceptance scenario: run a
// cluster partway, checkpoint, keep serving, then kill one shard's node
// mid-run and transfer its state (checkpoint + acked-write replay) to a
// fresh node. The run completes and the final audit observes every
// acknowledged write.
func TestClusterFailoverZeroLostWrites(t *testing.T) {
	opts := testOptions()
	opts.Operations = 60
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	const victim = 1
	if err := c.Checkpoint(victim); err != nil {
		t.Fatal(err)
	}
	// Serve some run-phase traffic past the checkpoint so the replay
	// log is non-empty, then crash-and-replace the victim.
	for c.OpsDone() < 20 {
		c.Step()
	}
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != opts.Operations {
		t.Fatalf("ops = %d, want %d", res.Ops, opts.Operations)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost %d acknowledged writes across failover", lost)
	}
	if got := c.Snapshot().Shards[victim].Failovers; got != 1 {
		t.Fatalf("victim failovers = %d, want 1", got)
	}
}

// TestClusterCheckpointRecycling checkpoints one shard four times with
// traffic in between — so the shard's two image buffers have each been
// recycled — and requires every image to equal an independent fresh
// save of the node at that moment, the restored node to equal the
// fourth image, the restored node not to alias the image it came from,
// and failover from it to lose no acknowledged write. A swapped, stale
// or aliased recycled buffer fails one of these.
func TestClusterCheckpointRecycling(t *testing.T) {
	opts := testOptions()
	opts.Operations = 80
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	const victim = 1
	sh := c.shards[victim]
	var want, prev []byte
	for k := uint64(1); k <= 4; k++ {
		for c.OpsDone() < 10*k {
			c.Step()
		}
		if err := c.Checkpoint(victim); err != nil {
			t.Fatal(err)
		}
		if want, err = snapshot.Save(sh.node); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sh.lastCkpt, want) {
			t.Fatalf("checkpoint %d differs from a fresh save of the same node", k)
		}
		if bytes.Equal(want, prev) {
			t.Fatalf("checkpoint %d equals checkpoint %d: no traffic reached the shard in between", k, k-1)
		}
		if k > 1 && &sh.spareCkpt[0] == &sh.lastCkpt[0] {
			t.Fatalf("checkpoint %d: latest and spare image share memory", k)
		}
		prev = want
	}
	if got := c.HostProfile(); got.Checkpoints != 4 || got.CheckpointNS == 0 {
		t.Fatalf("host profile counts %d checkpoints in %d ns, want 4 in > 0", got.Checkpoints, got.CheckpointNS)
	}

	node, err := c.bootNode()
	if err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(sh.lastCkpt)
	if err := snapshot.Restore(node, image); err != nil {
		t.Fatal(err)
	}
	for i := range image {
		image[i] = 0xFF // a recycled image is overwritten just like this
	}
	if resave, err := snapshot.Save(node); err != nil || !bytes.Equal(resave, want) {
		t.Fatalf("node restored from the latest image does not re-save to the fourth checkpoint (err %v)", err)
	}

	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost %d acknowledged writes after failover from a recycled image", lost)
	}
}

// TestClusterPeriodicCheckpointErrorSurfaces: a periodic checkpoint
// that fails mid-run used to be dropped, silently leaving the shard
// with a stale image. Run now returns it, and the shard still holds its
// last good image.
func TestClusterPeriodicCheckpointErrorSurfaces(t *testing.T) {
	boom := errors.New("disk on fire")
	calls := 0
	saveNode = func(buf []byte, s snapshot.Snapshotter) ([]byte, error) {
		if calls++; calls > 3 {
			return nil, boom
		}
		return snapshot.AppendSave(buf, s)
	}
	defer func() { saveNode = snapshot.AppendSave }()

	opts := testOptions()
	opts.CheckpointRounds = 5 // the run is ~35 rounds: round 5 succeeds, round 10 fails
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if !errors.Is(err, ErrCheckpoint) || !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want ErrCheckpoint wrapping the save failure", err)
	}
	if calls <= 3 {
		t.Fatalf("only %d checkpoints attempted; the failing one never ran", calls)
	}
	for _, sh := range c.shards {
		if _, err := snapshot.Parse(sh.lastCkpt); err != nil {
			t.Fatalf("shard %d lost its last good image: %v", sh.id, err)
		}
	}
}

// TestClusterFailoverWithoutCheckpoint exercises pure-replay state
// transfer: no checkpoint was ever taken, so the replacement node is
// rebuilt solely from the acked-write log.
func TestClusterFailoverWithoutCheckpoint(t *testing.T) {
	opts := testOptions()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() || c.OpsDone() < 10 {
		c.Step()
	}
	if err := c.Failover(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost %d acknowledged writes", lost)
	}
}

// TestClusterRollingFailover rolls a crash-and-replace through every
// shard in sequence — the rolling re-integration drill — with periodic
// checkpoints on, and audits at the end.
func TestClusterRollingFailover(t *testing.T) {
	opts := testOptions()
	opts.Operations = 48
	opts.CheckpointRounds = 2_000
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	for id := 0; id < opts.Shards; id++ {
		target := c.OpsDone() + 8
		for c.OpsDone() < target && !c.Done() {
			c.Step()
		}
		if err := c.Failover(id); err != nil {
			t.Fatalf("failover shard %d: %v", id, err)
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("rolling failover lost %d acknowledged writes", lost)
	}
	res := c.Snapshot()
	for _, s := range res.Shards {
		if s.Failovers != 1 {
			t.Fatalf("shard %d failovers = %d, want 1", s.ID, s.Failovers)
		}
	}
}

// TestClusterDowngradeUnderLoad drives the per-shard redundancy knob
// while the cluster serves: one TMR shard loses a stalled replica
// (masking downgrade to DMR) without stopping the run, then
// re-integrates back to TMR.
func TestClusterDowngradeUnderLoad(t *testing.T) {
	opts := testOptions()
	opts.Shards = 2
	opts.Operations = 48
	opts.System = core.Config{
		Mode: core.ModeLC, Replicas: 3, Masking: true,
		TickCycles: 50_000, BarrierTimeout: 200_000,
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	const victim = 0
	c.Node(victim).InjectStall(2)
	for i := 0; i < 4_000 && c.Node(victim).AliveCount() == 3; i++ {
		c.Step()
	}
	if got := c.Node(victim).AliveCount(); got != 2 {
		t.Fatalf("victim alive = %d, want 2 (TMR->DMR under load)", got)
	}
	// The downgraded shard keeps taking run-phase traffic.
	before := c.OpsDone()
	for i := 0; i < 4_000 && c.OpsDone() < before+8 && !c.Done(); i++ {
		c.Step()
	}
	if c.OpsDone() < before+8 && !c.Done() {
		t.Fatalf("cluster stopped serving after downgrade (ops %d)", c.OpsDone())
	}
	if err := c.Node(victim).RequestReintegrate(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6_000 && c.Node(victim).AliveCount() != 3 && !c.Done(); i++ {
		c.Step()
	}
	if got := c.Node(victim).AliveCount(); got != 3 {
		_, rerr := c.Node(victim).ReintegrateOutcome()
		t.Fatalf("victim alive after reintegrate = %d, want 3 (err %v)", got, rerr)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("downgrade run lost %d acknowledged writes", lost)
	}
	res := c.Snapshot()
	if res.Ops != opts.Operations {
		t.Fatalf("ops = %d, want %d", res.Ops, opts.Operations)
	}
	if res.Shards[victim].Detections == 0 {
		t.Fatal("victim shard recorded no detections")
	}
}

// TestClusterShardWorkerInvariance pins the tentpole contract: the
// worker count that parallelizes per-shard chunk execution (and the
// end-of-run audit) is invisible in the result — serial, adversarial
// (3 workers over 3 shards), and all-cores runs produce byte-identical
// JSON including the audit fields.
func TestClusterShardWorkerInvariance(t *testing.T) {
	var base string
	for _, workers := range []int{1, 3, 0} {
		opts := testOptions()
		opts.Operations = 48
		opts.ShardWorkers = workers
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = string(j)
		} else if string(j) != base {
			t.Fatalf("result differs at ShardWorkers=%d:\n%s\nvs workers=1:\n%s", workers, j, base)
		}
	}
}

// TestClusterPipelineAccounting pins that Pipeline=1 is bit-identical
// to the default scheduler (the K=1 accounting contract) and that a
// deeper pipeline still completes every operation with a clean audit.
func TestClusterPipelineAccounting(t *testing.T) {
	def, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Pipeline = 1
	k1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	jd, _ := json.Marshal(def)
	j1, _ := json.Marshal(k1)
	if string(jd) != string(j1) {
		t.Fatalf("Pipeline=1 differs from default:\n%s\n%s", j1, jd)
	}
	opts = testOptions()
	opts.Pipeline = 4
	k4, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if k4.Ops != opts.Operations || k4.Errors != 0 || k4.LostWrites != 0 {
		t.Fatalf("Pipeline=4: ops=%d errors=%d lost=%d", k4.Ops, k4.Errors, k4.LostWrites)
	}
}

// TestClusterHaltParityUnderPool is the mid-round failure regression:
// one DMR shard's replica stalls and the shard fail-stops (barrier
// timeout) in the middle of the run. Under the worker pool the run
// must surface exactly the serial outcome — same error, same result
// bytes, same halt reason — rather than deadlocking the round barrier.
func TestClusterHaltParityUnderPool(t *testing.T) {
	run := func(workers int) (Result, string, string) {
		opts := testOptions()
		opts.Operations = 120
		opts.System.BarrierTimeout = 200_000
		opts.RetryCycles = 200_000
		opts.MaxRetries = 2
		opts.ShardWorkers = workers
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for !c.LoadPhaseDone() {
			c.Step()
		}
		c.Node(1).InjectStall(1)
		res, err := c.Run()
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		res = c.Snapshot()
		if !res.Shards[1].Halted {
			t.Fatalf("workers=%d: victim shard did not halt", workers)
		}
		return res, errStr, res.Shards[1].HaltReason
	}
	serialRes, serialErr, serialReason := run(1)
	for _, workers := range []int{3, 0} {
		res, errStr, reason := run(workers)
		if errStr != serialErr {
			t.Fatalf("workers=%d error %q, serial %q", workers, errStr, serialErr)
		}
		if reason != serialReason {
			t.Fatalf("workers=%d halt reason %q, serial %q", workers, reason, serialReason)
		}
		js, _ := json.Marshal(serialRes)
		jp, _ := json.Marshal(res)
		if string(js) != string(jp) {
			t.Fatalf("workers=%d result differs from serial:\n%s\n%s", workers, jp, js)
		}
	}
}

// TestClusterParallelFailoverDrill runs the crash-and-replace drill —
// checkpoint rounds, mid-run failover, state-transfer replay, final
// audit — entirely under the worker pool. Run under -race in CI, it is
// the data-race witness for pump, checkpoint rounds, and the
// parallel audit coexisting with concurrent chunk execution.
func TestClusterParallelFailoverDrill(t *testing.T) {
	opts := testOptions()
	opts.Operations = 60
	opts.CheckpointRounds = 1_000
	opts.ShardWorkers = 4
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	for c.OpsDone() < 20 {
		c.Step()
	}
	if err := c.Failover(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lost, err := c.VerifyAcked()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("parallel drill lost %d acknowledged writes", lost)
	}
}

// TestClusterHotKeySkew concentrates most operations on one key and
// checks the owning shard absorbs a clear majority of the traffic —
// the imbalance signal the skew campaign reports.
func TestClusterHotKeySkew(t *testing.T) {
	opts := testOptions()
	opts.Operations = 60
	opts.HotKeyFraction = 0.9
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostWrites != 0 {
		t.Fatalf("lost writes = %d", res.LostWrites)
	}
	hot, _ := NewRingFromShards(opts.Shards, opts.VNodes).Lookup(workload.Key(0))
	var hotOps, maxOther uint64
	for _, s := range res.Shards {
		if s.ID == hot {
			hotOps = s.Ops
		} else if s.Ops > maxOther {
			maxOther = s.Ops
		}
	}
	if hotOps <= maxOther {
		t.Fatalf("hot shard %d ops %d not dominant (max other %d): %+v",
			hot, hotOps, maxOther, res.Shards)
	}
}

// TestClusterMergedMetrics checks that fleet-wide metrics aggregate
// across shards when tracing is on.
func TestClusterMergedMetrics(t *testing.T) {
	opts := testOptions()
	opts.Operations = 12
	opts.System.Trace.Enabled = true
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("no merged metrics despite tracing enabled")
	}
	if res.Metrics.Counter("syncs") == 0 {
		t.Fatal("merged syncs counter is zero")
	}
}

// TestClusterSingleShard pins the degenerate composition: one shard is
// just the single-node system behind the router.
func TestClusterSingleShard(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.Operations = 16
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 16 || res.LostWrites != 0 {
		t.Fatalf("ops=%d lost=%d", res.Ops, res.LostWrites)
	}
}

// TestClusterLostLastLoadStartsRunPhase: when the preload's last request
// ends in retry exhaustion instead of an acknowledgement (here every
// load does: the timeout is far shorter than a node's boot), the run
// phase starts at that round, not at round 0 — the load phase is not
// billed to the run's cycles and throughput.
func TestClusterLostLastLoadStartsRunPhase(t *testing.T) {
	opts := testOptions()
	opts.Records = 6
	opts.ChunkCycles = 1_000
	opts.RetryCycles, opts.MaxRetries = 1_000, 1
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		if c.Rounds() == 10 {
			t.Fatal("preload neither acknowledged nor lost")
		}
		c.Step()
	}
	res := c.Snapshot()
	if len(c.expected) != 0 || res.Errors < opts.Records {
		t.Fatalf("%d writes acknowledged, %d requests lost; want every load lost (a node answered before the timeouts?)",
			len(c.expected), res.Errors)
	}
	// The last load was lost in the fill of the round just completed.
	if res.Cycles != opts.ChunkCycles {
		t.Fatalf("run phase has consumed %d cycles one round after the last load was lost (round %d), want %d",
			res.Cycles, c.Rounds(), opts.ChunkCycles)
	}
}
