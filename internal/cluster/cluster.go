package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/harness"
	"rcoe/internal/metrics"
	"rcoe/internal/netstack"
	"rcoe/internal/workload"
)

// Options configures a cluster run.
type Options struct {
	// Shards is the node count; each shard is one independently
	// replicated harness.Node.
	Shards int
	// VNodes is the consistent-hash virtual-node count per shard
	// (DefaultVNodes when 0).
	VNodes int
	// System is the per-shard replication configuration (every shard
	// runs the same configuration at boot; redundancy can then be
	// changed per shard at runtime).
	System core.Config
	// Workload is the YCSB mix.
	Workload workload.Kind
	// Records is the cluster-wide preloaded record count, partitioned
	// over the shards by the ring.
	Records uint64
	// Operations is the total run-phase operation count across all
	// client streams.
	Operations uint64
	// Streams is the number of independent client streams (default:
	// one per shard). Each stream derives its own seed, so the global
	// request sequence is independent of host scheduling.
	Streams int
	// Window is the per-shard outstanding-request window (default 8).
	Window int
	// Slots is the per-shard server hash-table size (sized from
	// Records when 0).
	Slots uint64
	// TraceOutput controls FT_Add_Trace on responses.
	TraceOutput bool
	// Seed makes the whole cluster run deterministic.
	Seed uint64
	// MaxCycles bounds the run in cluster cycles (rounds x chunk).
	MaxCycles uint64
	// ChunkCycles is the lockstep round length (default 2000): each
	// round fills every shard, advances every node by this many
	// cycles, then drains every shard.
	ChunkCycles uint64
	// RetryCycles, RetryBackoff and MaxRetries are the retransmission
	// policy (harness.Retry) of every shard's window.
	RetryCycles  uint64
	RetryBackoff bool
	MaxRetries   int
	// CheckpointRounds, when nonzero, checkpoints every live shard
	// every N rounds, truncating its acked-write replay log — the
	// periodic state-transfer basis for fast failover.
	CheckpointRounds uint64
	// HotKeyFraction redirects this fraction of run-phase operations
	// to a single hot key, concentrating load on one shard (the skew
	// campaign). 0 disables.
	HotKeyFraction float64
	// ShardWorkers bounds the host goroutines that advance shard nodes
	// concurrently during the run phase of each lockstep round (and the
	// per-shard end-of-run audit). 0 selects the host core count; 1
	// reproduces fully serial execution. Fill and drain stay serialized
	// in shard-ID order at any setting, so the worker count is invisible
	// in every artifact byte.
	ShardWorkers int
	// Pipeline is the number of consecutive operations the scheduler
	// draws from one client stream per visit before moving to the next
	// stream, letting each stream keep up to Pipeline operations in
	// flight back to back. 1 (the default) is strict per-op round-robin
	// — today's behavior, with retry/backoff and opsDropped accounting
	// bit-identical.
	Pipeline int
}

// ackBudgetCycles bounds, in cluster cycles, how long a single-shard
// pump (state-transfer replay, end-of-run audit) or a whole-cluster
// stall watch may run without progress before giving up. Expressed in
// cycles — not iterations — so a non-default ChunkCycles does not
// silently change failover or audit pacing; the round count is always
// ackBudgetCycles / ChunkCycles (80M cycles = 40k rounds at the default
// 2000-cycle chunk, the budget the layer shipped with).
const ackBudgetCycles = 80_000_000

// replayBatch is how many acked writes (state transfer) or audit reads
// (VerifyAcked) are kept in flight per shard at a time. Small enough to
// fit any window, large enough to amortize the pump loop.
const replayBatch = 8

// ShardStats is one shard's slice of a cluster result.
type ShardStats struct {
	ID int `json:"id"`
	// Ops is the number of run-phase operations whose final request
	// this shard acknowledged.
	Ops uint64 `json:"ops"`
	// Responses counts every frame the shard sent back.
	Responses uint64 `json:"responses"`
	// Alive is the shard's replica count at the end of the run.
	Alive int `json:"alive"`
	// Failovers counts node replacements on this shard.
	Failovers int `json:"failovers"`
	// Detections counts the shard's recorded detection events.
	Detections int    `json:"detections"`
	Halted     bool   `json:"halted,omitempty"`
	HaltReason string `json:"halt_reason,omitempty"`
}

// Result is a cluster run's outcome.
type Result struct {
	// Ops is completed run-phase operations; Cycles the cluster cycles
	// the run phase consumed (rounds x chunk — every shard advances in
	// lockstep, so cluster time is well defined even across failovers
	// that restart a node's local clock); Throughput is fleet ops per
	// million cluster cycles.
	Ops        uint64  `json:"ops"`
	Cycles     uint64  `json:"cycles"`
	Throughput float64 `json:"throughput"`
	// Corruptions counts CRC-mismatched GET responses; Errors other
	// client-visible failures (persistent loss, server errors).
	Corruptions uint64 `json:"corruptions"`
	Errors      uint64 `json:"errors"`
	// LostWrites is the number of acknowledged writes the final
	// read-back audit could not observe (filled by VerifyAcked; the
	// failover acceptance criterion is 0).
	LostWrites uint64 `json:"lost_writes"`
	// AckedWrites is the audit population behind LostWrites.
	AckedWrites uint64       `json:"acked_writes"`
	Shards      []ShardStats `json:"shards"`
	// Metrics is the fleet-wide merged metric snapshot (only when the
	// system configuration enables tracing).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// routed is one request waiting in its shard's queue for room in the
// window, under its cluster-unique wire ID.
type routed struct {
	wire uint32
	p    *harness.Pending
}

// ackedWrite is one acknowledged SET, in acknowledgement order — the
// replay unit of shard state transfer. Key and value are views into the
// request's frame, which nothing writes once it is encoded.
type ackedWrite struct {
	key   []byte
	value []byte
}

// shard is one node, the client window over it, and the routed requests
// waiting for room in that window.
type shard struct {
	id    int
	node  *harness.Node
	win   *harness.Window
	queue []routed
	// standby is the shard's checkpoint: an idle node, booted at the first
	// checkpoint and never run, that each checkpoint copies the serving
	// node onto (harness.Node.CopyFrom, page by page). Replay the acked
	// writes on a copy of it to rebuild the shard's authoritative state.
	// A failover copies out of it and leaves it as it was, so it serves
	// any number of failovers until the next checkpoint. nil before the
	// first checkpoint, and after a copy into it was torn.
	standby *harness.Node
	// truncated is set once a checkpoint has truncated the replay log:
	// from then on the log alone no longer rebuilds the shard, and a
	// failover needs the standby.
	truncated bool
	replay    []ackedWrite
	stats     ShardStats
}

// ErrClusterStall reports a cluster making no progress without every
// shard having halted.
var ErrClusterStall = errors.New("cluster: no progress")

// ErrCheckpoint reports that a periodic (CheckpointRounds) checkpoint
// failed during the run: the shard kept its previous checkpoint, or lost
// it (ErrCheckpointLost), and a longer replay log; the run was not the one
// configured.
var ErrCheckpoint = errors.New("cluster: periodic checkpoint failed")

// ErrNoShard reports a shard ID outside [0, Shards).
var ErrNoShard = errors.New("cluster: no such shard")

// ErrCheckpointLost reports a failover of a shard whose standby was
// discarded by a torn checkpoint after an earlier checkpoint had truncated
// its replay log: neither a checkpoint nor the log reaches the
// acknowledged state. The shard's next successful checkpoint mends it.
var ErrCheckpointLost = errors.New("cluster: shard checkpoint lost")

// Cluster is a constructed, steppable sharded system.
type Cluster struct {
	opts   Options
	ring   *Ring
	shards []*shard

	streams     []*workload.Generator
	streamQuota []uint64
	streamSent  []uint64
	rrStream    int
	rrBurst     int // consecutive draws taken from rrStream this visit

	hotRng uint64
	hotKey []byte

	nextWire   uint32
	rounds     uint64
	startRound uint64
	endRound   uint64
	loadLeft   int
	opsDone    uint64
	opsDropped uint64
	// routeErrors counts requests that never reached a shard's queue;
	// every later client-visible failure is counted by a shard's window.
	routeErrors uint64
	res         Result

	// expected is the acknowledged-write ledger: the last value the
	// cluster acknowledged for each key. VerifyAcked audits it.
	expected map[string][]byte

	// prof accumulates host-side wall-clock per round phase. Host time
	// never enters a Result — it exists so scale tests and profiling
	// runs can attribute round cost to router vs node execution.
	prof HostProfile

	// pool fans the run phase and the audit out over host cores.
	pool pool
	// scratch is the transfer image buffer every checkpoint and failover
	// copy goes through (harness.Node.CopyFrom), reused across shards.
	scratch []byte
	// ckptErr is the first periodic-checkpoint failure; Run returns it.
	ckptErr error
}

// New builds the cluster: boots every shard, places them on the ring,
// seeds the client streams, and routes the preload.
func New(opts Options) (*Cluster, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.Streams <= 0 {
		opts.Streams = opts.Shards
	}
	if opts.Window <= 0 {
		opts.Window = 8
	}
	if opts.Pipeline <= 0 {
		opts.Pipeline = 1
	}
	if opts.ChunkCycles == 0 {
		opts.ChunkCycles = 2_000
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 2_000_000_000
	}
	if opts.Slots == 0 {
		// Each shard owns ~1/Shards of the keyspace, but consistent
		// hashing is not perfectly balanced; size every table for half
		// the full keyspace so no shard can overflow.
		opts.Slots = harness.NextPow2(opts.Records*2 + 64)
	}
	c := &Cluster{
		opts: opts,
		ring: NewRing(opts.VNodes),
		// The ledger holds one entry per record after preload; growing a
		// million-entry map incrementally costs more host time in drain
		// than the inserts themselves, so claim the space up front.
		expected: make(map[string][]byte, opts.Records),
		hotKey:   workload.Key(0),
	}
	for i := 0; i < opts.Shards; i++ {
		node, err := c.bootNode()
		if err != nil {
			return nil, fmt.Errorf("cluster: boot shard %d: %w", i, err)
		}
		c.shards = append(c.shards, &shard{
			id: i, node: node,
			win: harness.NewWindow(node, harness.Retry{
				Cycles: opts.RetryCycles, Backoff: opts.RetryBackoff, Max: opts.MaxRetries,
			}),
			stats: ShardStats{ID: i},
		})
		c.ring.Add(i)
	}
	// Per-stream generators over the GLOBAL keyspace; the router, not
	// the stream, decides shard placement.
	c.streamQuota = make([]uint64, opts.Streams)
	c.streamSent = make([]uint64, opts.Streams)
	for i := 0; i < opts.Streams; i++ {
		c.streams = append(c.streams,
			workload.NewGenerator(opts.Workload, opts.Records, exp.DeriveSeed(opts.Seed, i)))
		c.streamQuota[i] = opts.Operations / uint64(opts.Streams)
		if uint64(i) < opts.Operations%uint64(opts.Streams) {
			c.streamQuota[i]++
		}
	}
	if opts.HotKeyFraction > 0 {
		c.hotRng = exp.DeriveSeed(opts.Seed, opts.Streams)
	}
	// Route the preload: every record SET once, by ring placement.
	for i := uint64(0); i < opts.Records; i++ {
		c.route(netstack.Request{Op: netstack.OpSet, Key: workload.Key(i), Value: workload.Value(i, 0)},
			true, false)
	}
	c.loadLeft = int(opts.Records)
	// The preload split is now known: every one of a shard's queued
	// loads becomes a replay-log entry before the first checkpoint can
	// truncate it, so reserving that capacity here removes the
	// append-growth copies from the drain hot path at scale.
	for _, sh := range c.shards {
		sh.replay = make([]ackedWrite, 0, len(sh.queue))
	}
	return c, nil
}

// bootNode builds one shard node with the cluster's common options.
func (c *Cluster) bootNode() (*harness.Node, error) {
	return harness.NewNode(harness.NodeOptions{
		System:      c.opts.System,
		Slots:       c.opts.Slots,
		TraceOutput: c.opts.TraceOutput,
		// Serving nodes never exhaust their budget mid-run; the client,
		// not the server, decides when the run is over.
	})
}

// route assigns the request a cluster-unique wire ID, encodes it, and
// queues it on the owning shard.
func (c *Cluster) route(req netstack.Request, isLoad, opFinal bool) {
	id, ok := c.ring.Lookup(req.Key)
	if !ok {
		c.routeErrors++
		return
	}
	c.nextWire++
	req.ReqID = c.nextWire
	p, err := harness.NewPending(req, isLoad, opFinal)
	if err != nil {
		c.routeErrors++
		return
	}
	sh := c.shards[id]
	sh.queue = append(sh.queue, routed{wire: req.ReqID, p: p})
}

func (c *Cluster) hotFloat() float64 {
	x := c.hotRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.hotRng = x
	return float64(x>>11) / float64(1<<53)
}

// generate tops up the shard queues from the client streams,
// round-robin so no stream starves, bounded so a hot shard cannot grow
// its queue without limit.
func (c *Cluster) generate() {
	queueCap := c.opts.Shards * c.opts.Window * 8
	for {
		queued, unsaturated := 0, false
		for _, sh := range c.shards {
			backlog := len(sh.queue) + sh.win.Len()
			queued += len(sh.queue)
			if backlog < c.opts.Window {
				unsaturated = true
			}
		}
		if !unsaturated || queued >= queueCap {
			return
		}
		op, ok := c.nextOp()
		if !ok {
			return
		}
		for i, req := range op {
			c.route(req, false, i == len(op)-1)
		}
	}
}

// nextOp draws the next operation from the streams in round-robin
// order; ok is false when every stream has issued its quota. With
// Pipeline K > 1, up to K consecutive operations come from the same
// stream before the scheduler moves on, so a stream can pipeline K
// requests back to back; at K=1 this is strict per-op round-robin.
func (c *Cluster) nextOp() ([]netstack.Request, bool) {
	for tries := 0; tries <= len(c.streams); tries++ {
		i := c.rrStream
		if c.streamSent[i] >= c.streamQuota[i] {
			c.rrStream = (c.rrStream + 1) % len(c.streams)
			c.rrBurst = 0
			continue
		}
		c.streamSent[i]++
		c.rrBurst++
		if c.rrBurst >= c.opts.Pipeline {
			c.rrStream = (c.rrStream + 1) % len(c.streams)
			c.rrBurst = 0
		}
		op := c.streams[i].Next()
		if c.opts.HotKeyFraction > 0 && c.hotFloat() < c.opts.HotKeyFraction {
			// Redirect the whole operation to the hot key. Values stay
			// CRC-valid; only placement changes.
			for j := range op {
				op[j].Key = c.hotKey
			}
		}
		return op, true
	}
	return nil, false
}

// fill retransmits one shard's timed-out requests and tops its window up
// from its queue. A request lost to retry exhaustion is accounted for so
// the run can still end: a load retires, a final request drops its op.
func (c *Cluster) fill(sh *shard) {
	sh.win.Retransmit(func(_ uint32, p *harness.Pending) {
		if p.IsLoad {
			c.loadDone()
		} else if p.OpFinal {
			c.opsDropped++
		}
	})
	for sh.win.Len() < c.opts.Window && len(sh.queue) > 0 {
		q := sh.queue[0]
		sh.queue = sh.queue[1:]
		sh.win.Send(q.wire, q.p)
	}
}

// drain completes the requests one shard answered: an acknowledged SET
// enters the cluster ledger and the shard's replay log, in ack order.
func (c *Cluster) drain(sh *shard) {
	n := sh.win.Drain(func(p *harness.Pending, resp netstack.Response) {
		// The frame is the cluster's own encoding: it decodes.
		req, _ := netstack.DecodeRequestInPlace(p.Frame)
		if req.Op == netstack.OpSet && resp.Status == netstack.StatusOK {
			// The ledger key and both log fields alias the frame instead
			// of copying out of it — safe because a frame is never
			// written after encoding, and it matters at scale: a
			// million-record preload would otherwise allocate a million
			// string copies inside drain, and the GC assists they trigger
			// land on the router's side of the ledger.
			c.expected[unsafe.String(unsafe.SliceData(req.Key), len(req.Key))] = req.Value
			sh.replay = append(sh.replay, ackedWrite{key: req.Key, value: req.Value})
		}
		switch {
		case p.IsLoad:
			c.loadDone()
		case p.OpFinal:
			c.opsDone++
			sh.stats.Ops++
		}
	})
	sh.stats.Responses += uint64(n)
}

// loadDone retires one preload request, acknowledged or lost; the run
// phase starts with the last.
func (c *Cluster) loadDone() {
	c.loadLeft--
	if c.loadLeft == 0 {
		c.startRound = c.rounds
	}
}

// clientErrors returns the client-visible failures so far, fleet-wide.
func (c *Cluster) clientErrors() uint64 {
	n := c.routeErrors
	for _, sh := range c.shards {
		n += sh.win.Errors
	}
	return n
}

// workers returns the effective shard-worker count (0 = host cores).
func (c *Cluster) workers() int {
	if c.opts.ShardWorkers > 0 {
		return c.opts.ShardWorkers
	}
	return runtime.NumCPU()
}

// Step advances the cluster one lockstep round: fill every shard,
// advance every node by the chunk, drain every shard. Fill and drain
// run serialized in shard-ID order on the caller's goroutine — they
// own everything order-sensitive (wire IDs, the acked-write ledger,
// retry state). The chunk executions between them share nothing and
// run concurrently on up to ShardWorkers host goroutines; see pool.go
// for why that is invisible in the results. A failed periodic
// checkpoint is latched and returned by Run.
func (c *Cluster) Step() {
	t0 := time.Now()
	c.generate()
	t1 := time.Now()
	for _, sh := range c.shards {
		c.fill(sh)
	}
	t2 := time.Now()
	c.pool.run(c.workers(), len(c.shards), func(i int) {
		c.shards[i].node.RunCycles(c.opts.ChunkCycles)
	})
	t3 := time.Now()
	for _, sh := range c.shards {
		c.drain(sh)
	}
	t4 := time.Now()
	c.prof.Rounds++
	c.prof.GenerateNS += uint64(t1.Sub(t0))
	c.prof.FillNS += uint64(t2.Sub(t1))
	c.prof.RunNS += uint64(t3.Sub(t2))
	c.prof.DrainNS += uint64(t4.Sub(t3))
	c.rounds++
	if c.opts.CheckpointRounds != 0 && c.rounds%c.opts.CheckpointRounds == 0 {
		for _, sh := range c.shards {
			if halted, _ := sh.node.Halted(); halted {
				continue
			}
			if err := c.Checkpoint(sh.id); err != nil && c.ckptErr == nil {
				c.ckptErr = fmt.Errorf("%w: round %d: %w", ErrCheckpoint, c.rounds, err)
			}
		}
	}
}

// Done reports whether the run phase completed (every operation
// acknowledged or accounted for as a client-visible error).
func (c *Cluster) Done() bool {
	return c.loadLeft <= 0 && c.opsDone+c.opsDropped >= c.opts.Operations
}

// LoadPhaseDone reports whether the preload completed.
func (c *Cluster) LoadPhaseDone() bool { return c.loadLeft <= 0 }

// Node returns shard id's node (scenario drivers reach through for
// redundancy control and fault injection).
func (c *Cluster) Node(id int) *harness.Node { return c.shards[id].node }

// Rounds returns the lockstep rounds executed so far.
func (c *Cluster) Rounds() uint64 { return c.rounds }

// Ring returns the router's hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// OpsDone returns completed run-phase operations so far.
func (c *Cluster) OpsDone() uint64 { return c.opsDone }

// copyNode copies one node onto another; a variable only so a test can
// make a checkpoint fail, which no healthy node's copy does.
var copyNode = (*harness.Node).CopyFrom

// shard returns shard id, or ErrNoShard.
func (c *Cluster) shard(id int) (*shard, error) {
	if id < 0 || id >= len(c.shards) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoShard, id, len(c.shards))
	}
	return c.shards[id], nil
}

// Checkpoint copies shard id's node onto its standby, booting the standby
// at the first checkpoint, and truncates the replay log: subsequent
// failover starts from the standby and replays only the writes
// acknowledged since. A copy that fails before touching the standby keeps
// the previous checkpoint and the log; a torn one discards the standby
// (see ErrCheckpointLost).
func (c *Cluster) Checkpoint(id int) error {
	sh, err := c.shard(id)
	if err != nil {
		return err
	}
	t0 := time.Now()
	defer func() {
		c.prof.Checkpoints++
		c.prof.CheckpointNS += uint64(time.Since(t0))
	}()
	if sh.standby == nil {
		if sh.standby, err = c.bootNode(); err != nil {
			return fmt.Errorf("cluster: checkpoint shard %d: boot standby: %w", id, err)
		}
	}
	if err := copyNode(sh.standby, sh.node, &c.scratch); err != nil {
		if errors.Is(err, harness.ErrCopyTorn) {
			sh.standby = nil
		}
		return fmt.Errorf("cluster: checkpoint shard %d: %w", id, err)
	}
	sh.truncated = true
	sh.replay = sh.replay[:0]
	return nil
}

// Failover replaces shard id's node wholesale — the crash-and-replace
// path. The dead node is left as it is (callers may still read its
// counters), and anything still in its NIC is lost with it; a fresh node
// is booted, the standby (if any) is copied onto it, the acked writes since
// that checkpoint are replayed in acknowledgement order, and the shard's
// in-flight window is retransmitted. Because the ledger writes land before
// the retransmits, every acknowledged value is re-established before any
// in-flight request can observe the shard — zero acknowledged writes are
// lost. The shard keeps its ID, so the ring partition is unchanged, and
// its standby, which the copy only reads, serves the next failover too.
func (c *Cluster) Failover(id int) error {
	sh, err := c.shard(id)
	if err != nil {
		return err
	}
	if sh.standby == nil && sh.truncated {
		return fmt.Errorf("%w: shard %d", ErrCheckpointLost, id)
	}
	node, err := c.bootNode()
	if err != nil {
		return fmt.Errorf("cluster: failover shard %d: boot: %w", id, err)
	}
	if sh.standby != nil {
		if err := node.CopyFrom(sh.standby, &c.scratch); err != nil {
			return fmt.Errorf("cluster: failover shard %d: copy standby: %w", id, err)
		}
	}
	sh.node = node
	if err := c.replayAcked(sh); err != nil {
		return err
	}
	sh.win.ResendAll(node)
	sh.stats.Failovers++
	return nil
}

// replayAcked re-applies a shard's post-checkpoint acked writes to its
// (fresh or restored) node, in acknowledgement order, waiting for each
// batch to be acknowledged before the shard re-enters service.
func (c *Cluster) replayAcked(sh *shard) error {
	for start := 0; start < len(sh.replay); start += replayBatch {
		want := make(map[uint32]int, replayBatch)
		for i, w := range sh.replay[start:min(start+replayBatch, len(sh.replay))] {
			c.nextWire++
			frame, err := netstack.EncodeRequest(netstack.Request{
				Op: netstack.OpSet, ReqID: c.nextWire, Key: w.key, Value: w.value,
			})
			if err != nil {
				return fmt.Errorf("cluster: replay encode: %w", err)
			}
			want[c.nextWire] = start + i
			sh.node.InjectRetained(frame)
		}
		err := c.pump(sh, want, func(_ int, resp netstack.Response) error {
			if resp.Status != netstack.StatusOK {
				return fmt.Errorf("request %d status %d", resp.ReqID, resp.Status)
			}
			return nil
		})
		if err == nil && len(want) > 0 {
			err = fmt.Errorf("%d requests unacknowledged", len(want))
		}
		if err != nil {
			return fmt.Errorf("cluster: shard %d state transfer: %w", sh.id, err)
		}
	}
	return nil
}

// ackBudgetRounds converts the cycle budget into pump iterations at the
// configured chunk, so non-default chunk sizes keep the same cycle
// budget rather than silently scaling it.
func (c *Cluster) ackBudgetRounds() uint64 {
	return max(1, ackBudgetCycles/c.opts.ChunkCycles)
}

// pump serves a batch sent outside the shard's window (state-transfer
// writes, audit reads): it runs the node, one chunk at a time, until
// every wire ID in want has been answered or the cycle budget runs out.
// An answer leaves want and goes to got with the index want held for it;
// what is still in want on return went unanswered. Frames that do not
// decode and responses to anything else are skipped. It touches only
// this shard's node, so pumps of different shards run concurrently.
func (c *Cluster) pump(sh *shard, want map[uint32]int, got func(i int, resp netstack.Response) error) error {
	frames := make([][]byte, 0, replayBatch)
	for n := uint64(0); n < c.ackBudgetRounds() && len(want) > 0; n++ {
		sh.node.RunCycles(c.opts.ChunkCycles)
		if halted, reason := sh.node.Halted(); halted {
			return fmt.Errorf("node halted: %s", reason)
		}
		frames = sh.node.DrainResponses(frames[:0])
		for _, frame := range frames {
			resp, err := netstack.DecodeResponseInPlace(frame)
			if err != nil {
				continue
			}
			i, ok := want[resp.ReqID]
			if !ok {
				continue
			}
			delete(want, resp.ReqID)
			if err := got(i, resp); err != nil {
				return err
			}
		}
	}
	return nil
}

// auditRead is one pre-encoded audit GET: the wire ID and frame are
// assigned serially (shard-ID order) before any shard is pumped, so
// the audit's request stream is independent of host scheduling.
type auditRead struct {
	wire  uint32
	frame []byte
	key   string
}

// VerifyAcked audits the acknowledged-write ledger: every key the
// cluster ever acknowledged a write for is read back through the router
// and compared byte-for-byte against the last acknowledged value.
// Returns the number of lost or corrupted acknowledged writes (the
// failover acceptance criterion is zero) and records it in the result.
//
// The per-shard audits are embarrassingly parallel — each pumps only
// its own node and reads only its slice of the (frozen) ledger — so
// they fan out across ShardWorkers host goroutines; wire-ID assignment
// happens up front on the coordinator, and the per-shard lost counts
// and errors are folded back in shard-ID order.
func (c *Cluster) VerifyAcked() (lost uint64, err error) {
	keys := make([]string, 0, len(c.expected))
	for k := range c.expected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Group the audit by owning shard, then encode every read serially
	// so IDs are deterministic at any worker count.
	perShard := make([][]auditRead, len(c.shards))
	for _, k := range keys {
		id, ok := c.ring.Lookup([]byte(k))
		if !ok {
			return 0, errors.New("cluster: empty ring during audit")
		}
		c.nextWire++
		frame, ferr := netstack.EncodeRequest(netstack.Request{
			Op: netstack.OpGet, ReqID: c.nextWire, Key: []byte(k),
		})
		if ferr != nil {
			return 0, ferr
		}
		perShard[id] = append(perShard[id], auditRead{wire: c.nextWire, frame: frame, key: k})
	}
	lostPer := make([]uint64, len(c.shards))
	errPer := make([]error, len(c.shards))
	c.pool.run(c.workers(), len(c.shards), func(id int) {
		lostPer[id], errPer[id] = c.auditShard(c.shards[id], perShard[id])
	})
	for id := range c.shards {
		if errPer[id] != nil {
			return 0, errPer[id]
		}
		lost += lostPer[id]
	}
	c.res.LostWrites = lost
	c.res.AckedWrites = uint64(len(keys))
	return lost, nil
}

// auditShard reads one shard's audit batch back through its node,
// replayBatch reads in flight at a time, and counts lost or corrupted
// acknowledged writes. It touches only this shard's node plus read-only
// ledger entries, so audits run concurrently per shard.
func (c *Cluster) auditShard(sh *shard, reads []auditRead) (lost uint64, err error) {
	for start := 0; start < len(reads); start += replayBatch {
		want := make(map[uint32]int, replayBatch)
		for i, r := range reads[start:min(start+replayBatch, len(reads))] {
			want[r.wire] = start + i
			sh.node.InjectRetained(r.frame)
		}
		err := c.pump(sh, want, func(i int, resp netstack.Response) error {
			if resp.Status != netstack.StatusOK || string(resp.Value) != string(c.expected[reads[i].key]) {
				lost++
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("cluster: audit: shard %d: %w", sh.id, err)
		}
		// Unanswered audit reads count as lost.
		lost += uint64(len(want))
	}
	return lost, nil
}

// Run drives the cluster to completion.
func (c *Cluster) Run() (Result, error) {
	maxRounds := c.opts.MaxCycles / c.opts.ChunkCycles
	stallRounds := c.ackBudgetRounds() // the ackBudgetCycles no-progress watch
	lastProgress := c.rounds
	lastSignal := uint64(0)
	for !c.Done() {
		if c.rounds >= maxRounds {
			break
		}
		if c.allHalted() {
			break
		}
		c.Step()
		// The progress signal must be built from monotonic counters,
		// not queue/ledger lengths: in steady state a round can drain
		// exactly as many acks into the ledger as it admits from the
		// queues, the length sum cancels to the same value every round,
		// and the watch would declare a perfectly healthy cluster
		// stalled. Drained responses only ever grow, and they grow iff
		// some shard actually served something.
		signal := c.opsDone + c.opsDropped + c.clientErrors()
		for _, sh := range c.shards {
			signal += sh.stats.Responses
		}
		if signal != lastSignal {
			lastSignal = signal
			lastProgress = c.rounds
		} else if c.rounds-lastProgress > stallRounds {
			c.finalize()
			return c.res, errors.Join(fmt.Errorf("%w after %d ops", ErrClusterStall, c.opsDone), c.ckptErr)
		}
	}
	if c.Done() {
		c.endRound = c.rounds
	}
	c.finalize()
	return c.res, c.ckptErr
}

// allHalted reports whether every shard has fail-stopped.
func (c *Cluster) allHalted() bool {
	for _, sh := range c.shards {
		if halted, _ := sh.node.Halted(); !halted {
			return false
		}
	}
	return true
}

// finalize fills the result from the current state.
func (c *Cluster) finalize() {
	c.res.Ops = c.opsDone
	end := c.endRound
	if end == 0 {
		end = c.rounds
	}
	c.res.Cycles = 0
	if c.loadLeft <= 0 && end > c.startRound {
		c.res.Cycles = (end - c.startRound) * c.opts.ChunkCycles
	}
	c.res.Throughput = harness.Throughput(c.res.Ops, c.res.Cycles)
	c.res.Errors, c.res.Corruptions = c.clientErrors(), 0
	c.res.Shards = c.res.Shards[:0]
	sets := make([]*metrics.Set, 0, len(c.shards))
	for _, sh := range c.shards {
		st := sh.stats
		st.Alive = sh.node.AliveCount()
		st.Detections = len(sh.node.Detections())
		st.Halted, st.HaltReason = sh.node.Halted()
		c.res.Shards = append(c.res.Shards, st)
		c.res.Corruptions += sh.win.Corruptions
		sets = append(sets, sh.node.Metrics())
	}
	if c.opts.System.Trace.Enabled {
		snap := metrics.Merge(sets...).Snapshot(c.rounds * c.opts.ChunkCycles)
		c.res.Metrics = &snap
	}
}

// Snapshot returns the current result counters without ending the run.
func (c *Cluster) Snapshot() Result {
	c.finalize()
	return c.res
}

// Run is the one-call convenience wrapper: build, run, audit.
func Run(opts Options) (Result, error) {
	res, _, err := runProfiled(opts)
	return res, err
}

// runProfiled is Run plus the cluster's host profile.
func runProfiled(opts Options) (Result, HostProfile, error) {
	c, err := New(opts)
	if err != nil {
		return Result{}, HostProfile{}, err
	}
	res, err := c.Run()
	if err != nil {
		return res, c.prof, err
	}
	if _, err := c.VerifyAcked(); err != nil {
		return c.Snapshot(), c.prof, err
	}
	return c.Snapshot(), c.prof, nil
}
