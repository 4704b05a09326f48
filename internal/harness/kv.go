// Package harness assembles complete benchmark systems: the replicated
// key-value server (kvapp) behind the simulated NIC, driven by a
// YCSB-style closed-loop client — the moral equivalent of the paper's
// Redis + lwIP stack under load from dedicated generator machines (§V-B).
package harness

import (
	"errors"
	"fmt"
	"slices"

	"rcoe/internal/core"
	"rcoe/internal/device"
	"rcoe/internal/netstack"
	"rcoe/internal/workload"
)

// NICLine is the NIC's interrupt line (line 0 is the preemption timer).
const NICLine = 1

// nicMMIOBase places the NIC register window well above RAM.
const nicMMIOBase = 0xF000_0000

// KVOptions configures a key-value benchmark run.
type KVOptions struct {
	// System is the replication configuration.
	System core.Config
	// Workload is the YCSB mix.
	Workload workload.Kind
	// Records is the preloaded record count; Operations the run-phase
	// operation count.
	Records    uint64
	Operations uint64
	// Slots is the server hash-table size (power of two, > Records).
	Slots uint64
	// TraceOutput controls FT_Add_Trace on responses (Table VII's -N
	// configurations disable it).
	TraceOutput bool
	// Window is the number of outstanding requests the client keeps in
	// flight.
	Window int
	// Seed makes the request stream deterministic.
	Seed uint64
	// MaxCycles bounds the run.
	MaxCycles uint64
	// RetryCycles is the client's retransmission timeout; requests lost
	// during a primary failover are retried like any network loss.
	RetryCycles uint64
	// RetryBackoff doubles the retransmission timeout on every retry of a
	// request (capped at 8x), so a client riding out a downgrade or
	// re-integration window does not flood the recovering server.
	RetryBackoff bool
	// MaxRetries overrides the per-request retry budget (default 5);
	// exceeding it surfaces as a client-visible error.
	MaxRetries int
	// WindowCycles, when nonzero on a system that records metrics
	// (System.Trace.Enabled), observes the completed operations of every
	// fixed-size cycle window into the kv-window-ops histogram — the
	// availability signal fault campaigns read off the snapshot.
	WindowCycles uint64
}

// KVResult reports one run's outcome.
type KVResult struct {
	// Ops is the number of completed run-phase operations and Cycles the
	// machine cycles the run phase consumed; Throughput is ops per
	// million cycles.
	Ops        uint64
	Cycles     uint64
	Throughput float64
	// Corruptions counts CRC-mismatched GET responses ("YCSB corrup"),
	// Errors other client-visible failures ("YCSB errors").
	Corruptions uint64
	Errors      uint64
	// Finished reports whether the server exited cleanly; HaltReason is
	// set when the system fail-stopped.
	Finished   bool
	HaltReason string
	Detections []core.Detection
	Stats      core.Stats
}

// KVRun is a constructed, not-yet-run benchmark system, exposed so fault
// campaigns can interpose an injector between steps. It is the degenerate
// cluster: one Node plus the closed-loop client.
type KVRun struct {
	Sys *core.System
	NIC *device.NIC
	Gen *workload.Generator

	node        *Node
	opts        KVOptions
	outstanding map[uint32]*pendingReq
	finalIDs    map[uint32]bool // last request of each run-phase op
	queue       []netstack.Request
	loadLeft    int
	opsDone     uint64
	opsSent     uint64
	startCyc    uint64
	endCyc      uint64
	winNext     uint64
	winLastOps  uint64
	res         KVResult
}

// pendingReq tracks one in-flight request for validation and retry.
type pendingReq struct {
	frame   []byte
	sentAt  uint64
	isGet   bool
	isLoad  bool
	opFinal bool
	retries int
}

// ErrClientStall is returned when the client makes no progress for an
// extended period without the system having halted (an undetected hang —
// one of the paper's uncontrolled-error outcomes).
var ErrClientStall = errors.New("harness: client stalled")

// NewKV builds the system, server program and client state.
func NewKV(opts KVOptions) (*KVRun, error) {
	if opts.Window <= 0 {
		// Deep enough that the server, not the load generator, is the
		// bottleneck (the paper verifies the same for its YCSB clients).
		opts.Window = 8
	}
	if opts.Slots == 0 {
		opts.Slots = NextPow2(opts.Records * 4)
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 2_000_000_000
	}
	totalReqs := opts.Records + opts.Operations
	if opts.Workload == workload.YCSBF {
		// Read-modify-writes issue two requests per op; over-provision
		// the server's exit budget and stop injecting when ops are done.
		totalReqs += opts.Operations
	}
	node, err := NewNode(NodeOptions{
		System:        opts.System,
		Slots:         opts.Slots,
		RequestBudget: totalReqs,
		TraceOutput:   opts.TraceOutput,
	})
	if err != nil {
		return nil, err
	}
	run := &KVRun{
		Sys:         node.Sys(),
		NIC:         node.NIC(),
		Gen:         workload.NewGenerator(opts.Workload, opts.Records, opts.Seed),
		node:        node,
		opts:        opts,
		outstanding: make(map[uint32]*pendingReq),
		finalIDs:    make(map[uint32]bool),
	}
	run.queue = append(run.queue, run.Gen.LoadRequests()...)
	run.loadLeft = len(run.queue)
	return run, nil
}

// NextPow2 returns the smallest power of two that is at least v and at
// least 64: the sizing rule for hash tables and partitions.
func NextPow2(v uint64) uint64 {
	p := uint64(64)
	for p < v {
		p <<= 1
	}
	return p
}

// fill keeps the client window full and retransmits timed-out requests.
func (r *KVRun) fill() {
	now := r.Sys.Machine().Now()
	retry := r.opts.RetryCycles
	if retry == 0 {
		retry = 4_000_000
	}
	maxRetries := r.opts.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 5
	}
	// Walk the window in request-ID order: map iteration order would make
	// the retransmit sequence — and with it the whole simulation — vary
	// from run to run whenever two requests time out in the same pass.
	ids := make([]uint32, 0, len(r.outstanding))
	for id := range r.outstanding {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := r.outstanding[id]
		timeout := retry
		if r.opts.RetryBackoff && p.retries > 0 {
			shift := p.retries
			if shift > 3 {
				shift = 3
			}
			timeout = retry << uint(shift)
		}
		if now-p.sentAt < timeout {
			continue
		}
		if p.retries >= maxRetries {
			// Persistent loss: surface as a client-visible error.
			delete(r.outstanding, id)
			r.res.Errors++
			if p.isLoad {
				r.loadLeft--
			}
			continue
		}
		p.retries++
		p.sentAt = now
		r.NIC.Inject(p.frame)
	}
	for len(r.outstanding) < r.opts.Window {
		if len(r.queue) == 0 {
			if r.loadLeft > 0 && len(r.outstanding) > 0 {
				return
			}
			if r.opsSent >= r.opts.Operations {
				return
			}
			ops := r.Gen.Next()
			r.opsSent++
			for i, req := range ops {
				if i == len(ops)-1 {
					r.finalIDs[req.ReqID] = true
				}
				r.queue = append(r.queue, req)
			}
		}
		req := r.queue[0]
		r.queue = r.queue[1:]
		frame, err := netstack.EncodeRequest(req)
		if err != nil {
			r.res.Errors++
			continue
		}
		r.outstanding[req.ReqID] = &pendingReq{
			frame:   frame,
			sentAt:  now,
			isGet:   req.Op == netstack.OpGet,
			isLoad:  uint64(req.ReqID) <= r.opts.Records,
			opFinal: r.finalIDs[req.ReqID],
		}
		delete(r.finalIDs, req.ReqID)
		r.NIC.Inject(frame)
	}
}

// drain processes responses, validating CRCs on GET values; duplicate
// responses to retransmitted requests are ignored.
func (r *KVRun) drain() {
	for _, frame := range r.NIC.TakeResponses() {
		resp, err := netstack.DecodeResponse(frame)
		if err != nil {
			r.res.Errors++
			continue
		}
		p, ok := r.outstanding[resp.ReqID]
		if !ok {
			continue // duplicate of a retried request
		}
		delete(r.outstanding, resp.ReqID)
		if p.isLoad {
			r.loadLeft--
			if r.loadLeft == 0 {
				// Run phase starts now.
				r.startCyc = r.Sys.Machine().Now()
			}
			continue
		}
		if p.isGet {
			switch {
			case resp.Status != netstack.StatusOK:
				r.res.Errors++
			case !workload.CheckValue(resp.Value):
				r.res.Corruptions++
			}
		}
		if p.opFinal {
			r.opsDone++
		}
	}
}

// Node returns the underlying server node.
func (r *KVRun) Node() *Node { return r.node }

// Done reports whether the run phase completed.
func (r *KVRun) Done() bool {
	return r.loadLeft == 0 && r.opsDone >= r.opts.Operations
}

// LoadPhaseDone reports whether the preload phase completed (every record
// inserted and acknowledged). Warm-start campaigns checkpoint here: the
// run phase beyond this point is where faults are injected.
func (r *KVRun) LoadPhaseDone() bool { return r.loadLeft == 0 }

// StepChunk advances the machine by n cycles, pumping the client.
func (r *KVRun) StepChunk(n uint64) {
	r.fill()
	r.Sys.RunCycles(n)
	r.drain()
	r.observeWindows()
}

// observeWindows feeds per-window completed-op counts into the system's
// kv-window-ops histogram. Windows start at the first run-phase op so the
// load phase does not pollute the throughput signal.
func (r *KVRun) observeWindows() {
	met := r.Sys.Metrics()
	if met == nil || r.opts.WindowCycles == 0 || r.startCyc == 0 {
		return
	}
	now := r.Sys.Machine().Now()
	if r.winNext == 0 {
		r.winNext = r.startCyc + r.opts.WindowCycles
		r.winLastOps = 0
	}
	for now >= r.winNext {
		met.KVWindowOps.Observe(r.opsDone - r.winLastOps)
		r.winLastOps = r.opsDone
		r.winNext += r.opts.WindowCycles
	}
}

// Run drives the system to completion and returns the result.
func (r *KVRun) Run() (KVResult, error) {
	m := r.Sys.Machine()
	deadline := m.Now() + r.opts.MaxCycles
	lastProgress := m.Now()
	lastOps := uint64(0)
	for !r.Done() {
		if halted, reason := r.Sys.Halted(); halted {
			r.res.HaltReason = reason
			break
		}
		if m.Now() > deadline {
			break
		}
		r.StepChunk(2_000)
		progress := r.opsDone + uint64(len(r.outstanding))
		if progress != lastOps {
			lastOps = progress
			lastProgress = m.Now()
		} else if m.Now()-lastProgress > 80_000_000 {
			r.finalize()
			return r.res, fmt.Errorf("%w after %d ops", ErrClientStall, r.opsDone)
		}
	}
	if r.Done() {
		// The run phase ends here; the drain below only lets the server
		// consume its remaining request budget and exit (it may not, for
		// mixes whose op count over-provisions the budget) and must not
		// count against throughput.
		r.endCyc = m.Now()
		_ = r.Sys.Run(20_000_000)
	}
	r.finalize()
	return r.res, nil
}

func (r *KVRun) finalize() {
	r.res.Ops = r.opsDone
	end := r.endCyc
	if end == 0 {
		end = r.Sys.Machine().Now()
	}
	r.res.Cycles, r.res.Throughput = 0, 0
	if r.startCyc > 0 && end > r.startCyc {
		r.res.Cycles = end - r.startCyc
	}
	r.res.Throughput = throughput(r.res.Ops, r.res.Cycles)
	r.res.Finished = r.Sys.Finished()
	if halted, reason := r.Sys.Halted(); halted {
		r.res.HaltReason = reason
	}
	r.res.Detections = r.Sys.Detections()
	r.res.Stats = r.Sys.Stats()
}

// throughput converts an op count over a cycle span into ops per million
// cycles. A zero-cycle span (the server halted before the run phase, or
// finalize ran before the first op) reports 0 rather than the NaN/Inf a
// bare division would produce — those poison every downstream stats
// aggregation they touch.
func throughput(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / 1e6)
}

// Snapshot returns the current result counters (fault campaigns classify
// mid-run).
func (r *KVRun) Snapshot() KVResult {
	r.finalize()
	return r.res
}

// RunKV is the one-call convenience wrapper.
func RunKV(opts KVOptions) (KVResult, error) {
	run, err := NewKV(opts)
	if err != nil {
		return KVResult{}, err
	}
	return run.Run()
}
