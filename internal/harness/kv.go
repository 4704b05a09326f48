// Package harness assembles complete benchmark systems: the replicated
// key-value server (kvapp) behind the simulated NIC, driven by a
// YCSB-style closed-loop client — the moral equivalent of the paper's
// Redis + lwIP stack under load from dedicated generator machines (§V-B).
//
// Node is one booted server. Window is the closed-loop client's request
// window over a Node — the one implementation of retransmission and of
// response validation, shared with every shard of internal/cluster. KVRun
// is the single-node client: one Node behind one Window plus the YCSB
// request stream, and Drive, the step loop under Run, the fault campaigns
// and rcoe-snap.
package harness

import (
	"errors"
	"fmt"

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
	// RetryCycles, RetryBackoff and MaxRetries are the client's
	// retransmission policy (see Retry). Requests lost during a primary
	// failover are retried like any network loss; backoff keeps a client
	// riding out a downgrade or re-integration window from flooding the
	// recovering server.
	RetryCycles  uint64
	RetryBackoff bool
	MaxRetries   int
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
// cluster: one Node behind one Window, plus the request stream — the
// generator, the queue of requests not yet sent and the phase counters.
type KVRun struct {
	Sys *core.System
	NIC *device.NIC
	Gen *workload.Generator

	node       *Node
	win        *Window
	opts       KVOptions
	finalIDs   map[uint32]bool // last request of each run-phase op
	queue      []netstack.Request
	loadLeft   int
	opsDone    uint64
	opsSent    uint64
	startCyc   uint64
	endCyc     uint64
	winNext    uint64
	winLastOps uint64
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
		Sys:      node.Sys(),
		NIC:      node.NIC(),
		Gen:      workload.NewGenerator(opts.Workload, opts.Records, opts.Seed),
		node:     node,
		win:      NewWindow(node, Retry{Cycles: opts.RetryCycles, Backoff: opts.RetryBackoff, Max: opts.MaxRetries}),
		opts:     opts,
		finalIDs: make(map[uint32]bool),
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

// fill retransmits timed-out requests and keeps the client window full.
func (r *KVRun) fill() {
	r.win.Retransmit(func(_ uint32, p *Pending) {
		if p.IsLoad {
			r.loadDone()
		}
	})
	for r.win.Len() < r.opts.Window {
		if len(r.queue) == 0 {
			if r.loadLeft > 0 && r.win.Len() > 0 {
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
		p, err := NewPending(req, uint64(req.ReqID) <= r.opts.Records, r.finalIDs[req.ReqID])
		if err != nil {
			r.win.Errors++
			continue
		}
		delete(r.finalIDs, req.ReqID)
		r.win.Send(req.ReqID, p)
	}
}

// drain completes the requests whose responses arrived.
func (r *KVRun) drain() {
	r.win.Drain(func(p *Pending, _ netstack.Response) {
		switch {
		case p.IsLoad:
			r.loadDone()
		case p.OpFinal:
			r.opsDone++
		}
	})
}

// loadDone retires one preload request, acknowledged or lost; the run
// phase starts with the last.
func (r *KVRun) loadDone() {
	r.loadLeft--
	if r.loadLeft == 0 {
		r.startCyc = r.node.Now()
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

// Stop says why Drive returned.
type Stop int

const (
	StopDone     Stop = iota // the run phase completed
	StopHalted               // the system fail-stopped; Drive also returns the reason
	StopBudget               // the cycle budget ran out
	StopCallback             // the per-step callback asked to stop
)

// Drive steps the run, step cycles at a time, until the run phase is
// done, the system has halted, more than budget cycles have passed since
// the call, or after — called once every step has been pumped — returns
// true. It is the loop under Run, every fault campaign and rcoe-snap;
// what a caller injects, samples or waits for goes in after.
func (r *KVRun) Drive(step, budget uint64, after func() bool) (Stop, string) {
	deadline := r.node.Now() + budget
	for !r.Done() {
		if halted, reason := r.Sys.Halted(); halted {
			return StopHalted, reason
		}
		if r.node.Now() > deadline {
			return StopBudget, ""
		}
		r.StepChunk(step)
		if after() {
			return StopCallback, ""
		}
	}
	return StopDone, ""
}

// Run drives the system to completion and returns the result.
func (r *KVRun) Run() (KVResult, error) {
	lastProgress, lastOps := r.node.Now(), uint64(0)
	stop, _ := r.Drive(2_000, r.opts.MaxCycles, func() bool {
		progress := r.opsDone + uint64(r.win.Len())
		if progress != lastOps {
			lastOps, lastProgress = progress, r.node.Now()
			return false
		}
		return r.node.Now()-lastProgress > 80_000_000
	})
	switch stop {
	case StopCallback:
		return r.Snapshot(), fmt.Errorf("%w after %d ops", ErrClientStall, r.opsDone)
	case StopDone:
		// The run phase ends here; the drain below only lets the server
		// consume its remaining request budget and exit (it may not, for
		// mixes whose op count over-provisions the budget) and must not
		// count against throughput.
		r.endCyc = r.node.Now()
		_ = r.Sys.Run(20_000_000)
	}
	return r.Snapshot(), nil
}

// Snapshot returns the result as of now (fault campaigns classify
// mid-run).
func (r *KVRun) Snapshot() KVResult {
	res := KVResult{
		Ops:         r.opsDone,
		Corruptions: r.win.Corruptions,
		Errors:      r.win.Errors,
		Finished:    r.Sys.Finished(),
		Detections:  r.Sys.Detections(),
		Stats:       r.Sys.Stats(),
	}
	end := r.endCyc
	if end == 0 {
		end = r.node.Now()
	}
	if r.startCyc > 0 && end > r.startCyc {
		res.Cycles = end - r.startCyc
	}
	res.Throughput = Throughput(res.Ops, res.Cycles)
	if halted, reason := r.Sys.Halted(); halted {
		res.HaltReason = reason
	}
	return res
}

// Throughput converts an op count over a cycle span into ops per million
// cycles. A zero-cycle span (the server halted before the run phase, or
// the result was taken before the first op) reports 0 rather than the
// NaN/Inf a bare division would produce — those poison every downstream
// stats aggregation they touch.
func Throughput(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / 1e6)
}

// RunKV is the one-call convenience wrapper.
func RunKV(opts KVOptions) (KVResult, error) {
	run, err := NewKV(opts)
	if err != nil {
		return KVResult{}, err
	}
	return run.Run()
}
