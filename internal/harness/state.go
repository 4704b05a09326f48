package harness

import (
	"rcoe/internal/netstack"
	"rcoe/internal/snapshot"
)

// This file implements snapshot.Snapshotter for a full benchmark run: the
// closed-loop client's host-side state (window, retry queue, phase
// counters) plus the generator position, layered over the replicated
// system's own sections. The NIC serializes through the machine's
// stateful-device walk; the server state lives in simulated RAM.
//
// Restore contract (as everywhere in the subsystem): build the target
// through the same path — NewKV with behaviourally identical options —
// then restore. Option mismatches return snapshot.ErrIncompatible.

// SaveState implements snapshot.Snapshotter.
func (r *KVRun) SaveState(w *snapshot.Writer) error { return w.Walk(r.state) }

// LoadState implements snapshot.Snapshotter.
func (r *KVRun) LoadState(snap *snapshot.Snapshot) error { return snap.Walk(r.state) }

// state walks the run's sections: the behavioural option digest, the
// client, the generator, and the node's. The client's containers are
// cleared and refilled in place — a campaign rewinds one run onto its
// template once per trial.
func (r *KVRun) state(c *snapshot.Codec) {
	c.Section("harness.meta", r.meta)
	c.Section("harness", r.client)
	c.Section("harness.gen", r.Gen.State)
	r.node.state(c)
}

func (r *KVRun) meta(c *snapshot.Codec) {
	c.Check("workload", int(r.opts.Workload))
	c.Check("records", r.opts.Records)
	c.Check("operations", r.opts.Operations)
	c.Check("slots", r.opts.Slots)
	c.Check("trace-output", r.opts.TraceOutput)
	c.Check("window", r.opts.Window)
	c.Check("seed", r.opts.Seed)
	c.Check("retry-cycles", r.opts.RetryCycles)
	c.Check("retry-backoff", r.opts.RetryBackoff)
	c.Check("max-retries", r.opts.MaxRetries)
	c.Check("window-cycles", r.opts.WindowCycles)
}

func (r *KVRun) client(c *snapshot.Codec) {
	r.win.state(c)
	// finalIDs is a set: the keys are its whole content.
	snapshot.Map(c, r.finalIDs, func(in *bool) { *in = true })
	snapshot.List(c, &r.queue, func(req *netstack.Request) {
		snapshot.Word(c, &req.Op)
		snapshot.Word(c, &req.ReqID)
		c.Bytes(&req.Key)
		c.Bytes(&req.Value)
		c.Int(&req.ScanCount)
	})
	c.Int(&r.loadLeft)
	c.U64(&r.opsDone)
	c.U64(&r.opsSent)
	c.U64(&r.startCyc)
	c.U64(&r.endCyc)
	c.U64(&r.winNext)
	c.U64(&r.winLastOps)
	c.U64(&r.win.Corruptions)
	c.U64(&r.win.Errors)
}
