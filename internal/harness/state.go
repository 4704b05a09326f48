package harness

import (
	"slices"

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
func (r *KVRun) SaveState(w *snapshot.Writer) error {
	e := w.Section("harness.meta")
	e.Int(int(r.opts.Workload))
	e.U64(r.opts.Records)
	e.U64(r.opts.Operations)
	e.U64(r.opts.Slots)
	e.Bool(r.opts.TraceOutput)
	e.Int(r.opts.Window)
	e.U64(r.opts.Seed)
	e.U64(r.opts.RetryCycles)
	e.Bool(r.opts.RetryBackoff)
	e.Int(r.opts.MaxRetries)
	e.U64(r.opts.WindowCycles)

	e = w.Section("harness")
	ids := make([]uint32, 0, len(r.outstanding))
	for id := range r.outstanding {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.Int(len(ids))
	for _, id := range ids {
		p := r.outstanding[id]
		e.U64(uint64(id))
		e.Bytes(p.frame)
		e.U64(p.sentAt)
		e.Bool(p.isGet)
		e.Bool(p.isLoad)
		e.Bool(p.opFinal)
		e.Int(p.retries)
	}
	finals := make([]uint32, 0, len(r.finalIDs))
	for id := range r.finalIDs {
		finals = append(finals, id)
	}
	slices.Sort(finals)
	e.Int(len(finals))
	for _, id := range finals {
		e.U64(uint64(id))
	}
	e.Int(len(r.queue))
	for _, req := range r.queue {
		saveRequest(e, req)
	}
	e.Int(r.loadLeft)
	e.U64(r.opsDone)
	e.U64(r.opsSent)
	e.U64(r.startCyc)
	e.U64(r.endCyc)
	e.U64(r.winNext)
	e.U64(r.winLastOps)
	e.U64(r.res.Corruptions)
	e.U64(r.res.Errors)

	r.Gen.SaveState(w.Section("harness.gen"))

	return r.node.SaveState(w)
}

func saveRequest(e *snapshot.Enc, req netstack.Request) {
	e.U64(uint64(req.Op))
	e.U64(uint64(req.ReqID))
	e.Bytes(req.Key)
	e.Bytes(req.Value)
	e.Int(req.ScanCount)
}

func loadRequest(d *snapshot.Dec) netstack.Request {
	return netstack.Request{
		Op:        byte(d.U64()),
		ReqID:     uint32(d.U64()),
		Key:       d.Bytes(),
		Value:     d.Bytes(),
		ScanCount: d.Int(),
	}
}

// LoadState implements snapshot.Snapshotter.
func (r *KVRun) LoadState(snap *snapshot.Snapshot) error {
	if err := r.verifyMeta(snap); err != nil {
		return err
	}
	if err := r.node.LoadState(snap); err != nil {
		return err
	}
	d, err := snap.Section("harness")
	if err != nil {
		return err
	}
	// The client's containers are cleared and refilled in place — a
	// campaign rewinds one run onto its template once per trial. A decode
	// error can therefore leave them partly filled; like every layer's, a
	// failed LoadState leaves a run that is only good for another load.
	nout := d.Int()
	clear(r.outstanding)
	for i := 0; i < nout && d.Err() == nil; i++ {
		id := uint32(d.U64())
		r.outstanding[id] = &pendingReq{
			frame:   d.Bytes(),
			sentAt:  d.U64(),
			isGet:   d.Bool(),
			isLoad:  d.Bool(),
			opFinal: d.Bool(),
			retries: d.Int(),
		}
	}
	nfin := d.Int()
	clear(r.finalIDs)
	for i := 0; i < nfin && d.Err() == nil; i++ {
		r.finalIDs[uint32(d.U64())] = true
	}
	nq := d.Int()
	r.queue = r.queue[:0]
	for i := 0; i < nq && d.Err() == nil; i++ {
		r.queue = append(r.queue, loadRequest(d))
	}
	r.loadLeft = d.Int()
	r.opsDone, r.opsSent = d.U64(), d.U64()
	r.startCyc, r.endCyc = d.U64(), d.U64()
	r.winNext, r.winLastOps = d.U64(), d.U64()
	r.res = KVResult{Corruptions: d.U64(), Errors: d.U64()}
	if err := d.Close(); err != nil {
		return err
	}

	g, err := snap.Section("harness.gen")
	if err != nil {
		return err
	}
	if err := r.Gen.LoadState(g); err != nil {
		return err
	}
	return g.Close()
}

// verifyMeta checks the behavioural option digest against this run's.
func (r *KVRun) verifyMeta(snap *snapshot.Snapshot) error {
	d, err := snap.Section("harness.meta")
	if err != nil {
		return err
	}
	checks := []struct {
		field  string
		target interface{}
		snap   interface{}
	}{
		{"workload", int(r.opts.Workload), d.Int()},
		{"records", r.opts.Records, d.U64()},
		{"operations", r.opts.Operations, d.U64()},
		{"slots", r.opts.Slots, d.U64()},
		{"trace-output", r.opts.TraceOutput, d.Bool()},
		{"window", r.opts.Window, d.Int()},
		{"seed", r.opts.Seed, d.U64()},
		{"retry-cycles", r.opts.RetryCycles, d.U64()},
		{"retry-backoff", r.opts.RetryBackoff, d.Bool()},
		{"max-retries", r.opts.MaxRetries, d.Int()},
		{"window-cycles", r.opts.WindowCycles, d.U64()},
	}
	if err := d.Close(); err != nil {
		return err
	}
	for _, c := range checks {
		if c.target != c.snap {
			return snapshot.IncompatibleError("harness.meta", c.field, c.target, c.snap)
		}
	}
	return nil
}
