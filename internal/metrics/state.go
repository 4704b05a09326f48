package metrics

import "rcoe/internal/snapshot"

// histList returns every histogram in a fixed serialization order. Save
// and Load iterate the same list, so the order is the format.
func (s *Set) histList() []*Histogram {
	return []*Histogram{
		&s.BarrierWait, &s.VoteLatency, &s.CatchUpDeficit, &s.DetectLatency,
		&s.DowngradeCost, &s.ReintegrationWindow, &s.KVWindowOps,
	}
}

// ctrList returns every counter in a fixed serialization order.
func (s *Set) ctrList() []*Counter {
	return []*Counter{
		&s.Syncs, &s.Votes, &s.VoteFails, &s.Ejections, &s.Reintegs,
		&s.TraceEvents,
	}
}

// SaveState serializes the full metric set for the checkpoint/restore
// subsystem.
func (s *Set) SaveState(e *snapshot.Enc) {
	hists := s.histList()
	ctrs := s.ctrList()
	e.Int(len(hists))
	e.Int(len(ctrs))
	for _, h := range hists {
		e.U64s(h.buckets[:])
		e.U64(h.count)
		e.U64(h.sum)
		e.U64(h.min)
		e.U64(h.max)
	}
	for _, c := range ctrs {
		e.U64(c.n)
	}
}

// LoadState restores the metric set in place, preserving the *Set pointer
// shared with the observing layer.
func (s *Set) LoadState(d *snapshot.Dec) error {
	hists := s.histList()
	ctrs := s.ctrList()
	if got := d.Int(); got != len(hists) {
		return snapshot.IncompatibleError("metrics", "histograms", len(hists), got)
	}
	if got := d.Int(); got != len(ctrs) {
		return snapshot.IncompatibleError("metrics", "counters", len(ctrs), got)
	}
	for _, h := range hists {
		if n := d.U64sInto(h.buckets[:]); d.Err() == nil && n != HistBuckets {
			return snapshot.IncompatibleError("metrics", "buckets", HistBuckets, n)
		}
		h.count = d.U64()
		h.sum = d.U64()
		h.min = d.U64()
		h.max = d.U64()
	}
	for _, c := range ctrs {
		c.n = d.U64()
	}
	return d.Err()
}
