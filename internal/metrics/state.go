package metrics

import "rcoe/internal/snapshot"

// histList returns every histogram in a fixed serialization order: the
// order is the format.
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

// State walks the full metric set in place, preserving the *Set pointer
// shared with the observing layer.
func (s *Set) State(c *snapshot.Codec) {
	hists, ctrs := s.histList(), s.ctrList()
	c.Check("histograms", len(hists))
	c.Check("counters", len(ctrs))
	for _, h := range hists {
		c.U64s(h.buckets[:])
		c.U64(&h.count)
		c.U64(&h.sum)
		c.U64(&h.min)
		c.U64(&h.max)
	}
	for _, ctr := range ctrs {
		c.U64(&ctr.n)
	}
}
