package workload

import "rcoe/internal/snapshot"

// State walks the generator's mutable position in the request stream.
// Kind and record count are construction parameters and only checked; the
// zipfian tables are pure functions of the record count and are rebuilt by
// construction, not serialized.
func (g *Generator) State(c *snapshot.Codec) {
	c.Check("kind", int(g.kind))
	c.Check("records", g.recordCount)
	c.U64(&g.inserted)
	c.U64(&g.rng)
	snapshot.Word(c, &g.nextReqID)
}
