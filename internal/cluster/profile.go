package cluster

import "fmt"

// HostProfile is the host-side wall-clock breakdown of the lockstep
// rounds executed so far, accumulated per phase. It exists for scale
// tests and profiling runs — router overhead (generate+fill+drain)
// versus node execution (run) — and is never serialized into a Result,
// so artifacts stay timing-free and byte-reproducible.
type HostProfile struct {
	Rounds     uint64
	GenerateNS uint64
	FillNS     uint64
	RunNS      uint64
	DrainNS    uint64
	// Checkpoints and CheckpointNS count every Cluster.Checkpoint call
	// (periodic or by the driver) and its wall-clock. They sit beside
	// the round phases, not inside them: TotalNS and RouterShare cover
	// the four phases of a round only.
	Checkpoints  uint64
	CheckpointNS uint64
}

// TotalNS is the accumulated wall-clock of the four round phases.
func (p HostProfile) TotalNS() uint64 {
	return p.GenerateNS + p.FillNS + p.RunNS + p.DrainNS
}

// RouterNS is the accumulated wall-clock of the router's side of the
// rounds: everything but node execution.
func (p HostProfile) RouterNS() uint64 {
	return p.GenerateNS + p.FillNS + p.DrainNS
}

// RouterShare is the fraction of round wall-clock spent outside node
// execution. It is a ratio to the run phase, so it moves with the speed of
// the machine layer and with how many host cores the shard pool gets, not
// only with the router.
func (p HostProfile) RouterShare() float64 {
	total := p.TotalNS()
	if total == 0 {
		return 0
	}
	return float64(p.RouterNS()) / float64(total)
}

// String renders the profile as one line for a CLI's stderr.
func (p HostProfile) String() string {
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	return fmt.Sprintf("%d rounds: generate %.1f ms, fill %.1f ms, run %.1f ms, drain %.1f ms (router share %.1f%%); %d checkpoints: %.1f ms",
		p.Rounds, ms(p.GenerateNS), ms(p.FillNS), ms(p.RunNS), ms(p.DrainNS), p.RouterShare()*100,
		p.Checkpoints, ms(p.CheckpointNS))
}

// HostProfile returns the accumulated per-phase host timing.
func (c *Cluster) HostProfile() HostProfile { return c.prof }
