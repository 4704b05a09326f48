package core

import (
	"fmt"

	"rcoe/internal/machine"
	"rcoe/internal/trace"
)

// Downgrade cost model (cycles), calibrated to reproduce the shape of
// Table X: removing the primary is roughly two orders of magnitude more
// expensive than removing another replica, because interrupts must be
// re-routed and (under CC) every DMA-marked page-table entry patched.
const (
	costRerouteLine   = 600  // re-programming one interrupt route
	costPatchDMAPage  = 3500 // CC: patching one DMA-marked PTE (§IV-A)
	costRemapSharedLC = 900  // LC: re-establishing one shared mapping
	costRemoveOtherLC = 800  // survivors' wait for a non-primary removal
	costRemoveOtherCC = 300
)

// handleVoteFailure resolves a failed signature vote: fail-stop for DMR
// (detection only), or run the fault-voting algorithm and downgrade for a
// masking TMR configuration (§IV).
func (s *System) handleVoteFailure() {
	if s.halted {
		return // the vote itself fail-stopped (no voters left)
	}
	if s.met != nil {
		s.met.VoteFails.Inc()
	}
	if !s.cfg.Masking || s.AliveCount() < 3 {
		s.record(DetectSignatureMismatch, -1, false)
		s.halt("signature mismatch (DMR: detection only)")
		return
	}
	faulty, ok := s.runFaultVote()
	if !ok {
		s.record(DetectVoteInconclusive, -1, false)
		s.halt("no consensus on faulty replica")
		return
	}
	s.downgrade(faulty)
}

// runFaultVote executes the voting algorithm of the paper's Listing 5
// redundantly for every alive replica, over the shared-RAM arrays
// (checksum, ft_votes, ft_fault_replica), with the kbarrier phases made
// explicit. It returns the faulty replica's ID and whether consensus was
// reached.
func (s *System) runFaultVote() (int, bool) {
	alive := s.aliveSet()
	n := alive.count()
	// Phase 1: each replica counts how many checksums match its own.
	for m := alive; m != 0; m = m.rest() {
		my := m.first()
		mySum := s.sh.repWord(my, rwChecksum)
		votes := uint64(0)
		for o := alive; o != 0; o = o.rest() {
			if s.sh.repWord(o.first(), rwChecksum) == mySum {
				votes++
			}
		}
		s.sh.setRepWord(my, rwFTVotes, votes)
		s.reps[my].Core().AddStall(10 * n)
	}
	// kbarrier(bar, N) — all replicas reach this point before phase 2.
	// Phase 2: the replica with the fewest matches is the fault
	// candidate; a replica whose own vote count is not N-1 accuses
	// itself (it knows its checksum is the odd one out).
	for m := alive; m != 0; m = m.rest() {
		my := m.first()
		least := uint64(n) + 1
		fault := n + 1
		for o := alive; o != 0; o = o.rest() {
			i := o.first()
			if v := s.sh.repWord(i, rwFTVotes); v < least {
				least = v
				fault = i
			}
		}
		if s.sh.repWord(my, rwFTVotes) != uint64(n-1) {
			s.sh.setRepWord(my, rwFTFaulty, uint64(my))
		} else {
			s.sh.setRepWord(my, rwFTFaulty, uint64(fault))
		}
		s.reps[my].Core().AddStall(10 * n)
	}
	// kbarrier — then phase 3: consensus check.
	ref := s.sh.repWord(alive.first(), rwFTFaulty)
	for m := alive.rest(); m != 0; m = m.rest() {
		if s.sh.repWord(m.first(), rwFTFaulty) != ref {
			return -1, false // ERROR_DIFF_FAULT_REPLICA
		}
	}
	if ref >= uint64(len(s.reps)) {
		return -1, false
	}
	return int(ref), true
}

// downgrade removes the agreed-faulty replica, masking the error. If the
// primary is removed, a new primary is elected (smallest alive ID),
// interrupts are re-routed, and DMA mappings are reconfigured — the
// expensive path of Table X.
func (s *System) downgrade(faulty int) {
	if !s.removalSafe(faulty, DetectSignatureMismatch) {
		return
	}
	s.record(DetectSignatureMismatch, faulty, true)
	s.stats.Downgrades++
	s.trSys(trace.KindEject, uint64(faulty), uint64(DetectSignatureMismatch))
	if s.met != nil {
		s.met.Ejections.Inc()
	}
	s.removeReplica(faulty)
	s.sh.setWord(wVoteOutcome, uint64(faulty)+1)
}

// ejectStraggler resolves a barrier timeout by voting the non-responsive
// replica out of a masking TMR configuration — the availability path: the
// survivors continue as DMR instead of fail-stopping (§IV-A/§IV-C). It
// returns true when the straggler was ejected and the waiting replicas
// should re-enter the barrier; on false the system has fail-stopped.
func (s *System) ejectStraggler(straggler int) bool {
	if !s.cfg.Masking || s.AliveCount() < 3 {
		s.record(DetectBarrierTimeout, straggler, false)
		s.halt(fmt.Sprintf("barrier timeout waiting for replica %d (detection only)", straggler))
		return false
	}
	if !s.removalSafe(straggler, DetectBarrierTimeout) {
		return false
	}
	s.record(DetectBarrierTimeout, straggler, true)
	s.stats.Ejections++
	s.trSys(trace.KindEject, uint64(straggler), uint64(DetectBarrierTimeout))
	if s.met != nil {
		s.met.Ejections.Inc()
	}
	// Unlike a vote-identified replica, a straggler cannot remove itself
	// at release (it is unresponsive): force its core offline here.
	s.reps[straggler].Core().SetOffline()
	s.removeReplica(straggler)
	return true
}

// removalSafe checks the §IV-A conditions under which removing a faulty
// replica is impossible; when unmet it records an unmasked detection of
// the given kind and fail-stops.
func (s *System) removalSafe(faulty int, kind DetectionKind) bool {
	if faulty == s.Primary() && s.sh.word(wIOBusy) != 0 {
		// A faulty primary may have initiated I/O that could corrupt the
		// system; downgrading is unsafe (§IV-A).
		s.record(kind, faulty, false)
		s.halt("faulty primary during device I/O")
		return false
	}
	if faulty == s.Primary() && s.cfg.Mode == ModeCC && !s.cfg.Profile.HasSparePTEBit {
		// No spare page-table bit to mark DMA buffers: CC masking is
		// unsupported on this platform (§IV-A).
		s.record(kind, faulty, false)
		s.halt("CC error masking unsupported without a spare PTE bit")
		return false
	}
	return true
}

// removeReplica takes the faulty replica out of the configuration and
// charges the Table X downgrade cost to the survivors. Removing the
// primary additionally re-elects, re-routes interrupts, resets the
// input-replication channel, and reconfigures DMA mappings.
func (s *System) removeReplica(faulty int) {
	wasPrimary := faulty == s.Primary()
	s.sh.removeAlive(faulty)
	cost := 0
	if wasPrimary {
		alive, ok := s.voters("primary election")
		if !ok {
			return
		}
		newP := alive.first()
		s.sh.setWord(wPrimary, uint64(newP))
		for line := 0; line < 64; line++ {
			s.m.RouteIRQ(line, newP)
		}
		cost += 64 * costRerouteLine
		// Reset the input-replication channel: the dead primary may have
		// left followers spinning on a publication that will never come.
		// Publishing an empty frame (length 0, sequence bumped) sends
		// every surviving driver back to its interrupt wait, after which
		// the re-routed interrupts reach the new primary. At most the
		// single in-flight frame is lost, as in a real NIC failover.
		s.resetInputChannel()
		if s.primaryChange != nil {
			s.primaryChange(newP)
		}
		if s.cfg.Mode == ModeCC {
			cost += int(dmaSize/4096) * costPatchDMAPage
		} else {
			cost += int(inputSize/4096) * costRemapSharedLC
		}
	} else {
		if s.cfg.Mode == ModeCC {
			cost = costRemoveOtherCC
		} else {
			cost = costRemoveOtherLC
		}
	}
	for m := s.aliveSet(); m != 0; m = m.rest() {
		s.reps[m.first()].Core().AddStall(cost)
	}
	s.stats.DowngradeCycles = uint64(cost)
	if s.met != nil {
		s.met.DowngradeCost.Observe(uint64(cost))
	}
}

// VoteDemo runs the fault-voting algorithm over the given published
// checksums on a scratch system with len(sums) replicas (Table I
// demonstrations). It returns the agreed-faulty replica and whether
// consensus was reached.
func VoteDemo(sums []uint64) (int, bool) {
	prof := machine.X86()
	if len(sums) > prof.Cores {
		prof.Cores = len(sums)
	}
	sys, err := NewSystem(Config{
		Mode: ModeLC, Replicas: len(sums), Masking: true, Profile: prof,
		PartitionBytes: 1 << 20,
	})
	if err != nil {
		return -1, false
	}
	for rid, sum := range sums {
		sys.sh.setRepWord(rid, rwChecksum, sum)
	}
	return sys.runFaultVote()
}
