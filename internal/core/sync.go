package core

import (
	"fmt"

	"rcoe/internal/machine"
	"rcoe/internal/trace"
)

// syncPending reports whether a synchronisation generation is open.
func (s *System) syncPending() bool { return s.sh.word(wSyncGen) != 0 }

// arriveGen returns the generation a replica last arrived at.
func (s *System) arriveGen(r *Replica) uint64 { return s.sh.repWord(r.ID, rwArriveGen) }

// released reports whether the replica has already been released from the
// currently open generation (it must not re-enter it).
func (s *System) released(r *Replica) bool {
	return s.releasedSet&(1<<uint(r.ID)) != 0
}

// aliveSet returns the alive replicas: the alive mask, read from shared RAM
// once, restricted to the configured replicas (a corrupted mask may carry
// bits no replica owns).
func (s *System) aliveSet() ridSet {
	return ridSet(s.sh.word(wAliveMask)) & (1<<uint(len(s.reps)) - 1)
}

// voters returns the alive set for a vote or an election. An empty set —
// the alive mask corrupted to zero — leaves nobody to compare or elect:
// the system fail-stops and ok is false.
func (s *System) voters(what string) (alive ridSet, ok bool) {
	alive = s.aliveSet()
	if alive == 0 {
		s.record(DetectKernelException, -1, false)
		s.halt("alive mask empty at " + what)
		return 0, false
	}
	return alive, true
}

// requestSync opens a synchronisation generation (or merges into the open
// one) and kicks the other replicas with IPIs. kind is a bitmask of
// syncIRQ/syncFinal; lines is the pending device-interrupt mask.
func (s *System) requestSync(requester int, kind, lines uint64) {
	if s.sh.word(wSyncGen) != 0 {
		s.sh.setWord(wSyncKind, s.sh.word(wSyncKind)|kind)
		s.sh.setWord(wSyncLines, s.sh.word(wSyncLines)|lines)
		return
	}
	s.syncCounter++
	s.releasedSet = 0
	s.lastSyncOpen = s.m.Now()
	s.trSys(trace.KindBarrierOpen, s.syncCounter, kind)
	s.sh.setWord(wReleaseGen, 0)
	s.sh.setWord(wVoteOutcome, 0)
	s.sh.setWord(wSyncKind, kind)
	s.sh.setWord(wSyncLines, lines)
	s.sh.setWord(wSyncGen, s.syncCounter)
	for m := s.aliveSet(); m != 0; m = m.rest() {
		if rid := m.first(); rid != requester {
			s.m.SendIPI(rid)
		}
	}
}

// maxAliveTime returns the largest published logical time among alive
// replicas (published times are refreshed on every kernel entry, so they
// are safe lower bounds for the catch-up decision).
func (s *System) maxAliveTime() logicalTime {
	var maxT logicalTime
	first := true
	for m := s.aliveSet(); m != 0; m = m.rest() {
		t := s.sh.readTime(m.first())
		if first || maxT.less(t) {
			maxT = t
			first = false
		}
	}
	return maxT
}

// allArrivedEqual reports whether every alive replica is parked at gen
// with identical logical times — the rendezvous completion condition.
// Requiring the parked flag (not just an arrival) prevents completing on
// a transient time published by a replica still mid-catch-up.
func (s *System) allArrivedEqual(gen uint64) bool {
	var ref logicalTime
	first := true
	for m := s.aliveSet(); m != 0; m = m.rest() {
		rid := m.first()
		if s.sh.repWord(rid, rwArriveGen) != gen {
			return false
		}
		if s.sh.repWord(rid, rwParkedGen) != gen {
			return false
		}
		t := s.sh.readTime(rid)
		if first {
			ref = t
			first = false
		} else if !ref.equal(t) {
			return false
		}
	}
	return !first
}

// enterRendezvous is called at a kernel entry while a synchronisation is
// pending: the replica publishes its logical time and either parks (it is
// the leader or level) or resumes execution to catch up (§III-C).
func (s *System) enterRendezvous(r *Replica) {
	gen := s.sh.word(wSyncGen)
	if gen == 0 {
		s.afterKernel(r)
		return
	}
	lt := s.timeOf(r)
	s.sh.publishTime(r.ID, lt)
	s.sh.setRepWord(r.ID, rwArriveGen, gen)
	s.publishSignature(r)
	s.trEvent(r, trace.KindBarrierJoin, gen, 0)
	maxT := s.maxAliveTime()
	if lt.less(maxT) && s.canAdvance(r) {
		s.catchUp(r, maxT)
		return
	}
	s.parkAtRendezvous(r, gen)
}

// canAdvance reports whether the replica can make user-level progress (it
// has a runnable thread and has not finished).
func (s *System) canAdvance(r *Replica) bool {
	return !r.finished && r.K.CurrentTID() >= 0
}

// publishSignature copies the replica's (event count, checksum) into its
// shared block for voting.
func (s *System) publishSignature(r *Replica) {
	ev, sum := r.K.Signature()
	s.sh.setRepWord(r.ID, rwSigEvents, ev)
	s.sh.setRepWord(r.ID, rwChecksum, sum)
}

// catchUp resumes a trailing replica. Under LC it simply continues until
// its event count matches; under CC, when it is level on events, it arms
// a global instruction breakpoint at the leader's instruction pointer and
// chases (§III-C).
func (s *System) catchUp(r *Replica, target logicalTime) {
	if s.cfg.Mode == ModeCC && target.Events == s.sh.repWord(r.ID, rwEvents) &&
		target.IP != ^uint64(0) {
		r.chasing = true
		r.chaseTarget = target
		c := r.Core()
		myT := s.timeOf(r)
		my := myT.Branches
		// The leader parked mid-block at this replica's exact (branches,
		// IP): an instruction breakpoint at that IP would re-fire on the
		// very next fetch (rep-style ops stay on the same PC), paying a
		// debug exception before the watchpoint can even arm. Go straight
		// to the data watchpoint at the leader's remaining count.
		if target.Branches == myT.Branches && target.IP == myT.IP &&
			target.BlockRem > 0 && myT.BlockRem > target.BlockRem {
			c.BlockWatch.Rem = target.BlockRem
			c.BlockWatch.Enabled = true
			c.BP.Enabled = false
			c.ResumeOnce = false
			return
		}
		// Large deficits are covered with a PMU overflow interrupt —
		// free-running until just short of the leader — and only the tail
		// uses per-iteration breakpoints. Without this, a breakpoint in a
		// tight loop costs a debug exception per iteration for the whole
		// distance (§VI's planned ReVirt-style optimisation).
		const coarseTail = 8
		if s.met != nil && target.Branches > my {
			s.met.CatchUpDeficit.Observe(target.Branches - my)
		}
		if target.Branches > my && target.Branches-my > 2*coarseTail {
			c.BranchWatch.Target = c.UserBranches + (target.Branches - my) - coarseTail
			c.BranchWatch.Enabled = true
			c.BP.Enabled = false
			c.ResumeOnce = false
			return
		}
		c.BP.Addr = target.IP
		c.BP.Enabled = true
		c.ResumeOnce = false
	}
	// Returning resumes user execution; the replica re-enters through its
	// next kernel entry (breakpoint, syscall, or IPI).
}

// clearChase disarms the catch-up breakpoint and branch watch.
func (s *System) clearChase(r *Replica) {
	r.chasing = false
	c := r.Core()
	c.BP.Enabled = false
	c.SingleStep = false
	c.ResumeOnce = false
	c.BranchWatch.Enabled = false
	c.BlockWatch.Enabled = false
}

// parkAtRendezvous spins the replica on the kernel barrier until all
// replicas are level, someone overtakes it, the vote releases it, or the
// spin budget expires (straggler detection).
func (s *System) parkAtRendezvous(r *Replica, gen uint64) {
	s.clearChase(r)
	s.sh.setRepWord(r.ID, rwParkedGen, gen)
	r.barrierStart = r.Core().Cycles
	s.armRendezvousPark(r, gen)
}

// armRendezvousPark installs the rendezvous park closures, using the
// already-recorded barrierStart for the spin budget. Split from
// parkAtRendezvous so a snapshot restore can re-arm the park without
// re-running its side effects (in particular without resetting the spin
// budget, which must survive a checkpoint for determinism).
func (s *System) armRendezvousPark(r *Replica, gen uint64) {
	r.park = parkDesc{kind: parkRendezvous, gen: gen}
	c := r.Core()
	// The only time-driven exit is the spin-budget expiry; everything else
	// (release, overtake, level-up) comes from peers executing. Apart from
	// the cycle counter the condition reads framework words, and host
	// fields (halted, this replica's finished flag, current thread and
	// barrierStart) that only kernel code writes.
	s.park(c, r.barrierStart+s.cfg.BarrierTimeout+1, func() bool {
		if s.halted {
			return true
		}
		if s.sh.word(wReleaseGen) == gen {
			return true
		}
		if s.canAdvance(r) {
			myT := s.sh.readTime(r.ID)
			if myT.less(s.maxAliveTime()) {
				return true // overtaken: resume and catch up
			}
		}
		if s.allArrivedEqual(gen) {
			s.completeRendezvous(gen)
			return true
		}
		return c.Cycles-r.barrierStart > s.cfg.BarrierTimeout
	}, func() {
		switch {
		case s.halted:
			c.Halt()
		case s.sh.word(wReleaseGen) == gen:
			s.releaseFromRendezvous(r, gen)
		case s.canAdvance(r) && s.sh.readTime(r.ID).less(s.maxAliveTime()):
			s.sh.setRepWord(r.ID, rwParkedGen, 0)
			s.catchUp(r, s.maxAliveTime())
		default:
			if s.barrierTimeout(r, gen) {
				if !s.sh.alive(r.ID) {
					// The waiter itself was the minority-time straggler.
					c.SetOffline()
					return
				}
				// Straggler ejected: rejoin the still-open rendezvous with
				// the surviving replicas (fresh spin budget).
				s.parkAtRendezvous(r, gen)
			}
		}
	})
}

// completeRendezvous runs when the last replica levels up: it votes on
// the published signatures and releases the barrier. On a failed vote it
// runs the fault-voting algorithm and downgrades or halts (§IV).
func (s *System) completeRendezvous(gen uint64) {
	s.stats.Syncs++
	agreed := s.compareSignatures()
	if s.met != nil {
		s.met.Syncs.Inc()
		s.met.Votes.Inc()
		s.met.VoteLatency.Observe(s.m.Now() - s.lastSyncOpen)
	}
	if s.rec != nil {
		outcome := uint64(0)
		if !agreed {
			outcome = 1
		}
		s.trSys(trace.KindVote, gen, outcome)
	}
	if !agreed {
		s.handleVoteFailure()
		if s.halted {
			return
		}
	}
	// Successful (or masked) vote: mark completion of a finished workload.
	if s.sh.word(wSyncKind)&syncFinal != 0 && s.allAliveFinished() {
		s.finished = true
	}
	s.sh.setWord(wReleaseGen, gen)
}

func (s *System) allAliveFinished() bool {
	for m := s.aliveSet(); m != 0; m = m.rest() {
		if s.sh.repWord(m.first(), rwDoneFlag) == 0 {
			return false
		}
	}
	return true
}

// compareSignatures reports whether all alive replicas published equal
// (event count, checksum) signatures.
func (s *System) compareSignatures() bool {
	s.stats.Votes++
	alive, ok := s.voters("signature vote")
	if !ok {
		return false
	}
	n := alive.count()
	for m := alive; m != 0; m = m.rest() {
		s.reps[m.first()].Core().AddStall(20 * n) // redundant comparison cost
	}
	refEv := s.sh.repWord(alive.first(), rwSigEvents)
	refSum := s.sh.repWord(alive.first(), rwChecksum)
	for m := alive.rest(); m != 0; m = m.rest() {
		rid := m.first()
		if s.sh.repWord(rid, rwSigEvents) != refEv || s.sh.repWord(rid, rwChecksum) != refSum {
			return false
		}
	}
	return true
}

// releaseFromRendezvous finishes one replica's participation: apply the
// vote outcome, deliver the synchronised interrupts to the local kernel,
// reset the branch clock, and clean up when last out.
func (s *System) releaseFromRendezvous(r *Replica, gen uint64) {
	outcome := s.sh.word(wVoteOutcome)
	if outcome != 0 && outcome != ^uint64(0) {
		faulty := int(outcome - 1)
		if faulty == r.ID {
			// "The faulty replica removes itself while the others wait."
			r.Core().SetOffline()
			s.markReleased(r, gen)
			return
		}
	}
	kind := s.sh.word(wSyncKind)
	lines := s.sh.word(wSyncLines)
	if kind&syncIRQ != 0 {
		if s.cfg.VM {
			r.Core().AddStall(s.cfg.Profile.Costs.VMExit)
			s.stats.VMExits++
		}
		s.deliverLines(r, lines)
	}
	s.resetBranchClock(r)
	if s.rec != nil {
		wait := r.Core().Cycles - r.barrierStart
		s.trEvent(r, trace.KindBarrierRelease, gen, wait)
		s.met.BarrierWait.Observe(wait)
	}
	// Republish the post-reset logical time: stale pre-reset values would
	// look "ahead" to peers and send them chasing ghosts.
	s.sh.publishTime(r.ID, s.timeOf(r))
	r.Core().AddStall(60) // protocol bookkeeping cost per replica
	s.markReleased(r, gen)
	if r.finished {
		s.finishedPark(r)
		return
	}
	s.afterKernel(r)
}

// markReleased tracks barrier egress; the last replica out clears the
// synchronisation words.
func (s *System) markReleased(r *Replica, gen uint64) {
	s.releasedSet |= 1 << uint(r.ID)
	alive := uint64(s.aliveSet())
	if s.releasedSet&alive == alive && s.sh.word(wReleaseGen) == gen {
		s.sh.setWord(wSyncGen, 0)
		s.sh.setWord(wSyncKind, 0)
		s.sh.setWord(wSyncLines, 0)
		s.sh.setWord(wReleaseGen, 0)
		s.sh.setWord(wVoteOutcome, 0)
		// The rendezvous is fully drained: every survivor has voted and
		// released, so this is the quiesce point a live re-integration
		// request waits for.
		s.applyPendingReintegrate()
	}
}

// finishedPark parks a completed replica; it still answers IPIs so that
// later synchronisations (other replicas finishing, faults) can include
// it.
func (s *System) finishedPark(r *Replica) {
	r.park = parkDesc{kind: parkFinished}
	c := r.Core()
	// Wakes only on halt, finish, or a peer opening a synchronisation —
	// all effects of other cores executing. releasedSet changes in kernel
	// code, or in the watchdog's requestSync together with the framework
	// words it writes, so the watch sees every change.
	s.park(c, machine.NoEvent, func() bool {
		if s.halted || s.finished {
			return true
		}
		return s.syncPending() && !s.released(r)
	}, func() {
		if s.halted || s.finished {
			c.Halt()
			return
		}
		s.enterRendezvous(r)
	})
}

// barrierTimeout fires when a replica exhausted its spin budget waiting
// for stragglers at a rendezvous. Under a masking TMR configuration the
// non-responsive replica is ejected and the survivors continue as DMR;
// otherwise divergence is detected but (per §IV-A) not recoverable and
// the system fail-stops. Returns true when the waiting replica should
// re-enter the barrier.
func (s *System) barrierTimeout(r *Replica, gen uint64) bool {
	straggler := s.rendezvousStraggler(gen)
	if straggler == -1 {
		// Every alive replica arrived and parked, yet the rendezvous never
		// completed: the published logical times disagree. With three or
		// more voters a single dissenting time identifies the faulty
		// replica (the majority cannot all be wrong under the single-fault
		// assumption, as in Listing 5's vote).
		straggler = s.timeMinority()
	}
	if straggler == -1 {
		s.record(DetectBarrierTimeout, -1, false)
		s.halt(fmt.Sprintf("barrier timeout with diverged replica times (gen %d)", gen))
		return false
	}
	return s.ejectStraggler(straggler)
}

// timeMinority returns the one alive replica whose published logical time
// disagrees with an agreeing majority of all the others, or -1 when no
// such consensus exists.
func (s *System) timeMinority() int {
	alive := s.aliveSet()
	n := alive.count()
	if n < 3 {
		return -1
	}
	best, bestCount := -1, 0
	for m := alive; m != 0; m = m.rest() {
		rid := m.first()
		t := s.sh.readTime(rid)
		count := 0
		for o := alive; o != 0; o = o.rest() {
			if s.sh.readTime(o.first()).equal(t) {
				count++
			}
		}
		if count > bestCount {
			bestCount = count
			best = rid
		}
	}
	if bestCount != n-1 {
		return -1
	}
	ref := s.sh.readTime(best)
	for m := alive; m != 0; m = m.rest() {
		if rid := m.first(); !s.sh.readTime(rid).equal(ref) {
			return rid
		}
	}
	return -1
}

// rendezvousStraggler identifies the replica holding up generation gen:
// first one that never arrived, else one that arrived but never parked
// (lost mid-catch-up, e.g. a CC chase that cannot converge). Returns -1
// when all alive replicas are arrived and parked.
func (s *System) rendezvousStraggler(gen uint64) int {
	alive := s.aliveSet()
	for m := alive; m != 0; m = m.rest() {
		if rid := m.first(); s.sh.repWord(rid, rwArriveGen) != gen {
			return rid
		}
	}
	for m := alive; m != 0; m = m.rest() {
		if rid := m.first(); s.sh.repWord(rid, rwParkedGen) != gen {
			return rid
		}
	}
	return -1
}

// eventBarrierTimeout is barrierTimeout's analogue for event barriers,
// where arrival is tracked by the per-replica vote-event word rather than
// a rendezvous generation.
func (s *System) eventBarrierTimeout(r *Replica, ev uint64) bool {
	straggler := -1
	for m := s.aliveSet(); m != 0; m = m.rest() {
		if rid := m.first(); s.sh.repWord(rid, rwVoteEvent) < ev {
			straggler = rid
			break
		}
	}
	if straggler == -1 {
		s.record(DetectBarrierTimeout, -1, false)
		s.halt(fmt.Sprintf("event barrier timeout at event %d", ev))
		return false
	}
	return s.ejectStraggler(straggler)
}

// onBreakpoint services the catch-up breakpoint: compare the precise
// logical clocks and either join the rendezvous, step over the breakpoint
// and keep chasing, or (if somehow ahead) park and let the others chase.
func (s *System) onBreakpoint(r *Replica) {
	r.DebugExceptions++
	c := r.Core()
	c.AddStall(s.cfg.Profile.Costs.DebugException)
	if s.cfg.VM {
		c.AddStall(s.cfg.Profile.Costs.VMExit)
		s.stats.VMExits++
	}
	if !r.chasing {
		// Stale breakpoint (e.g. chase abandoned): disarm and continue.
		s.clearChase(r)
		s.afterKernel(r)
		return
	}
	lt := s.timeOf(r)
	s.sh.publishTime(r.ID, lt)
	target := s.maxAliveTime()
	switch {
	case lt.equal(target):
		s.clearChase(r)
		gen := s.sh.word(wSyncGen)
		if gen == 0 {
			s.afterKernel(r)
			return
		}
		s.sh.setRepWord(r.ID, rwArriveGen, gen)
		s.publishSignature(r)
		s.parkAtRendezvous(r, gen)
	case lt.less(target):
		// Still behind: step over the breakpoint. With a resume flag
		// this is one debug exception; without one (Arm) the kernel must
		// disable the breakpoint and single-step, paying a second
		// "mismatch" exception (§III-D).
		if s.rec != nil {
			s.trEvent(r, trace.KindCatchUpStep, target.Branches-lt.Branches, target.IP)
		}
		switch {
		case lt.Events == target.Events && lt.Branches == target.Branches &&
			lt.IP == target.IP && target.BlockRem > 0:
			// The leader stopped *inside* the block instruction this
			// replica is executing. The resume flag suppresses the
			// breakpoint until the instruction completes, which would
			// free-run the entire remaining block and overshoot; instead,
			// place a data-write watchpoint at the leader's destination
			// cursor (position inside a rep copy maps 1:1 onto the
			// destination address), which stops the block op at exactly
			// the leader's remaining count in a single debug exception
			// (§III-D's rep-prefix case).
			c.BP.Enabled = false
			c.BlockWatch.Rem = target.BlockRem
			c.BlockWatch.Enabled = true
		case s.cfg.Profile.HasResumeFlag:
			c.ResumeOnce = true
		default:
			c.BP.Enabled = false
			c.SingleStep = true
		}
	default:
		// Overshot the leader: publish (done above) and park; the
		// others will now chase us. Divergence surfaces as a timeout.
		s.clearChase(r)
		gen := s.sh.word(wSyncGen)
		if gen == 0 {
			s.afterKernel(r)
			return
		}
		s.sh.setRepWord(r.ID, rwArriveGen, gen)
		s.publishSignature(r)
		s.parkAtRendezvous(r, gen)
	}
}

// onBranchWatch handles the PMU overflow interrupt that ends the coarse
// catch-up phase: the replica is now within a few branches of the leader
// and re-enters the rendezvous, which arms the precise breakpoint for the
// remaining distance.
func (s *System) onBranchWatch(r *Replica) {
	c := r.Core()
	c.AddStall(s.cfg.Profile.Costs.IRQDeliver)
	if s.cfg.VM {
		c.AddStall(s.cfg.Profile.Costs.VMExit)
		s.stats.VMExits++
	}
	if !r.chasing || !s.syncPending() {
		s.clearChase(r)
		s.afterKernel(r)
		return
	}
	s.enterRendezvous(r)
}

// onSingleStep is the second half of the no-resume-flag protocol: the
// instruction under the breakpoint has executed; re-arm and continue.
func (s *System) onSingleStep(r *Replica) {
	r.DebugExceptions++
	c := r.Core()
	c.AddStall(s.cfg.Profile.Costs.DebugException)
	if s.cfg.VM {
		c.AddStall(s.cfg.Profile.Costs.VMExit)
		s.stats.VMExits++
	}
	if r.chasing {
		c.BP.Addr = r.chaseTarget.IP
		c.BP.Enabled = true
	}
}

// eventBarrier synchronises all alive replicas at a specific event number
// (per-syscall votes under SigSync and the FT_Mem_* driver calls, which
// "only perform operations when all replicas are in sync"). action runs
// exactly once at completion (device-side work); cont runs on every
// replica after release. desc describes the barrier (kind, event number,
// and the arguments needed to rebuild action/cont) so a snapshot restore
// can re-arm the park.
func (s *System) eventBarrier(r *Replica, desc parkDesc, action func(), cont func()) {
	// Publish the post-bump logical time: replicas parked at an open
	// rendezvous must see this replica as "ahead" so they resume and
	// catch up to this event instead of timing out.
	s.sh.publishTime(r.ID, s.timeOf(r))
	s.sh.setRepWord(r.ID, rwVoteEvent, desc.ev)
	_, sum := r.K.Signature()
	s.sh.setRepWord(r.ID, rwVoteSum, sum)
	r.barrierStart = r.Core().Cycles
	s.armEventBarrier(r, desc, action, cont)
}

// armEventBarrier installs the event-barrier park closures against the
// already-recorded barrierStart (the restore-safe half of eventBarrier).
func (s *System) armEventBarrier(r *Replica, desc parkDesc, action func(), cont func()) {
	r.park = desc
	ev := desc.ev
	c := r.Core()
	// As at the rendezvous park: only the spin budget is time-driven, and
	// the rest is framework words and the halt flag.
	s.park(c, r.barrierStart+s.cfg.BarrierTimeout+1, func() bool {
		if s.halted {
			return true
		}
		if s.sh.word(wVoteRelease) >= ev {
			return true
		}
		if s.allVotedAt(ev) {
			s.completeEventBarrier(ev, action)
			return true
		}
		return c.Cycles-r.barrierStart > s.cfg.BarrierTimeout
	}, func() {
		switch {
		case s.halted:
			c.Halt()
		case s.sh.word(wVoteRelease) >= ev:
			outcome := s.sh.word(wVoteOutcome)
			if outcome != 0 && outcome != ^uint64(0) && int(outcome-1) == r.ID {
				c.SetOffline()
				return
			}
			if s.rec != nil {
				wait := c.Cycles - r.barrierStart
				s.trEvent(r, trace.KindBarrierRelease, ev, wait)
				s.met.BarrierWait.Observe(wait)
			}
			c.AddStall(40) // barrier bookkeeping
			cont()
		default:
			if s.eventBarrierTimeout(r, ev) {
				if !s.sh.alive(r.ID) {
					c.SetOffline()
					return
				}
				s.eventBarrier(r, desc, action, cont)
			}
		}
	})
}

// allVotedAt reports whether every alive replica has arrived at event ev
// (or later) of the per-syscall vote sequence.
func (s *System) allVotedAt(ev uint64) bool {
	for m := s.aliveSet(); m != 0; m = m.rest() {
		if s.sh.repWord(m.first(), rwVoteEvent) < ev {
			return false
		}
	}
	return true
}

// completeEventBarrier compares the published vote checksums, handles a
// failed vote, runs the device-side action, and releases the barrier.
func (s *System) completeEventBarrier(ev uint64, action func()) {
	s.stats.Votes++
	alive, ok := s.voters("event-barrier vote")
	if !ok {
		return
	}
	ref := s.sh.repWord(alive.first(), rwVoteSum)
	equal := true
	for m := alive.rest(); m != 0; m = m.rest() {
		if s.sh.repWord(m.first(), rwVoteSum) != ref {
			equal = false
			break
		}
	}
	if s.rec != nil {
		s.met.Votes.Inc()
		outcome := uint64(0)
		if !equal {
			outcome = 1
		}
		s.trSys(trace.KindVote, ev, outcome)
	}
	if !equal {
		// The fault-vote algorithm operates on the published comparison
		// values: copy the per-syscall vote sums into the checksum array
		// Listing 5 reads, so consensus reflects this vote, not a stale
		// rendezvous signature.
		for m := alive; m != 0; m = m.rest() {
			rid := m.first()
			s.sh.setRepWord(rid, rwChecksum, s.sh.repWord(rid, rwVoteSum))
		}
		s.handleVoteFailure()
		if s.halted {
			return
		}
	}
	if action != nil {
		action()
	}
	s.sh.setWord(wVoteRelease, ev)
}
