package core

import (
	"errors"
	"fmt"

	"rcoe/internal/kernel"
	"rcoe/internal/trace"
)

// Re-integration (§IV-C): upgrading a downgraded DMR system back to TMR
// by bringing an off-lined replica back online. The paper describes the
// mechanism — "copying all kernel and user state of the present
// non-primary replica to the new replica" — but leaves it unimplemented
// ("for now [we] require a full reboot"). This implementation follows the
// described design:
//
//  1. The system quiesces: re-integration happens while the surviving
//     replicas sit at a completed rendezvous, so no replica is mid-event.
//  2. A surviving non-primary donor's entire physical partition is copied
//     into the returning replica's partition, giving it identical user
//     memory, kernel contexts, signature accumulator and event counter.
//  3. The donor's kernel bookkeeping (thread table, scheduler state) is
//     cloned, and the returning core is started at the donor's precise
//     user state.
//  4. The replica rejoins the alive mask; from the next synchronisation
//     on it votes like any other replica.
//
// The copy cost is charged to the survivors (they wait while state is
// transferred), which is the availability price §IV-C anticipates.

// ErrReintegrate wraps re-integration failures.
var ErrReintegrate = errors.New("core: reintegration failed")

// reintegrateCostPerPage is the cycles charged per copied 4 KiB page,
// standing in for the memcpy plus cache cleaning a real transfer needs.
const reintegrateCostPerPage = 180

// Reintegrate brings the off-lined replica rid back into the
// configuration by cloning a surviving non-primary replica's state. The
// system must be idle-ish: the call synchronises on the machine being
// outside any open rendezvous. For re-integration under load, use
// RequestReintegrate instead.
func (s *System) Reintegrate(rid int) error {
	if err := s.reintegrateCheck(rid); err != nil {
		return err
	}
	// Quiesce: run until no synchronisation generation is open, so every
	// survivor is executing user code (or idling) at a consistent point.
	if err := s.m.RunUntil(func() bool { return !s.syncPending() && !s.halted }, 50_000_000); err != nil {
		return fmt.Errorf("%w: could not quiesce: %v", ErrReintegrate, err)
	}
	if s.halted {
		return fmt.Errorf("%w: system halted while quiescing", ErrReintegrate)
	}
	return s.doReintegrate(rid)
}

// RequestReintegrate schedules replica rid for live re-integration while
// the workload keeps running: the clone is applied at the next completed
// rendezvous (the natural quiesce point — every survivor has just voted
// and released, so no replica is mid-event). Poll ReintegrateOutcome, or
// Stats().Reintegrations, to observe completion.
func (s *System) RequestReintegrate(rid int) error {
	if err := s.reintegrateCheck(rid); err != nil {
		return err
	}
	s.reintegratePending = rid + 1
	s.reintegrateErr = nil
	s.reintegrateReqCycle = s.m.Now()
	return nil
}

// ReintegrateOutcome reports whether a requested live re-integration is
// still pending, and the error (nil on success) of the last applied one.
func (s *System) ReintegrateOutcome() (pending bool, err error) {
	return s.reintegratePending != 0, s.reintegrateErr
}

// applyPendingReintegrate runs a requested live re-integration at the
// completed-rendezvous quiesce point (called by the last replica leaving
// a rendezvous, after the synchronisation words are cleared).
func (s *System) applyPendingReintegrate() {
	if s.reintegratePending == 0 || s.halted {
		return
	}
	rid := s.reintegratePending - 1
	s.reintegratePending = 0
	if err := s.reintegrateCheck(rid); err != nil {
		s.reintegrateErr = err
		return
	}
	s.reintegrateErr = s.doReintegrate(rid)
	if s.met != nil && s.reintegrateErr == nil {
		s.met.ReintegrationWindow.Observe(s.m.Now() - s.reintegrateReqCycle)
	}
}

// reintegrateCheck validates that replica rid is eligible for
// re-integration.
func (s *System) reintegrateCheck(rid int) error {
	if s.halted {
		return fmt.Errorf("%w: system is halted", ErrReintegrate)
	}
	if rid < 0 || rid >= len(s.reps) {
		return fmt.Errorf("%w: no replica %d", ErrReintegrate, rid)
	}
	if s.sh.alive(rid) {
		return fmt.Errorf("%w: replica %d is already alive", ErrReintegrate, rid)
	}
	if s.cfg.Mode == ModeNone {
		return fmt.Errorf("%w: baseline systems have no replicas to restore", ErrReintegrate)
	}
	return nil
}

// doReintegrate performs the clone. The caller guarantees the system is
// quiesced (no open rendezvous) and rid passed reintegrateCheck.
func (s *System) doReintegrate(rid int) error {
	donor := s.pickDonor()
	if donor == nil {
		return fmt.Errorf("%w: no surviving non-primary donor", ErrReintegrate)
	}
	target := s.reps[rid]

	// Copy the donor's entire partition: kernel canary, contexts, the
	// signature block, user text/data/stacks.
	dLay := donor.K.Layout()
	tLay := target.K.Layout()
	if dLay.Size != tLay.Size {
		return fmt.Errorf("%w: partition size mismatch", ErrReintegrate)
	}
	mem := s.m.Mem()
	buf, err := mem.Read(dLay.Base, int(dLay.Size))
	if err != nil {
		return fmt.Errorf("%w: read donor partition: %v", ErrReintegrate, err)
	}
	if err := mem.Write(tLay.Base, buf); err != nil {
		return fmt.Errorf("%w: write target partition: %v", ErrReintegrate, err)
	}
	// The canary pattern is replica-specific; regenerate the target's.
	freshKernel, err := kernel.New(rid, s.m.Core(rid), tLay)
	if err != nil {
		return fmt.Errorf("%w: rebuild kernel: %v", ErrReintegrate, err)
	}
	// Clone the donor's scheduling state onto the fresh kernel, with the
	// address space rebased onto the target partition, then restore the
	// donor's signature block (kernel.New zeroed it).
	if err := freshKernel.CloneFrom(donor.K); err != nil {
		return fmt.Errorf("%w: clone kernel state: %v", ErrReintegrate, err)
	}
	sigBuf, err := mem.Read(dLay.SigPA(), 4*8)
	if err == nil {
		err = mem.Write(tLay.SigPA(), sigBuf)
	}
	if err != nil {
		return fmt.Errorf("%w: copy signature block: %v", ErrReintegrate, err)
	}
	target.K = freshKernel
	target.finished = donor.finished
	target.chasing = false
	target.stallPending = false
	// The fresh kernel carries none of the old one's hooks: re-wire the
	// flight recorder so ticks keep tracing after re-integration.
	s.wireKernelTrace(target)

	// Mirror the donor's published shared-block state so the next
	// rendezvous sees a consistent arrival history.
	for w := 0; w < repBlockWords; w++ {
		s.sh.setRepWord(rid, w, s.sh.repWord(donor.ID, w))
	}

	// Start the core at the donor's exact user state.
	dc := donor.Core()
	tc := s.m.Core(rid)
	tc.Regs = dc.Regs
	tc.UserBranches = dc.UserBranches
	s.m.StartCore(rid, dc.PC, freshKernel.AddrSpace())
	if donor.K.CurrentTID() < 0 {
		// The donor is idle or parked in the kernel; park the newcomer
		// the same way.
		if donor.finished {
			s.finishedPark(target)
		} else {
			s.goIdle(target)
		}
	}

	// Rejoin the configuration and charge the transfer to the survivors.
	s.sh.setWord(wAliveMask, s.sh.word(wAliveMask)|1<<uint(rid))
	pages := int(dLay.Size / 4096)
	for m := s.aliveSet(); m != 0; m = m.rest() {
		s.reps[m.first()].Core().AddStall(pages * reintegrateCostPerPage / 4)
	}
	s.stats.Reintegrations++
	s.trSys(trace.KindReintegrate, uint64(rid), uint64(donor.ID))
	if s.met != nil {
		s.met.Reintegs.Inc()
	}
	return nil
}

// pickDonor returns a surviving non-primary replica, or the primary only
// if it is the sole survivor (in which case nil is returned, since §IV-C
// clones from a non-primary).
func (s *System) pickDonor() *Replica {
	primary := s.Primary()
	for m := s.aliveSet(); m != 0; m = m.rest() {
		if rid := m.first(); rid != primary {
			return s.reps[rid]
		}
	}
	return nil
}
