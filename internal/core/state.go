package core

import (
	"bytes"
	"fmt"
	"sort"

	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/snapshot"
	"rcoe/internal/trace"
)

// This file implements snapshot.Snapshotter for the replicated system:
// the checkpoint/restore subsystem's top layer. A snapshot captures the
// complete simulated state — machine (memory, cores, bus, hard-fault
// devices), per-replica kernels, and the replication layer's host-side
// control state — so that a restored system evolves bit-identically to
// the original (the snapshot determinism tests enforce it).
//
// Park closures are host-side functions and cannot be serialized.
// Instead, every park site records a parkDesc on its Replica, and the
// park installers are split from their side-effect prologues (the arm*
// functions) so a restore can re-arm an equivalent park: same condition,
// same completion, same spin budget, same wake hint.
//
// Deliberately NOT serialized (host-side or derived):
//   - accelerator settings (fast-forward, exec cache): the target keeps
//     its own, making snapshots portable across accelerator combos;
//   - the trace/metrics configuration: a snapshot saved without tracing
//     restores into a tracing system (replay triage relies on this);
//   - the divergence report and hooks (devWindows, primaryChange): both
//     are construction-time wiring;
//   - the preemption timer's tick cache: lazily re-derived.

// parkKind identifies which park site a replica's core is blocked at.
type parkKind int

const (
	parkNone parkKind = iota
	// parkRendezvous is the kernel-barrier spin (parkAtRendezvous).
	parkRendezvous
	// parkFinished is the completed-workload park (finishedPark).
	parkFinished
	// parkIdle is the no-runnable-thread park (goIdle).
	parkIdle
	// parkStall is the injected-stall park (consumeStall).
	parkStall
	// parkEventVote is a per-syscall vote barrier (SigSync).
	parkEventVote
	// parkEventMemAccess is an FT_Mem_Access event barrier.
	parkEventMemAccess
	// parkEventMemRep is an FT_Mem_Rep event barrier.
	parkEventMemRep
)

// parkDesc records everything needed to re-arm a park after restore:
// the site kind plus the arguments its closures captured.
type parkDesc struct {
	kind parkKind
	// gen is the rendezvous generation (parkRendezvous).
	gen uint64
	// ev is the event number (event barriers).
	ev uint64
	// num and args are the syscall number and argument registers
	// (parkEventVote, parkEventMemAccess).
	num  int32
	args [4]uint64
	// va and n are the buffer address and length (parkEventMemRep).
	va, n uint64
}

// restoredError reconstructs a serialized error value: the message is
// preserved verbatim and the ErrReintegrate identity survives errors.Is.
type restoredError struct {
	msg     string
	reinteg bool
}

func (e *restoredError) Error() string { return e.msg }

func (e *restoredError) Unwrap() error {
	if e.reinteg {
		return ErrReintegrate
	}
	return nil
}

// branchSiteKeys returns the configured branch sites in sorted order (the
// deterministic digest form).
func (c Config) branchSiteKeys() []uint64 {
	keys := make([]uint64, 0, len(c.BranchSites))
	for va, on := range c.BranchSites {
		if on {
			keys = append(keys, va)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// SaveState implements snapshot.Snapshotter: a behavioural config digest,
// the replication layer's host-side control state, one section per
// replica kernel, the observability state, and the machine sections.
func (s *System) SaveState(w *snapshot.Writer) error {
	e := w.Section("sys.meta")
	e.Int(int(s.cfg.Mode))
	e.Int(s.cfg.Replicas)
	e.Int(int(s.cfg.Sig))
	e.String(s.cfg.Profile.Name)
	e.Int(s.cfg.MemBytes)
	e.U64(s.cfg.PartitionBytes)
	e.U64(s.cfg.TickCycles)
	e.U64(s.cfg.BarrierTimeout)
	e.U64(s.cfg.watchdogCycles())
	e.Bool(s.cfg.Masking)
	e.Bool(s.cfg.ExceptionBarriers)
	e.Bool(s.cfg.ForceCompilerCounting)
	e.Bool(s.cfg.VM)
	e.Bool(s.cfg.Decorrelate)
	e.U64(s.cfg.LayoutSeed)
	e.U64(s.cfg.TraceSeed)
	e.U64s(s.cfg.branchSiteKeys())

	e = w.Section("sys")
	e.U64(s.syncCounter)
	e.U64(s.releaseGen)
	e.U64(s.releasedSet)
	e.U64(s.voteFailGen)
	e.U64(s.lastSyncOpen)
	e.Bool(s.halted)
	e.String(s.haltReason)
	e.Bool(s.finished)
	e.Int(s.reintegratePending)
	if s.reintegrateErr != nil {
		e.Bool(true)
		e.String(s.reintegrateErr.Error())
		e.Bool(isReintegrateErr(s.reintegrateErr))
	} else {
		e.Bool(false)
	}
	e.U64(s.reintegrateReqCycle)
	e.U64(s.stats.Syncs)
	e.U64(s.stats.Votes)
	e.U64(s.stats.SyscallVotes)
	e.U64(s.stats.VMExits)
	e.U64(s.stats.InputBytes)
	e.U64(s.stats.DowngradeCycles)
	e.U64(s.stats.Reintegrations)
	e.U64(s.stats.Ejections)
	e.U64(s.stats.Downgrades)
	e.U64(s.stats.WatchdogProbes)
	e.Int(len(s.detections))
	for _, d := range s.detections {
		e.Int(int(d.Kind))
		e.U64(d.Cycle)
		e.Int(d.Replica)
		e.Bool(d.Masked)
	}
	for _, r := range s.reps {
		e.Bool(r.chasing)
		e.U64(r.chaseTarget.Events)
		e.U64(r.chaseTarget.Branches)
		e.U64(r.chaseTarget.IP)
		e.U64(r.chaseTarget.BlockRem)
		e.Bool(r.finished)
		e.Bool(r.stallPending)
		e.U64(r.barrierStart)
		e.U64(r.UserFaults)
		e.U64(r.UserMemFaults)
		e.U64(r.DebugExceptions)
		e.Int(int(r.park.kind))
		e.U64(r.park.gen)
		e.U64(r.park.ev)
		e.I64(int64(r.park.num))
		for _, a := range r.park.args {
			e.U64(a)
		}
		e.U64(r.park.va)
		e.U64(r.park.n)
	}

	for _, r := range s.reps {
		r.K.SaveState(w.Section(fmt.Sprintf("sys.kernel.%d", r.ID)))
	}

	e = w.Section("sys.trace")
	if s.rec != nil {
		var buf bytes.Buffer
		if err := s.rec.Save(&buf); err != nil {
			return err
		}
		e.Bool(true)
		e.Bytes(buf.Bytes())
	} else {
		e.Bool(false)
	}

	e = w.Section("sys.metrics")
	if s.met != nil {
		e.Bool(true)
		s.met.SaveState(e)
	} else {
		e.Bool(false)
	}

	return s.m.SaveState(w)
}

func isReintegrateErr(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrReintegrate {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// LoadState restores a snapshot taken by SaveState into this system. The
// target must be built through the same construction path (NewSystem with
// a behaviourally identical Config, plus Load of the same program);
// mismatches return snapshot.ErrIncompatible. Accelerator and trace
// settings may differ — the target keeps its own.
func (s *System) LoadState(snap *snapshot.Snapshot) error {
	if err := s.verifyMeta(snap); err != nil {
		return err
	}
	// Machine first: memory (including the shared framework region the
	// park conditions read), cores, bus, hard-fault devices.
	if err := s.m.LoadState(snap); err != nil {
		return err
	}
	for _, r := range s.reps {
		d, err := snap.Section(fmt.Sprintf("sys.kernel.%d", r.ID))
		if err != nil {
			return err
		}
		if err := r.K.LoadState(d); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	if err := s.loadSys(snap); err != nil {
		return err
	}
	// Host-side control state is in place: re-arm the park closures for
	// every parked core, preserving the saved wake hint (Park resets it).
	for _, r := range s.reps {
		if err := s.rearmPark(r); err != nil {
			return err
		}
	}
	if err := s.loadObservability(snap); err != nil {
		return err
	}
	// Derived state: the tick cache re-derives from Now(), the captured
	// divergence report belongs to the saved run's detection, not ours.
	if s.timer != nil {
		s.timer.next = 0
	}
	s.report = nil
	return nil
}

// verifyMeta checks the behavioural config digest against this system's.
func (s *System) verifyMeta(snap *snapshot.Snapshot) error {
	d, err := snap.Section("sys.meta")
	if err != nil {
		return err
	}
	checks := []struct {
		field  string
		target interface{}
		snap   interface{}
	}{
		{"mode", int(s.cfg.Mode), d.Int()},
		{"replicas", s.cfg.Replicas, d.Int()},
		{"sig", int(s.cfg.Sig), d.Int()},
		{"profile", s.cfg.Profile.Name, d.String()},
		{"mem-bytes", s.cfg.MemBytes, d.Int()},
		{"partition-bytes", s.cfg.PartitionBytes, d.U64()},
		{"tick-cycles", s.cfg.TickCycles, d.U64()},
		{"barrier-timeout", s.cfg.BarrierTimeout, d.U64()},
		{"watchdog-cycles", s.cfg.watchdogCycles(), d.U64()},
		{"masking", s.cfg.Masking, d.Bool()},
		{"exception-barriers", s.cfg.ExceptionBarriers, d.Bool()},
		{"force-compiler-counting", s.cfg.ForceCompilerCounting, d.Bool()},
		{"vm", s.cfg.VM, d.Bool()},
		{"decorrelate", s.cfg.Decorrelate, d.Bool()},
		{"layout-seed", s.cfg.LayoutSeed, d.U64()},
		{"trace-seed", s.cfg.TraceSeed, d.U64()},
		{"branch-sites", fmt.Sprint(s.cfg.branchSiteKeys()), fmt.Sprint(d.U64s())},
	}
	if err := d.Close(); err != nil {
		return err
	}
	for _, c := range checks {
		if c.target != c.snap {
			return snapshot.IncompatibleError("sys.meta", c.field, c.target, c.snap)
		}
	}
	return nil
}

// loadSys restores the replication layer's host-side control state.
func (s *System) loadSys(snap *snapshot.Snapshot) error {
	d, err := snap.Section("sys")
	if err != nil {
		return err
	}
	s.syncCounter = d.U64()
	s.releaseGen = d.U64()
	s.releasedSet = d.U64()
	s.voteFailGen = d.U64()
	s.lastSyncOpen = d.U64()
	s.halted = d.Bool()
	s.haltReason = d.String()
	s.finished = d.Bool()
	s.reintegratePending = d.Int()
	s.reintegrateErr = nil
	if d.Bool() {
		s.reintegrateErr = &restoredError{msg: d.String(), reinteg: d.Bool()}
	}
	s.reintegrateReqCycle = d.U64()
	s.stats = Stats{
		Syncs:           d.U64(),
		Votes:           d.U64(),
		SyscallVotes:    d.U64(),
		VMExits:         d.U64(),
		InputBytes:      d.U64(),
		DowngradeCycles: d.U64(),
		Reintegrations:  d.U64(),
		Ejections:       d.U64(),
		Downgrades:      d.U64(),
		WatchdogProbes:  d.U64(),
	}
	ndet := d.Int()
	s.detections = nil
	for i := 0; i < ndet && d.Err() == nil; i++ {
		s.detections = append(s.detections, Detection{
			Kind:    DetectionKind(d.Int()),
			Cycle:   d.U64(),
			Replica: d.Int(),
			Masked:  d.Bool(),
		})
	}
	for _, r := range s.reps {
		r.chasing = d.Bool()
		r.chaseTarget = logicalTime{
			Events:   d.U64(),
			Branches: d.U64(),
			IP:       d.U64(),
			BlockRem: d.U64(),
		}
		r.finished = d.Bool()
		r.stallPending = d.Bool()
		r.barrierStart = d.U64()
		r.UserFaults = d.U64()
		r.UserMemFaults = d.U64()
		r.DebugExceptions = d.U64()
		r.park = parkDesc{
			kind: parkKind(d.Int()),
			gen:  d.U64(),
			ev:   d.U64(),
			num:  int32(d.I64()),
		}
		for i := range r.park.args {
			r.park.args[i] = d.U64()
		}
		r.park.va = d.U64()
		r.park.n = d.U64()
	}
	return d.Close()
}

// rearmPark reinstalls the park closures for a parked core from its
// recorded descriptor. The machine layer restored the core's parked state
// and wake hint but cleared the (unserializable) closures; the arm*
// installers rebuild them without re-running the park sites' side
// effects. Park resets the wake hint, so it is reapplied afterwards.
func (s *System) rearmPark(r *Replica) error {
	c := r.Core()
	if c.State != machine.CoreParked {
		return nil
	}
	wake := c.ParkWake()
	switch r.park.kind {
	case parkRendezvous:
		s.armRendezvousPark(r, r.park.gen)
	case parkFinished:
		s.finishedPark(r)
	case parkIdle:
		s.armIdlePark(r)
	case parkStall:
		s.armStallPark(r)
	case parkEventVote:
		num, args := r.park.num, r.park.args
		s.armEventBarrier(r, r.park, nil, func() {
			s.dispatch(r, num, args)
		})
	case parkEventMemAccess:
		action, cont := s.ftMemAccessFuncs(r, r.park.args)
		s.armEventBarrier(r, r.park, action, cont)
	case parkEventMemRep:
		action, cont := s.ftMemRepFuncs(r, r.park.va, r.park.n)
		s.armEventBarrier(r, r.park, action, cont)
	default:
		return fmt.Errorf("%w: replica %d parked with no park descriptor",
			snapshot.ErrBadSnapshot, r.ID)
	}
	c.ParkWakeAt(wake)
	return nil
}

// loadObservability restores the flight recorder and metric set. Both
// follow the same rule: restored exactly when the target records with a
// matching shape, fresh (re-recording from the restore point) otherwise —
// emptied, when the target is a live system that has already recorded. A
// snapshot saved without tracing restores cleanly into a tracing system —
// that is the replay-triage path.
func (s *System) loadObservability(snap *snapshot.Snapshot) error {
	d, err := snap.Section("sys.trace")
	if err != nil {
		return err
	}
	restored := false
	if d.Bool() {
		raw := d.Bytes()
		if s.rec != nil {
			loaded, lerr := trace.Load(bytes.NewReader(raw))
			if lerr != nil {
				return fmt.Errorf("%w: embedded trace: %v", snapshot.ErrBadSnapshot, lerr)
			}
			if loaded.NumReplicas() == s.rec.NumReplicas() &&
				loaded.System().Cap() == s.rec.System().Cap() {
				s.rec = loaded
				restored = true
			}
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	if s.rec != nil && !restored {
		s.rec = trace.NewRecorder(s.cfg.Replicas, s.cfg.Trace.RingEvents)
	}
	d, err = snap.Section("sys.metrics")
	if err != nil {
		return err
	}
	if d.Bool() {
		m := s.met
		if m == nil {
			m = metrics.New() // scratch: consume the payload so Close is exact
		}
		if err := m.LoadState(d); err != nil {
			return err
		}
	} else if s.met != nil {
		*s.met = metrics.Set{}
	}
	return d.Close()
}
