package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/snapshot"
	"rcoe/internal/trace"
)

// This file is the replicated system's state walk: the checkpoint/restore
// subsystem's top layer. A snapshot captures the complete simulated state
// — machine (memory, cores, bus, hard-fault devices), per-replica kernels,
// and the replication layer's host-side control state — so that a
// restored system evolves bit-identically to the original (the snapshot
// determinism tests enforce it).
//
// Park closures are host-side functions and cannot be serialized.
// Instead, every park site records a parkDesc on its Replica, and the
// park installers are split from their side-effect prologues (the arm*
// functions) so a restore can re-arm an equivalent park: same condition,
// same completion, same spin budget, same wake hint.
//
// What is deliberately outside the boundary (accelerator and trace
// settings, the divergence report, hooks, the tick cache) is listed, with
// reasons, in internal/snapshot/boundary_test.go.

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

// SaveState implements snapshot.Snapshotter.
func (s *System) SaveState(w *snapshot.Writer) error { return w.Walk(s.State) }

// LoadState implements snapshot.Snapshotter. The target must be built
// through the same construction path (NewSystem with a behaviourally
// identical Config, plus Load of the same program); mismatches return
// snapshot.ErrIncompatible. Accelerator and trace settings may differ —
// the target keeps its own.
func (s *System) LoadState(snap *snapshot.Snapshot) error { return snap.Walk(s.State) }

// State walks the system's sections: a behavioural config digest, the
// replication layer's host-side control state, one section per replica
// kernel, the observability state, and the machine sections.
func (s *System) State(c *snapshot.Codec) {
	c.Section("sys.meta", s.meta)
	c.Section("sys", s.control)
	for _, r := range s.reps {
		c.Section(fmt.Sprintf("sys.kernel.%d", r.ID), r.K.State)
	}
	c.Section("sys.trace", s.recorder)
	c.Section("sys.metrics", s.metricSet)
	s.m.State(c)
	if !c.Loading() || c.Err() != nil {
		return
	}
	// Memory (including the shared framework region the park conditions
	// read), cores and control state are in place: re-arm the park closures
	// for every parked core, preserving the saved wake hint.
	for _, r := range s.reps {
		if err := s.rearmPark(r); err != nil {
			c.Fail(err)
			return
		}
	}
	// Derived state: the tick cache re-derives from Now(), the captured
	// divergence report belongs to the saved run's detection, not ours.
	if s.timer != nil {
		s.timer.next = 0
	}
	s.report = nil
}

// meta walks the behavioural config digest.
func (s *System) meta(c *snapshot.Codec) {
	c.Check("mode", int(s.cfg.Mode))
	c.Check("replicas", s.cfg.Replicas)
	c.Check("sig", int(s.cfg.Sig))
	c.Check("profile", s.cfg.Profile.Name)
	c.Check("mem-bytes", s.cfg.MemBytes)
	c.Check("partition-bytes", s.cfg.PartitionBytes)
	c.Check("tick-cycles", s.cfg.TickCycles)
	c.Check("barrier-timeout", s.cfg.BarrierTimeout)
	c.Check("watchdog-cycles", s.cfg.watchdogCycles())
	c.Check("masking", s.cfg.Masking)
	c.Check("exception-barriers", s.cfg.ExceptionBarriers)
	c.Check("force-compiler-counting", s.cfg.ForceCompilerCounting)
	c.Check("vm", s.cfg.VM)
	c.Check("decorrelate", s.cfg.Decorrelate)
	c.Check("layout-seed", s.cfg.LayoutSeed)
	c.Check("trace-seed", uint64(0)) // RCOESNP v1 carries a trace seed; nothing sets one
	sites := s.cfg.branchSiteKeys()
	c.Check("branch-sites", len(sites))
	for _, va := range sites {
		c.Check("branch-site", va)
	}
}

// control walks the replication layer's host-side control state.
func (s *System) control(c *snapshot.Codec) {
	c.U64(&s.syncCounter)
	c.U64(&s.releaseGen)
	c.U64(&s.releasedSet)
	c.U64(&s.voteFailGen)
	c.U64(&s.lastSyncOpen)
	c.Bool(&s.halted)
	c.String(&s.haltReason)
	c.Bool(&s.finished)
	c.Int(&s.reintegratePending)
	// An error value crosses as its message plus whether it is an
	// ErrReintegrate, the one identity callers test for.
	hasErr := s.reintegrateErr != nil
	if c.Bool(&hasErr); !hasErr {
		s.reintegrateErr = nil
	} else {
		rerr := &restoredError{}
		if !c.Loading() {
			rerr.msg, rerr.reinteg = s.reintegrateErr.Error(), errors.Is(s.reintegrateErr, ErrReintegrate)
		}
		c.String(&rerr.msg)
		c.Bool(&rerr.reinteg)
		if c.Loading() {
			s.reintegrateErr = rerr
		}
	}
	c.U64(&s.reintegrateReqCycle)
	c.U64(&s.stats.Syncs)
	c.U64(&s.stats.Votes)
	c.U64(&s.stats.SyscallVotes)
	c.U64(&s.stats.VMExits)
	c.U64(&s.stats.InputBytes)
	c.U64(&s.stats.DowngradeCycles)
	c.U64(&s.stats.Reintegrations)
	c.U64(&s.stats.Ejections)
	c.U64(&s.stats.Downgrades)
	c.U64(&s.stats.WatchdogProbes)
	snapshot.List(c, &s.detections, func(d *Detection) {
		snapshot.Word(c, &d.Kind)
		c.U64(&d.Cycle)
		c.Int(&d.Replica)
		c.Bool(&d.Masked)
	})
	for _, r := range s.reps {
		r.state(c)
	}
}

// state walks one replica's block of the "sys" section.
func (r *Replica) state(c *snapshot.Codec) {
	c.Bool(&r.chasing)
	c.U64(&r.chaseTarget.Events)
	c.U64(&r.chaseTarget.Branches)
	c.U64(&r.chaseTarget.IP)
	c.U64(&r.chaseTarget.BlockRem)
	c.Bool(&r.finished)
	c.Bool(&r.stallPending)
	c.U64(&r.barrierStart)
	c.U64(&r.UserFaults)
	c.U64(&r.UserMemFaults)
	c.U64(&r.DebugExceptions)
	snapshot.Word(c, &r.park.kind)
	c.U64(&r.park.gen)
	c.U64(&r.park.ev)
	snapshot.Word(c, &r.park.num)
	for i := range r.park.args {
		c.U64(&r.park.args[i])
	}
	c.U64(&r.park.va)
	c.U64(&r.park.n)
}

// rearmPark reinstalls the park closures for a parked core from its
// recorded descriptor. The machine layer restored the core's parked state
// but cleared the (unserializable) closures; the arm* installers rebuild
// them without re-running the park sites' side effects, and declare the
// same wake cycle again from restored state (barrierStart).
func (s *System) rearmPark(r *Replica) error {
	if r.Core().State != machine.CoreParked {
		return nil
	}
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
	return nil
}

// recorder walks the flight recorder as one embedded blob (internal/trace
// owns its format). Loading follows the rule the metric set shares: restored
// exactly when the target records with a matching shape, fresh (re-recording
// from the restore point) otherwise — emptied, when the target is a live
// system that has already recorded. A snapshot saved without tracing
// restores cleanly into a tracing system — that is the replay-triage path.
func (s *System) recorder(c *snapshot.Codec) {
	has := s.rec != nil
	var raw []byte
	if has && !c.Loading() {
		var buf bytes.Buffer
		c.Fail(s.rec.Save(&buf))
		raw = buf.Bytes()
	}
	if c.Bool(&has); has {
		c.Bytes(&raw)
	}
	if !c.Loading() || c.Err() != nil || s.rec == nil {
		return
	}
	if has {
		// The shape is checked before Load allocates rings of a size the
		// (untrusted) blob declares.
		replicas, capacity, err := trace.Shape(bytes.NewReader(raw))
		if err == nil && replicas == s.rec.NumReplicas() && capacity == s.rec.System().Cap() {
			var loaded *trace.Recorder
			if loaded, err = trace.Load(bytes.NewReader(raw)); err == nil {
				s.rec = loaded
				return
			}
		}
		if err != nil {
			c.Fail(fmt.Errorf("%w: embedded trace: %v", snapshot.ErrBadSnapshot, err))
			return
		}
	}
	s.rec = trace.NewRecorder(s.cfg.Replicas, s.cfg.Trace.RingEvents)
}

// metricSet walks the metric set, when there is one.
func (s *System) metricSet(c *snapshot.Codec) {
	has := s.met != nil
	if c.Bool(&has); has {
		m := s.met
		if m == nil {
			m = metrics.New() // scratch: consume the payload so the section closes exactly
		}
		m.State(c)
	} else if s.met != nil {
		*s.met = metrics.Set{}
	}
}
