package core

import (
	"errors"
	"fmt"

	"rcoe/internal/isa"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/trace"
)

// ErrHalted is returned by Run when the system fail-stopped.
var ErrHalted = errors.New("core: system halted")

// Replica bundles one software-stack replica: a kernel on a dedicated
// core over a private memory partition.
type Replica struct {
	ID int
	K  *kernel.Kernel

	// chasing is true while the replica is catching up to the leader
	// under CC-RCoE with an armed breakpoint.
	chasing     bool
	chaseTarget logicalTime

	// finished is true once the replica's workload completed.
	finished bool

	// stallPending marks the replica to hang at its next kernel entry
	// (injected fault: a core that stops making progress).
	stallPending bool

	// barrierStart is the core cycle at which the replica began waiting
	// on the current rendezvous (for timeout detection).
	barrierStart uint64

	// UserFaults counts user-level exceptions taken by this replica;
	// UserMemFaults is the memory-fault subset (the fault-injection
	// campaigns report the two separately, as in Table VII).
	UserFaults    uint64
	UserMemFaults uint64
	// DebugExceptions counts breakpoint and single-step exceptions.
	DebugExceptions uint64

	// park describes the park this replica's core most recently entered
	// (the wait closures themselves cannot be serialized; the descriptor
	// lets a snapshot restore re-arm an equivalent park). It is recorded
	// by the arm* installers and never cleared — stale while running.
	park parkDesc
}

// Core returns the replica's CPU core.
func (r *Replica) Core() *machine.Core { return r.K.Core() }

// Stats aggregates system-level counters for reporting.
type Stats struct {
	Syncs           uint64 // completed rendezvous
	Votes           uint64 // signature comparisons
	SyscallVotes    uint64 // per-syscall votes (SigSync)
	VMExits         uint64 // VM exits forced (VM configurations)
	InputBytes      uint64 // bytes replicated through the input buffer
	DowngradeCycles uint64 // cycles consumed by the last downgrade
	Reintegrations  uint64 // completed DMR->TMR upgrades (§IV-C)
	Ejections       uint64 // stragglers voted out on barrier timeout
	Downgrades      uint64 // faulty replicas voted out by signature (§IV-A)
	WatchdogProbes  uint64 // probe rendezvous opened by the sync watchdog
}

// System is a replicated (or baseline) software stack on one machine.
type System struct {
	cfg  Config
	m    *machine.Machine
	sh   shared
	reps []*Replica
	// parkGen is the watch every replica park declares (see park): the
	// mutation generation of the page holding every framework word. Nil —
	// no watch, every poll evaluates — when the replica blocks of a very
	// wide configuration (32 replicas or more) spill past that page.
	parkGen *uint64

	syncCounter  uint64 // generation allocator (monotonic)
	releaseGen   uint64 // rendezvous release marker (host-side control)
	releasedSet  uint64 // replicas released from the current rendezvous
	voteFailGen  uint64 // generation whose vote failed (pending masking)
	lastSyncOpen uint64 // machine time the last generation opened (watchdog)

	detections []Detection
	halted     bool
	haltReason string
	finished   bool

	// reintegratePending is rid+1 of a replica awaiting live
	// re-integration at the next completed rendezvous (0 = none);
	// reintegrateErr holds the outcome of the last applied request.
	reintegratePending int
	reintegrateErr     error

	stats Stats

	// rec and met are the flight recorder and metric set — both nil
	// unless Config.Trace.Enabled, so every hook is one nil check when
	// observability is off. report holds the divergence report captured
	// at the first detection (first capture wins until taken).
	rec    *trace.Recorder
	met    *metrics.Set
	report *DivergenceReport

	// reintegrateReqCycle is the machine time of the pending live
	// re-integration request (the re-integration-window metric base).
	reintegrateReqCycle uint64

	devWindows []devWindow

	primaryChange func(newPrimary int)

	// timer is the preemption timer device (nil when TickCycles == 0);
	// kept so a snapshot restore can reset its derived tick cache.
	timer *preemptionTimer
}

// SetPrimaryChangeHook registers a callback invoked after a faulty primary
// is removed and a new one elected. The device harness uses it to
// reconfigure device-side state (e.g. freeing a DMA mailbox the dead
// primary had claimed), standing in for the paper's DMA page-table
// patching (§IV-A).
func (s *System) SetPrimaryChangeHook(f func(newPrimary int)) { s.primaryChange = f }

// devWindow records a registered device MMIO window for SysMapDevice.
type devWindow struct {
	base, size uint64
}

// RegisterDeviceWindow makes a device's MMIO window mappable by drivers
// through SysMapDevice with the given index.
func (s *System) RegisterDeviceWindow(idx int, base, size uint64) {
	for len(s.devWindows) <= idx {
		s.devWindows = append(s.devWindows, devWindow{})
	}
	s.devWindows[idx] = devWindow{base: base, size: size}
}

func (s *System) deviceWindow(idx int) (devWindow, bool) {
	if idx < 0 || idx >= len(s.devWindows) || s.devWindows[idx].size == 0 {
		return devWindow{}, false
	}
	return s.devWindows[idx], true
}

// NewSystem builds the machine, partitions memory, instantiates one
// kernel per replica, and installs the RCoE trap handler.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	need := partBase + uint64(cfg.Replicas)*cfg.PartitionBytes
	if uint64(cfg.MemBytes) < need {
		cfg.MemBytes = int(need)
	}
	m := machine.New(cfg.Profile, cfg.MemBytes)
	if cfg.DisableExecCache {
		m.SetExecCache(false)
	}
	if cfg.DisableSuperblock {
		m.SetSuperblock(false)
	}
	sys := &System{
		cfg: cfg,
		m:   m,
		sh:  shared{mem: m.Mem()},
	}
	var aliveMask uint64
	for rid := 0; rid < cfg.Replicas; rid++ {
		lay := kernel.Layout{Base: PartitionBase(rid, cfg.PartitionBytes), Size: cfg.PartitionBytes}
		k, err := kernel.New(rid, m.Core(rid), lay)
		if err != nil {
			return nil, fmt.Errorf("core: replica %d: %w", rid, err)
		}
		sys.reps = append(sys.reps, &Replica{ID: rid, K: k})
		aliveMask |= 1 << uint(rid)
	}
	sys.parkGen = m.Mem().PageGen(sharedBase, (repBlockBase+cfg.Replicas*repBlockWords)*8)
	sys.sh.setWord(wAliveMask, aliveMask)
	sys.sh.setWord(wPrimary, 0)
	m.SetHandler(sys)
	if cfg.TickCycles > 0 {
		sys.timer = &preemptionTimer{period: cfg.TickCycles}
		m.AddDevice(sys.timer)
	}
	if wd := cfg.watchdogCycles(); wd > 0 && cfg.Mode != ModeNone {
		m.AddDevice(&syncWatchdog{sys: sys, period: wd})
	}
	// All device interrupts initially route to replica 0 (the primary).
	for line := 0; line < 64; line++ {
		m.RouteIRQ(line, 0)
	}
	if cfg.Trace.Enabled {
		sys.rec = trace.NewRecorder(cfg.Replicas, cfg.Trace.RingEvents)
		sys.met = metrics.New()
		for _, r := range sys.reps {
			sys.wireKernelTrace(r)
		}
		// Installed after the boot-time routing loop above so the system
		// ring records only fail-over re-routes, not initialisation.
		m.OnIRQRoute = func(line, coreID int) {
			sys.trSys(trace.KindIRQRoute, uint64(line), uint64(coreID))
		}
	}
	return sys, nil
}

// preemptionTimer raises IRQ line 0 periodically; the kernel turns it into
// replica-wide preemption at an agreed logical time.
type preemptionTimer struct {
	period uint64
	// next caches the earliest cycle >= the last observed Now() that is a
	// multiple of period, so the per-cycle check is one compare instead of
	// a 64-bit division. Ticks may be sparse (a batch runs through
	// windows without device events), so next is re-derived whenever
	// Now() reaches it.
	next uint64
}

// TimerLine is the interrupt line of the preemption timer.
const TimerLine = 0

// Tick implements machine.Device. Fires exactly when Now() is a multiple
// of the period, same as the obvious Now()%period == 0 check.
func (t *preemptionTimer) Tick(m *machine.Machine) {
	now := m.Now()
	if now < t.next {
		return
	}
	if now%t.period == 0 {
		m.RaiseIRQ(TimerLine)
	}
	t.next = now - now%t.period + t.period
}

// NextEvent implements machine.Device: the timer only acts on exact
// multiples of its period.
func (t *preemptionTimer) NextEvent(now uint64) uint64 {
	return now - now%t.period + t.period
}

// syncWatchdog guards the liveness of the synchronisation fabric. Every
// device interrupt routes to the primary, so a primary that silently
// stops responding leaves its peers spinning on input replication (or
// idle) forever: no rendezvous ever opens, and the barrier timeout that
// would identify the straggler never starts counting. When no
// synchronisation has opened for the watchdog period, the device opens a
// probe rendezvous and kicks every alive replica with an IPI. Live
// replicas join the probe from wherever they are — an IPI is an
// asynchronous kernel entry, not a logged event, so signatures are
// unaffected — while a dead replica cannot arrive and is ejected through
// the normal straggler path.
type syncWatchdog struct {
	sys    *System
	period uint64
}

// watchdogPollMask throttles the per-cycle liveness check (shared-word
// reads) to every 1024 cycles; the resolution is irrelevant against
// periods of hundreds of thousands of cycles.
const watchdogPollMask = 1023

// Tick implements machine.Device.
func (w *syncWatchdog) Tick(m *machine.Machine) {
	if m.Now()&watchdogPollMask != 0 {
		return
	}
	s := w.sys
	if s.halted || s.finished || s.syncPending() {
		return
	}
	if m.Now()-s.lastSyncOpen < w.period {
		return
	}
	s.stats.WatchdogProbes++
	s.requestSync(-1, 0, 0)
}

// NextEvent implements machine.Device: the watchdog can only fire at
// a poll boundary once the period since the last opened synchronisation
// has elapsed. Every input consulted here (halt/finish flags, pending
// sync, lastSyncOpen) changes only through core execution, which ends the
// idle window, so the answer stays valid for the window's duration.
func (w *syncWatchdog) NextEvent(now uint64) uint64 {
	s := w.sys
	if s.halted || s.finished || s.syncPending() {
		return machine.NoEvent
	}
	t := s.lastSyncOpen + w.period
	if t <= now {
		t = now + 1
	}
	// Round up to the next poll boundary (multiples of 1024).
	return (t + watchdogPollMask) &^ uint64(watchdogPollMask)
}

// Machine returns the underlying machine (benchmarks and fault injectors
// need raw access).
func (s *System) Machine() *machine.Machine { return s.m }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Replica returns replica rid.
func (s *System) Replica(rid int) *Replica { return s.reps[rid] }

// NumReplicas returns the configured replica count.
func (s *System) NumReplicas() int { return len(s.reps) }

// Primary returns the current primary replica's ID (it changes when a
// faulty primary is removed).
func (s *System) Primary() int { return int(s.sh.word(wPrimary)) }

// Alive reports whether replica rid is still in the configuration.
func (s *System) Alive(rid int) bool { return s.sh.alive(rid) }

// AliveCount returns the number of replicas still alive.
func (s *System) AliveCount() int { return s.aliveSet().count() }

// Detections returns the recorded detection events.
func (s *System) Detections() []Detection {
	return append([]Detection(nil), s.detections...)
}

// Stats returns system counters.
func (s *System) Stats() Stats { return s.stats }

// Halted reports whether the system fail-stopped, with the reason.
func (s *System) Halted() (bool, string) { return s.halted, s.haltReason }

// Finished reports whether all alive replicas completed their workload
// and passed the final vote.
func (s *System) Finished() bool { return s.finished }

// Load loads the same user process into every replica and starts the
// replica cores. Call once before Run. Under Config.Decorrelate each
// replica receives the image under its own layout (virtual shift plus
// physical shuffle); the program and its observable behaviour are
// otherwise identical.
func (s *System) Load(cfg kernel.ProcessConfig) error {
	for _, r := range s.reps {
		rcfg := cfg
		if s.cfg.Decorrelate {
			rcfg.LayoutDelta, rcfg.PhysPad, rcfg.PhysSwap = replicaLayout(s.cfg.LayoutSeed, r.ID)
		}
		if err := r.K.LoadProcess(rcfg); err != nil {
			return fmt.Errorf("core: replica %d: %w", r.ID, err)
		}
		if !r.K.Schedule() {
			return fmt.Errorf("core: replica %d: nothing to schedule", r.ID)
		}
		c := r.Core()
		s.m.StartCore(r.ID, c.PC, r.K.AddrSpace())
	}
	return nil
}

// Run steps the machine until the workload finishes, the system halts, or
// the cycle budget is exhausted (ErrTimeout).
func (s *System) Run(maxCycles uint64) error {
	err := s.m.RunUntil(func() bool { return s.finished || s.halted }, maxCycles)
	if s.halted {
		return fmt.Errorf("%w: %s", ErrHalted, s.haltReason)
	}
	return err
}

// RunCycles steps the machine a fixed number of cycles (server workloads
// that never finish), stopping early — like Run — once the system halts or
// the workload finishes; a finished server must not burn the remaining
// budget.
func (s *System) RunCycles(n uint64) {
	_ = s.m.RunUntil(func() bool { return s.finished || s.halted }, n)
}

// halt fail-stops the whole system.
func (s *System) halt(reason string) {
	if s.halted {
		return
	}
	s.halted = true
	s.haltReason = reason
	s.sh.setWord(wHalted, 1)
	for _, r := range s.reps {
		r.Core().Halt()
	}
}

// InjectStall marks replica rid to hang at its next kernel entry,
// simulating a core that silently stops making progress (the fault class
// behind the paper's barrier-timeout detections). The stall is consumed
// before any rendezvous bookkeeping, so the replica never arrives and its
// peers observe a timeout.
func (s *System) InjectStall(rid int) {
	if rid >= 0 && rid < len(s.reps) {
		s.reps[rid].stallPending = true
	}
}

// consumeStall parks the replica indefinitely. The park wakes only on a
// system halt, or once the replica has been voted out (ejected), at which
// point its core goes offline.
func (s *System) consumeStall(r *Replica) {
	r.stallPending = false
	s.armStallPark(r)
}

// armStallPark installs the stalled-replica park (split from consumeStall
// so a snapshot restore can re-arm it without side effects).
func (s *System) armStallPark(r *Replica) {
	r.park = parkDesc{kind: parkStall}
	c := r.Core()
	// Both halt and ejection happen through other cores executing; time
	// alone never wakes this park. Its inputs are the halt flag (kernel
	// code) and the alive mask (framework page).
	s.park(c, machine.NoEvent, func() bool {
		return s.halted || (s.cfg.Mode != ModeNone && !s.sh.alive(r.ID))
	}, func() {
		if s.halted {
			c.Halt()
			return
		}
		c.SetOffline()
	})
}

// park parks a replica's core on cond, declaring wake (machine.Core.Park)
// and the framework page as its watch: every replica park reads, besides
// its core's cycle count and interrupt latches, only framework words and
// state kernel code writes. A configuration too wide for one page has no
// watch to declare, so there every park declares a wake of 0 and every
// poll evaluates.
func (s *System) park(c *machine.Core, wake uint64, cond func() bool, done func()) {
	if s.parkGen == nil {
		wake = 0
	}
	c.Park(cond, done, wake, s.parkGen)
}

// record appends a detection event. With tracing enabled, the first
// system-level detection (everything but per-thread user faults) freezes
// the rings into a first-divergence report.
func (s *System) record(kind DetectionKind, rid int, masked bool) {
	s.detections = append(s.detections, Detection{
		Kind:    kind,
		Cycle:   s.m.Now(),
		Replica: rid,
		Masked:  masked,
	})
	if kind != DetectUserFault {
		s.captureOnDetection(kind, rid)
	}
}

// timeOf computes a replica's current logical time. Under LC this is the
// event count alone; under CC it is the precise triple, using either the
// PMU or the reserved branch-count register, with the Listing 3 fixup for
// compiler-inserted counters.
func (s *System) timeOf(r *Replica) logicalTime {
	lt := logicalTime{Events: r.K.EventCount()}
	if s.cfg.Mode != ModeCC {
		return lt
	}
	if r.K.CurrentTID() < 0 {
		// Idle or finished: quiescent at the event boundary, ahead of
		// any replica still executing toward it.
		lt.Branches = ^uint64(0)
		lt.IP = ^uint64(0)
		return lt
	}
	c := r.Core()
	if !s.cfg.CompilerCounting() {
		lt.Branches = c.UserBranches
	} else {
		lt.Branches = c.Regs[isa.RBC]
		// Listing 3 race: the counter increment precedes its branch, so
		// a replica stopped exactly at an instrumented branch has
		// already counted the branch it has not yet taken. A zero counter
		// means the increment was consumed before the last reset (the
		// clock was reset exactly at this branch), so there is nothing to
		// subtract — without this guard the adjustment underflows and the
		// replica publishes an astronomical logical time.
		if s.cfg.BranchSites[c.PC] && lt.Branches > 0 {
			lt.Branches--
		}
	}
	lt.IP = c.PC
	lt.BlockRem = s.blockRemaining(r)
	return lt
}

// blockRemaining returns the remaining length if the replica is stopped
// at a rep-style block instruction, else 0. Identifying the instruction
// requires reading user text; inside a VM this needs a guest page-table
// walk (§III-D), which is charged to the core.
func (s *System) blockRemaining(r *Replica) uint64 {
	c := r.Core()
	raw, err := r.K.CopyFromUser(c.PC, isa.InstrBytes)
	if err != nil {
		return 0
	}
	ins, err := isa.Decode(raw)
	if err != nil || !ins.Op.IsBlockOp() {
		return 0
	}
	if s.cfg.VM {
		c.AddStall(s.cfg.Profile.Costs.GuestWalk)
		s.stats.VMExits++
	}
	return c.Regs[ins.Rd]
}

// resetBranchClock clears the branch-count component after a completed
// synchronisation ("after syncing, it is reset to avoid overflow").
func (s *System) resetBranchClock(r *Replica) {
	if s.cfg.Mode != ModeCC {
		return
	}
	c := r.Core()
	c.UserBranches = 0
	if s.cfg.CompilerCounting() && r.K.CurrentTID() >= 0 {
		c.Regs[isa.RBC] = 0
	}
}

// DebugShared renders the shared framework words for protocol debugging.
func DebugShared(s *System) string {
	out := fmt.Sprintf("gen=%d kind=%d lines=%#x alive=%#x prim=%d halted=%d relGen=%d voteRel=%d outcome=%d released=%#x\n",
		s.sh.word(wSyncGen), s.sh.word(wSyncKind), s.sh.word(wSyncLines),
		s.sh.word(wAliveMask), s.sh.word(wPrimary), s.sh.word(wHalted),
		s.sh.word(wReleaseGen), s.sh.word(wVoteRelease), s.sh.word(wVoteOutcome), s.releasedSet)
	for rid := range s.reps {
		out += fmt.Sprintf("  rep%d: arriveGen=%d t=(%d,%d,%#x,%d) sig=(%d,%#x) voteEv=%d voteSum=%#x done=%d\n",
			rid, s.sh.repWord(rid, rwArriveGen), s.sh.repWord(rid, rwEvents),
			s.sh.repWord(rid, rwBranches), s.sh.repWord(rid, rwIP), s.sh.repWord(rid, rwBlockRem),
			s.sh.repWord(rid, rwSigEvents), s.sh.repWord(rid, rwChecksum),
			s.sh.repWord(rid, rwVoteEvent), s.sh.repWord(rid, rwVoteSum), s.sh.repWord(rid, rwDoneFlag))
	}
	return out
}
