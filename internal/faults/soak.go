package faults

import (
	"errors"
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/metrics"
	"rcoe/internal/workload"
)

// The chaos-soak campaign: where the single-shot studies (Tables VII-X)
// inject one fault class into one run, the soak drives an open-ended
// stream of randomized faults — memory flips, register flips, and hung
// replicas — against one long-lived TMR key-value service, re-integrating
// the removed replica after every downgrade. The campaign's invariants
// are the paper's availability claim made executable: every cycle's
// outcome is controlled (masked or no-effect, never an escape), and the
// client makes progress in every throughput window.

// ErrNoEjection is returned when an injected replica stall was not
// resolved by straggler ejection within the cycle budget.
var ErrNoEjection = errors.New("faults: stalled replica was not ejected")

// SoakFault names an injected fault class.
type SoakFault string

// Soak fault classes.
const (
	SoakMemFlip SoakFault = "mem-flip" // signature-accumulator bit flip
	SoakRegFlip SoakFault = "reg-flip" // live user-register bit flip
	SoakStall   SoakFault = "stall"    // replica stops making progress
)

// SoakOptions configures a chaos-soak campaign.
type SoakOptions struct {
	// System overrides the replication configuration; it must describe a
	// masking TMR system (defaults are filled in when zero).
	System core.Config
	// Cycles is the number of fault cycles to run (default 20).
	Cycles int
	// Records is the KV preload size (default 32).
	Records uint64
	// Seed makes the whole campaign deterministic.
	Seed uint64
	// WindowCycles is the availability-sampling window (default 2M); the
	// progress invariant requires nonzero client ops in every window.
	WindowCycles uint64
	// CycleBudget bounds the machine cycles one fault cycle may consume
	// waiting for a downgrade or re-integration (default 40M).
	CycleBudget uint64
	// Log, when set, receives one line per completed fault cycle.
	Log func(string)
}

// SoakCycle reports one fault cycle.
type SoakCycle struct {
	Index   int
	Fault   SoakFault
	Target  int // replica the fault was injected into
	Outcome Outcome
	// Downgraded/Reintegrated report whether the fault removed a replica
	// and whether TMR was restored afterwards.
	Downgraded   bool
	Reintegrated bool
	// Ejected reports whether removal went through straggler ejection
	// (barrier timeout) rather than a signature vote.
	Ejected bool
	// MachineCycles is the simulated time the cycle consumed.
	MachineCycles uint64
	// DetectLatency is the cycles from injection to the detection that
	// removed the replica (0 when the fault had no effect).
	DetectLatency uint64
	// DowngradeCost is the cycles the survivors were stalled by the
	// removal (Table X's downgrade cost for this cycle).
	DowngradeCost uint64
	// ReintegrationWindow is the cycles from the re-integration request
	// to the completed DMR->TMR upgrade.
	ReintegrationWindow uint64
	// Forensic is the flight-recorder divergence report captured at the
	// detection that removed the replica (nil when nothing was detected).
	Forensic *core.DivergenceReport
}

// SoakResult summarises a campaign.
type SoakResult struct {
	Cycles []SoakCycle
	Tally  *Tally
	// Windows is client throughput (ops per million cycles) in each
	// fixed-size window across the whole campaign; MinWindow is its
	// minimum.
	Windows   []float64
	MinWindow float64
	// Totals over the campaign.
	Ops            uint64
	Errors         uint64
	Corruptions    uint64
	Ejections      uint64
	Reintegrations uint64
	// Violations lists broken invariants (empty on a clean campaign).
	Violations []string
	// Forensics holds the divergence reports of every unexpected outcome
	// (uncontrolled cycle, halt, failed ejection/re-integration) so a
	// broken campaign ships its own flight-recorder evidence.
	Forensics []*core.DivergenceReport
	// Metrics is the system's final metrics snapshot (barrier waits, vote
	// latencies, detection latencies, window throughput, ...).
	Metrics metrics.Snapshot
}

// Ok reports whether the campaign held its invariants.
func (r *SoakResult) Ok() bool { return len(r.Violations) == 0 }

// soakState carries the windowed-throughput bookkeeping across cycles.
type soakState struct {
	run        *harness.KVRun
	res        *SoakResult
	windowLen  uint64
	nextWindow uint64
	windowOps  uint64
	lastOps    uint64
}

// pump advances the machine until cond holds (or the budget expires),
// maintaining the availability windows. It returns whether cond held.
func (st *soakState) pump(cond func() bool, budget uint64) bool {
	if cond() {
		return true
	}
	m := st.run.Sys.Machine()
	stop, _ := st.run.Drive(2_000, budget, func() bool {
		snap := st.run.Snapshot()
		st.windowOps += snap.Ops - st.lastOps
		st.lastOps = snap.Ops
		for st.nextWindow != 0 && m.Now() >= st.nextWindow {
			st.res.Windows = append(st.res.Windows,
				float64(st.windowOps)/(float64(st.windowLen)/1e6))
			st.windowOps = 0
			st.nextWindow += st.windowLen
		}
		return cond()
	})
	return stop == harness.StopCallback
}

// Soak runs the chaos-soak campaign.
func Soak(opts SoakOptions) (SoakResult, error) {
	if opts.Cycles == 0 {
		opts.Cycles = 20
	}
	if opts.Records == 0 {
		opts.Records = 32
	}
	if opts.WindowCycles == 0 {
		opts.WindowCycles = 2_000_000
	}
	if opts.CycleBudget == 0 {
		opts.CycleBudget = 40_000_000
	}
	sys := opts.System
	if sys.Mode == 0 || sys.Mode == core.ModeNone {
		sys.Mode = core.ModeLC
	}
	if sys.Replicas == 0 {
		sys.Replicas = 3
	}
	sys.Masking = true
	if sys.TickCycles == 0 {
		sys.TickCycles = 50_000
	}
	if sys.BarrierTimeout == 0 {
		// Short straggler budget: an injected stall must resolve well
		// within one availability window.
		sys.BarrierTimeout = 300_000
	}
	if sys.Replicas < 3 {
		return SoakResult{}, fmt.Errorf("faults: soak needs a TMR system, got %d replicas", sys.Replicas)
	}
	// The soak is a forensics campaign: always fly with the recorder on,
	// so every detection carries a first-divergence report and the final
	// result a metrics snapshot.
	if !sys.Trace.Enabled {
		sys.Trace = core.TraceConfig{Enabled: true}
	}

	run, err := harness.NewKV(harness.KVOptions{
		System:   sys,
		Workload: workload.YCSBA,
		Records:  opts.Records,
		// The service is open-ended: the operation budget is far beyond
		// what the campaign consumes, so the server never exits mid-soak.
		Operations:  1 << 40,
		TraceOutput: true,
		Seed:        opts.Seed | 1,
		// Frames lost while a replica is being ejected or re-integrated
		// are retried quickly, with backoff so the recovering server is
		// not flooded.
		RetryCycles:  250_000,
		RetryBackoff: true,
		MaxRetries:   12,
		// Feed the per-window KV-throughput histogram alongside the
		// campaign's own availability windows.
		WindowCycles: opts.WindowCycles,
	})
	if err != nil {
		return SoakResult{}, err
	}

	res := SoakResult{Tally: NewTally()}
	st := &soakState{run: run, res: &res, windowLen: opts.WindowCycles}
	r := newRNG(opts.Seed)

	// Load phase: windows (and invariants) start with the first run-phase
	// op, once the table is populated (nextWindow == 0 suppresses window
	// recording until then).
	if !st.pump(func() bool { return run.Snapshot().Ops >= 1 }, 200_000_000) {
		return res, fmt.Errorf("faults: soak load phase did not complete")
	}
	st.windowOps = 0
	st.nextWindow = run.Sys.Machine().Now() + st.windowLen

	for i := 0; i < opts.Cycles; i++ {
		cyc, err := soakCycle(st, r, i, opts.CycleBudget)
		res.Cycles = append(res.Cycles, cyc)
		res.Tally.Add(cyc.Outcome, 1)
		if opts.Log != nil {
			line := fmt.Sprintf("cycle %2d: %-8s replica %d -> %s (downgraded=%v reintegrated=%v)",
				i, cyc.Fault, cyc.Target, cyc.Outcome, cyc.Downgraded, cyc.Reintegrated)
			if cyc.Downgraded {
				line += fmt.Sprintf(" detect=%d downgrade=%d reint-window=%d",
					cyc.DetectLatency, cyc.DowngradeCost, cyc.ReintegrationWindow)
			}
			opts.Log(line)
		}
		if err != nil {
			finishSoak(st, &res)
			return res, err
		}
	}
	// Let the tail of the last cycle drain through one more window.
	st.pump(func() bool { return false }, opts.WindowCycles)
	finishSoak(st, &res)
	return res, nil
}

// finishSoak flushes counters and checks the campaign invariants.
func finishSoak(st *soakState, res *SoakResult) {
	snap := st.run.Snapshot()
	res.Ops = snap.Ops
	res.Errors = snap.Errors
	res.Corruptions = snap.Corruptions
	res.Ejections = snap.Stats.Ejections
	res.Reintegrations = snap.Stats.Reintegrations
	res.MinWindow = 0
	for i, w := range res.Windows {
		if i == 0 || w < res.MinWindow {
			res.MinWindow = w
		}
	}
	res.Metrics = st.run.Sys.MetricsSnapshot()
	if halted, reason := st.run.Sys.Halted(); halted {
		res.Violations = append(res.Violations, "system halted: "+reason)
		if rep := soakForensic(st.run.Sys, "system halted: "+reason); rep != nil {
			res.Forensics = append(res.Forensics, rep)
		}
	}
	if res.Corruptions > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d client-visible corruptions", res.Corruptions))
	}
	if res.Errors > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d client-visible errors", res.Errors))
	}
	for i, w := range res.Windows {
		if w == 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("no client progress in window %d", i))
		}
	}
	for _, c := range res.Cycles {
		if c.Outcome.Observable() && !c.Outcome.Controlled() {
			res.Violations = append(res.Violations,
				fmt.Sprintf("cycle %d: uncontrolled outcome %s", c.Index, c.Outcome))
			if c.Forensic != nil {
				res.Forensics = append(res.Forensics, c.Forensic)
			}
		}
	}
}

// soakForensic returns the flight-recorder evidence for an unexpected
// outcome: the auto-captured divergence report if a detection froze one,
// otherwise a fresh explicit capture of the current system state.
func soakForensic(sys *core.System, reason string) *core.DivergenceReport {
	if rep := sys.TakeDivergenceReport(); rep != nil {
		return rep
	}
	rep, err := sys.CaptureForensics("soak: " + reason)
	if err != nil {
		return nil
	}
	return rep
}

// soakCycle injects one randomized fault, waits for the system to mask it
// (or establishes that it had no effect), re-integrates any removed
// replica, and classifies the cycle.
func soakCycle(st *soakState, r *rng, index int, budget uint64) (SoakCycle, error) {
	run := st.run
	sys := run.Sys
	m := sys.Machine()
	start := m.Now()
	preSnap := run.Snapshot()
	preEject := preSnap.Stats.Ejections

	cyc := SoakCycle{Index: index}
	switch r.intn(3) {
	case 0:
		cyc.Fault = SoakMemFlip
		cyc.Target = int(r.intn(uint64(sys.NumReplicas())))
		lay := sys.Replica(cyc.Target).K.Layout()
		if err := m.Mem().FlipBit(lay.SigPA()+8, uint(r.intn(8))); err != nil {
			return cyc, err
		}
	case 1:
		cyc.Fault = SoakRegFlip
		// Only non-primary targets: a corrupted primary may emit a wrong
		// response before the next vote, which the in-process client
		// (unlike the paper's remote YCSB clients) would observe
		// instantly — see graceClassify.
		cyc.Target = soakNonPrimary(sys, r)
		c := sys.Replica(cyc.Target).Core()
		c.Regs[1+r.intn(30)] ^= 1 << r.intn(64)
	default:
		cyc.Fault = SoakStall
		cyc.Target = int(r.intn(uint64(sys.NumReplicas())))
		sys.InjectStall(cyc.Target)
	}

	// Phase 1: wait for the fault to be masked (replica removed). A
	// register flip may land in dead state; after a bounded observation
	// period with no downgrade it classifies as no-effect.
	obsBudget := budget
	if cyc.Fault == SoakRegFlip && obsBudget > 6_000_000 {
		// Real divergence surfaces within a few ticks plus the barrier
		// timeout; do not burn the full budget on dud flips.
		obsBudget = 6_000_000
	}
	downgraded := st.pump(func() bool { return sys.AliveCount() < 3 }, obsBudget)
	if !downgraded {
		if halted, reason := sys.Halted(); halted {
			cyc.Outcome = soakOutcome(st, preSnap, cyc)
			cyc.Forensic = soakForensic(sys, "system halted: "+reason)
			return cyc, fmt.Errorf("faults: cycle %d: system halted: %s", index, reason)
		}
		if cyc.Fault == SoakStall {
			cyc.Outcome = OutcomeBarrierTimeout
			cyc.Forensic = soakForensic(sys, "straggler not ejected")
			return cyc, fmt.Errorf("%w: cycle %d, replica %d", ErrNoEjection, index, cyc.Target)
		}
		cyc.Outcome = soakOutcome(st, preSnap, cyc)
		cyc.MachineCycles = m.Now() - start
		return cyc, nil
	}
	cyc.Downgraded = true
	postSnap := run.Snapshot()
	cyc.Ejected = postSnap.Stats.Ejections > preEject
	cyc.DowngradeCost = postSnap.Stats.DowngradeCycles
	// Detection latency: injection happened at cycle start; the removal's
	// detection record carries the cycle it fired at.
	if dets := postSnap.Detections; len(dets) > 0 {
		if det := dets[len(dets)-1]; det.Cycle >= start {
			cyc.DetectLatency = det.Cycle - start
			if met := sys.Metrics(); met != nil {
				met.DetectLatency.Observe(cyc.DetectLatency)
			}
		}
	}
	// Drain the auto-captured divergence report so the next cycle's
	// detection can freeze a fresh one (first capture wins).
	cyc.Forensic = sys.TakeDivergenceReport()

	// Phase 2: live re-integration of whichever replica was removed.
	removed := -1
	for rid := 0; rid < sys.NumReplicas(); rid++ {
		if !sys.Alive(rid) {
			removed = rid
		}
	}
	reqCycle := m.Now()
	if err := sys.RequestReintegrate(removed); err != nil {
		return cyc, fmt.Errorf("faults: cycle %d: %w", index, err)
	}
	target := run.Snapshot().Stats.Reintegrations + 1
	if !st.pump(func() bool { return run.Snapshot().Stats.Reintegrations >= target }, budget) {
		_, rerr := sys.ReintegrateOutcome()
		if cyc.Forensic == nil {
			cyc.Forensic = soakForensic(sys, "reintegration did not complete")
		}
		return cyc, fmt.Errorf("faults: cycle %d: reintegration of replica %d did not complete (err=%v)",
			index, removed, rerr)
	}
	cyc.Reintegrated = true
	cyc.ReintegrationWindow = m.Now() - reqCycle

	// Phase 3: settle — the restored TMR must vote cleanly for a while
	// before the next fault lands.
	settle := m.Now() + 2*uint64(sys.Config().TickCycles)
	if !st.pump(func() bool { return m.Now() >= settle }, budget) {
		return cyc, fmt.Errorf("faults: cycle %d: post-reintegration settle failed", index)
	}
	cyc.Outcome = soakOutcome(st, preSnap, cyc)
	cyc.MachineCycles = m.Now() - start
	return cyc, nil
}

// soakNonPrimary picks a random alive non-primary replica.
func soakNonPrimary(sys *core.System, r *rng) int {
	var ids []int
	for rid := 0; rid < sys.NumReplicas(); rid++ {
		if rid != sys.Primary() && sys.Alive(rid) {
			ids = append(ids, rid)
		}
	}
	return ids[r.intn(uint64(len(ids)))]
}

// soakOutcome classifies one cycle from the deltas it produced.
func soakOutcome(st *soakState, pre harness.KVResult, cyc SoakCycle) Outcome {
	snap := st.run.Snapshot()
	if snap.Corruptions > pre.Corruptions {
		return OutcomeYCSBCorruption
	}
	if snap.Errors > pre.Errors {
		return OutcomeYCSBError
	}
	if cyc.Downgraded {
		return OutcomeMasked
	}
	return OutcomeNone
}
