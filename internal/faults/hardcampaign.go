package faults

import (
	"context"

	"rcoe/internal/exp"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
)

// HardCampaignOptions configures the hard-fault characterization study:
// the KV workload run under every selected fault class, with outcomes
// tallied per class for the SDC / detected-corrected / detected-
// uncorrected / masked taxonomy.
type HardCampaignOptions struct {
	// KV is the benchmark system under test. Replication mode, masking,
	// and structural decorrelation all ride on KV.System.
	KV harness.KVOptions
	// Classes selects the fault models; empty selects all.
	Classes []FaultClass
	// TrialsPerClass is the number of independent injection runs per class.
	TrialsPerClass int
	// TargetAllReplicas widens the memory-fault target from the primary's
	// user memory to every replica's (the Arm-study variant).
	TargetAllReplicas bool
	// InjectAfterCycles delays point injections (transient, stuck-at,
	// burst) past system warm-up so faults land during service, not boot.
	InjectAfterCycles uint64
	// FaultEveryCycles is the injection period for the point classes; a
	// trial keeps injecting until something observable happens or the
	// workload completes (default 2_000, the aggressive Table VII rate).
	FaultEveryCycles uint64
	// MaxFaults bounds the injections per trial for transient and burst
	// (default 4_000). Stuck-at trials accumulate permanent faults from
	// boot, capped at 128 stuck bits — a manufacturing-defect/aging
	// model that also bounds the per-access assertion cost.
	MaxFaults int
	// Seed makes the whole campaign deterministic.
	Seed uint64
	// WarmStart forks every trial from a single post-preload checkpoint
	// instead of re-simulating boot and the load phase per trial. The
	// template is snapshotted before any fault device is armed; trials arm
	// their own injectors after restore. The workload stream becomes
	// common across trials (seeded from Seed); see warmstart.go.
	WarmStart bool
	// Template, when set, is a pre-built checkpoint from WarmTemplate
	// (same KV options and Seed) reused instead of building one; it
	// implies WarmStart.
	Template []byte
	// Context, when set, cancels the campaign between trials.
	Context context.Context
	// Workers overrides the engine's host worker-pool size (0 = default).
	Workers int
	// Progress, when set, is called after each class's trials finish with
	// the number of classes done so far. It runs on the caller's
	// goroutine, between engine runs, so it may write to stderr freely.
	Progress func(class FaultClass, done, total int)
	// TrialProgress, when set, receives the engine's per-trial progress
	// for the class currently running (Done/Total count that class's
	// trials) so CLIs can print k/N lines. Calls are serialised but may
	// come from any worker goroutine.
	TrialProgress func(class FaultClass, p exp.Progress)
}

// burstBits is the number of bit flips a burst injection lands within one
// 64-byte line — the correlated multi-bit model of §V-C3.
const burstBits = 4

// deviceCorruptEvery corrupts every Nth NIC RX frame in device-class
// trials: frequent enough to hit short runs, sparse enough that most
// requests survive to exercise the full pipeline.
const deviceCorruptEvery = 3

// intermittentFaults is the number of independent duty-cycled faults an
// intermittent-class trial arms; one marginal cell rarely lands in live
// state, a population models a marginal rank.
const intermittentFaults = 64

// HardCampaign runs TrialsPerClass injection trials for each selected
// class (see fanOut: one seed chain runs through the classes in order) and
// tallies outcomes per class.
func HardCampaign(opts HardCampaignOptions) (map[FaultClass]*Tally, error) {
	classes := opts.Classes
	if len(classes) == 0 {
		classes = AllClasses()
	}
	if opts.TrialsPerClass == 0 {
		opts.TrialsPerClass = 20
	}
	tmpl := opts.Template
	if opts.WarmStart && tmpl == nil {
		var err error
		if tmpl, err = WarmTemplate(opts.KV, opts.Seed); err != nil {
			return nil, err
		}
	}
	fk, err := newForker(opts.KV, opts.Seed, tmpl)
	if err != nil {
		return nil, err
	}
	r := newRNG(opts.Seed)
	out := make(map[FaultClass]*Tally, len(classes))
	for ci, class := range classes {
		var onTrial func(exp.Progress)
		if opts.TrialProgress != nil {
			onTrial = func(p exp.Progress) { opts.TrialProgress(class, p) }
		}
		tally, err := tallyTrials(r, opts.TrialsPerClass, class.String(), exp.Options{
			Workers: opts.Workers, Context: opts.Context, OnProgress: onTrial,
		}, func(seed uint64) (TrialResult, error) { return hardTrial(opts, class, seed, fk) })
		if err != nil {
			return nil, err
		}
		out[class] = tally
		if opts.Progress != nil {
			opts.Progress(class, ci+1, len(classes))
		}
	}
	return out, nil
}

// maxStuckBits caps a stuck-at trial's accumulated permanent faults.
const maxStuckBits = 128

// HardTrial performs one injection run for the given fault class: drive
// the KV workload, arm or inject the fault, and classify the first
// observable consequence. Standing faults (intermittent, device) are
// armed before the first step so their internal clocks are deterministic
// functions of the trial seed; point faults (transient, stuck-at, burst)
// inject periodically after the warm-up window.
func HardTrial(opts HardCampaignOptions, class FaultClass, seed uint64) (TrialResult, error) {
	return hardTrial(opts, class, seed, &forker{kv: opts.KV})
}

func hardTrial(opts HardCampaignOptions, class FaultClass, seed uint64, fk *forker) (TrialResult, error) {
	if opts.InjectAfterCycles == 0 {
		opts.InjectAfterCycles = 200_000
	}
	if opts.FaultEveryCycles == 0 {
		opts.FaultEveryCycles = 2_000
	}
	if opts.MaxFaults == 0 {
		opts.MaxFaults = 4_000
	}
	run, err := fk.trialRun(seed)
	if err != nil {
		return TrialResult{}, err
	}
	res := hardInject(run, opts, class, seed)
	// Flipped and stuck bits live in RAM and the NIC's corruption settings
	// and counters in its device section, so the next fork rewinds them.
	// An intermittent trial's AddDevice calls changed the machine's device
	// population, which no LoadState undoes: that run is not reused.
	if class != ClassIntermittent {
		fk.recycle(run)
	}
	return res, nil
}

// hardInject drives one built trial system to its classification.
func hardInject(run *harness.KVRun, opts HardCampaignOptions, class FaultClass, seed uint64) TrialResult {
	r := newRNG(seed)
	mem := run.Sys.Machine().Mem()
	regions := targetRegions(run.Sys, opts.TargetAllReplicas, false)
	var injected uint64

	switch class {
	case ClassIntermittent:
		for i := 0; i < intermittentFaults; i++ {
			addr, bit := pickTarget(r, regions)
			run.Sys.Machine().AddDevice(&machine.IntermittentFault{
				Addr: addr, Bit: bit, Value: uint(r.next() & 1),
				OnCycles: 40_000, OffCycles: 40_000,
				Seed: r.next() | 1,
			})
			injected++
		}
	case ClassDevice:
		run.NIC.CorruptRxEvery = deviceCorruptEvery
		run.NIC.CorruptSeed = r.next() | 1
	}
	// Point classes inject on a period. Stuck-at bits accumulate from
	// boot — the manufacturing-defect/aging model — and cap the total,
	// since each stuck bit persists for the rest of the trial and taxes
	// every access to its range.
	pointClass := class == ClassTransient || class == ClassStuckAt || class == ClassBurst
	maxFaults := opts.MaxFaults
	if class == ClassStuckAt {
		maxFaults = min(maxFaults, maxStuckBits)
	}
	step := opts.FaultEveryCycles
	if !pointClass {
		step = 25_000
	}

	injectAt := run.Sys.Machine().Now() + opts.InjectAfterCycles
	if class == ClassStuckAt {
		injectAt = run.Sys.Machine().Now()
	}
	faults := 0
	run.Drive(step, kvTrialBudget(opts.KV), func() bool {
		if pointClass && faults < maxFaults && run.Sys.Machine().Now() >= injectAt {
			faults++
			addr, bit := pickTarget(r, regions)
			switch class {
			case ClassTransient:
				if err := mem.FlipBit(addr, bit); err == nil {
					injected++
				}
			case ClassStuckAt:
				if err := mem.SetStuck(addr, bit, uint(r.next()&1)); err == nil {
					injected++
				}
			case ClassBurst:
				for b := 0; b < burstBits; b++ {
					a := addr + r.intn(64)
					if err := mem.FlipBit(a, uint(r.next()&7)); err == nil {
						injected++
					}
				}
			}
		}
		_, decided := classify(run)
		return decided
	})
	res := TrialResult{Outcome: trialOutcome(run), Injected: injected}
	if class == ClassDevice {
		// Device-class corruption happens inside the NIC, so the NIC's own
		// counter, read once the outcome has settled, is authoritative.
		res.Injected = run.NIC.RxCorrupted
	}
	return res
}
