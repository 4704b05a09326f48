package faults

import (
	"context"

	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/harness"
)

// MemCampaignOptions configures the random-memory-fault study of
// Table VII (and, with Burst > 1, the overclocking model of Table IX).
type MemCampaignOptions struct {
	// KV is the benchmark system under test.
	KV harness.KVOptions
	// Trials is the number of independent injection runs.
	Trials int
	// FlipEveryCycles is the injection period within a trial.
	FlipEveryCycles uint64
	// MaxFlips bounds a trial; reaching it without an observable error
	// classifies the trial OutcomeNone.
	MaxFlips int
	// TargetAllReplicas widens the user-memory target from the primary
	// only (the x86 study) to every replica (the Arm study).
	TargetAllReplicas bool
	// IncludeDMA adds the device DMA region (outside the SoR) to the
	// targets; corruption there can only surface as client-visible
	// corruption.
	IncludeDMA bool
	// Burst is the number of bits flipped per injection within one cache
	// line. Burst > 1 models overclocking-induced correlated faults
	// (§V-C3), which are far more likely to overwhelm the voting
	// machinery than independent SEUs.
	Burst int
	// Seed makes the campaign deterministic.
	Seed uint64
	// WarmStart forks every trial from a single post-preload checkpoint
	// instead of re-simulating boot and the load phase per trial. The
	// workload stream is then common across trials (seeded from Seed) and
	// only the injection stream varies; see warmstart.go.
	WarmStart bool
	// Template, when set, is a pre-built checkpoint from WarmTemplate
	// (same KV options and Seed) reused instead of building one; it
	// implies WarmStart.
	Template []byte
	// Context, when set, cancels the campaign between trials.
	Context context.Context
	// Workers overrides the engine's host worker-pool size for this
	// campaign (0 = the process default, normally the host core count).
	Workers int
	// TrialProgress, when set, receives the engine's per-trial progress
	// (Done/Total count trials) so CLIs can print k/N lines. Calls are
	// serialised but may come from any worker goroutine.
	TrialProgress func(p exp.Progress)
}

// TrialResult captures one trial's classification with its injection
// count.
type TrialResult struct {
	Outcome  Outcome
	Injected uint64
}

// MemCampaign runs the full campaign (see fanOut) and tallies outcomes in
// trial order.
func MemCampaign(opts MemCampaignOptions) (*Tally, error) {
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
	return tallyTrials(newRNG(opts.Seed), opts.Trials, "mem", exp.Options{
		Workers: opts.Workers, Context: opts.Context, OnProgress: opts.TrialProgress,
	}, func(seed uint64) (TrialResult, error) { return memTrial(opts, seed, fk) })
}

// MemTrial performs one injection run: drive the KV workload while
// flipping random bits in the target regions, and classify the first
// observable consequence.
func MemTrial(opts MemCampaignOptions, seed uint64) (TrialResult, error) {
	return memTrial(opts, seed, &forker{kv: opts.KV})
}

func memTrial(opts MemCampaignOptions, seed uint64, fk *forker) (TrialResult, error) {
	if opts.FlipEveryCycles == 0 {
		opts.FlipEveryCycles = 40_000
	}
	if opts.MaxFlips == 0 {
		opts.MaxFlips = 60
	}
	if opts.Burst <= 0 {
		opts.Burst = 1
	}
	run, err := fk.trialRun(seed)
	if err != nil {
		return TrialResult{}, err
	}
	res := memInject(run, opts, seed)
	// Bit flips are simulated state, which the next fork rewinds.
	fk.recycle(run)
	return res, nil
}

// memInject drives one built trial system to its classification.
func memInject(run *harness.KVRun, opts MemCampaignOptions, seed uint64) TrialResult {
	regions := targetRegions(run.Sys, opts.TargetAllReplicas, opts.IncludeDMA)
	r := newRNG(seed)
	mem := run.Sys.Machine().Mem()
	var injected uint64

	run.Drive(opts.FlipEveryCycles, kvTrialBudget(opts.KV), func() bool {
		if int(injected) < opts.MaxFlips*opts.Burst {
			addr, bit := pickTarget(r, regions)
			for b := 0; b < opts.Burst; b++ {
				// Burst flips land within one 64-byte line.
				a := addr + r.intn(64)
				if err := mem.FlipBit(a, bit+uint(b)); err == nil {
					injected++
				}
			}
		}
		_, decided := classify(run)
		return decided
	})
	return TrialResult{Outcome: trialOutcome(run), Injected: injected}
}

// trialOutcome classifies a trial once its drive loop has stopped.
func trialOutcome(run *harness.KVRun) Outcome {
	if out, decided := classify(run); decided {
		return graceClassify(run, out)
	}
	if !run.Done() {
		// Unresponsive system with no detection: the paper counts hangs
		// among the client-visible "YCSB errors".
		return OutcomeYCSBError
	}
	return OutcomeNone
}

func kvTrialBudget(kv harness.KVOptions) uint64 {
	if kv.MaxCycles != 0 {
		return kv.MaxCycles
	}
	return 400_000_000
}

// targetRegions builds the injection target list, mirroring the paper's
// two study variants (§V-C1).
func targetRegions(sys *core.System, targetAll, includeDMA bool) []Region {
	var regions []Region
	shBase, shSize := core.SharedRegion()
	regions = append(regions, Region{Name: "shared", Base: shBase, Size: shSize})
	for rid := 0; rid < sys.NumReplicas(); rid++ {
		lay := sys.Replica(rid).K.Layout()
		regions = append(regions, Region{
			Name: "kernel", Base: lay.Base, Size: lay.UserPA() - lay.Base,
		})
		if targetAll || rid == sys.Primary() {
			regions = append(regions, Region{
				Name: "user", Base: lay.UserPA(), Size: lay.UserSize(),
			})
		}
	}
	if includeDMA {
		dmaBase, dmaSize := core.DMARegion()
		regions = append(regions, Region{Name: "dma", Base: dmaBase, Size: dmaSize})
	}
	return regions
}

// graceClassify settles a race the simulator introduces: the in-process
// client validates a response the instant the NIC delivers it, while the
// paper's YCSB clients sit across a gigabit link (tens of microseconds
// away) and the replicas vote within the same window. When the first
// observation is client-visible, the system runs on briefly; if a
// detection fires within that network-latency window it takes precedence,
// as it would have in the paper's setup.
func graceClassify(run *harness.KVRun, first Outcome) Outcome {
	if first.Controlled() {
		return first
	}
	run.Sys.RunCycles(150_000)
	if out, decided := classify(run); decided && out.Controlled() {
		return out
	}
	return first
}

// classify inspects a run for its first observable outcome.
func classify(run *harness.KVRun) (Outcome, bool) {
	sys := run.Sys
	replicated := sys.Config().Mode != core.ModeNone
	// RCoE detections take precedence: they fire before corrupt output
	// escapes.
	var maskedSeen bool
	for _, d := range sys.Detections() {
		switch d.Kind {
		case core.DetectKernelException:
			if !replicated {
				return OutcomeKernelException, true
			}
			// A replicated kernel exception fail-stops one replica; the
			// system-level detection is the barrier timeout that follows,
			// but the root cause is worth reporting (the paper's "kernel
			// exceptions" rows).
			return OutcomeKernelException, true
		case core.DetectBarrierTimeout:
			if d.Masked {
				// A straggler ejected from a masking TMR: the system
				// continued, so this classifies like any other mask.
				maskedSeen = true
				continue
			}
			return OutcomeBarrierTimeout, true
		case core.DetectSignatureMismatch:
			if d.Masked {
				maskedSeen = true
				continue
			}
			return OutcomeSignatureMismatch, true
		case core.DetectVoteInconclusive:
			return OutcomeSignatureMismatch, true
		}
	}
	snap := run.Snapshot()
	if snap.Corruptions > 0 {
		return OutcomeYCSBCorruption, true
	}
	if snap.Errors > 0 {
		return OutcomeYCSBError, true
	}
	if !replicated {
		for rid := 0; rid < sys.NumReplicas(); rid++ {
			rep := sys.Replica(rid)
			if rep.UserMemFaults > 0 {
				return OutcomeUserMemFault, true
			}
			if rep.UserFaults > 0 {
				return OutcomeOtherUserFault, true
			}
		}
	}
	if maskedSeen {
		return OutcomeMasked, true
	}
	if halted, _ := sys.Halted(); halted {
		return OutcomeYCSBError, true // died without classified detection
	}
	return OutcomeNone, false
}
