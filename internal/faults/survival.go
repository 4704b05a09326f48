package faults

import (
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/harness"
)

// SurvivalOptions configures a permanent-fault survival trial: a replica's
// signature accumulator gets a stuck-at bit mid-run — a hard fault no
// overwrite can clear — and the question is whether the configuration
// keeps serving.
type SurvivalOptions struct {
	// System is the configuration under test. A masking TMR survives by
	// voting the faulty replica out; a DMR can only detect and fail-stop.
	System core.Config
	// FaultyReplica is the replica whose accumulator goes bad. Faulting
	// the primary (replica 0) removes the replica that services client
	// I/O, so the workload stalls and the trial burns its whole cycle
	// budget before erroring — pick a backup to measure survival.
	FaultyReplica int
	// InjectAfterOps delays the fault into the run phase.
	InjectAfterOps uint64
	// Records/Operations configure the KV workload.
	Records, Operations uint64
	// Seed makes the run deterministic.
	Seed uint64
	// Reintegrate requests a live re-integration of the ejected replica.
	// Against a *permanent* fault this is futile by design: the stuck bit
	// survives the state copy, the replica re-diverges, and the system
	// ejects it a second time — the property distinguishing hard faults
	// from the transient model of RecoveryTrial.
	Reintegrate bool
}

// SurvivalResult reports a survival trial.
type SurvivalResult struct {
	// Survived reports whether the workload ran to completion despite the
	// permanent fault.
	Survived bool
	// Ops is the number of completed client operations.
	Ops uint64
	// Removals counts replicas voted out of the configuration, by
	// signature vote or barrier timeout. A futile re-integration shows as
	// Removals >= 2 with Reintegrations >= 1.
	Removals       uint64
	Reintegrations uint64
	// StuckBits is the number of stuck-bit entries still asserted at end.
	StuckBits int
	// HaltReason is the system's halt reason when it failed to survive.
	HaltReason string
}

// SurvivalTrial runs one permanent-fault survival measurement.
func SurvivalTrial(so SurvivalOptions) (SurvivalResult, error) {
	opts := RecoveryOptions(so) // the same scenario, faulted differently
	run, err := sigFaultRun(&opts)
	if err != nil {
		return SurvivalResult{}, err
	}
	var res SurvivalResult
	// The bit RecoveryTrial flips once, but stuck: it re-asserts against
	// every signature the replica writes from here on.
	f := sigFault{inject: func(pa uint64) error { return run.Sys.Machine().Mem().SetStuck(pa, 5, 1) }}
	stop, reason := run.Drive(2_000, 1_500_000_000, func() bool {
		_, _, stop := f.step(run, &opts, run.Snapshot().Ops)
		return stop
	})
	switch stop {
	case harness.StopHalted:
		res.HaltReason = reason
	case harness.StopBudget:
		return res, fmt.Errorf("faults: survival trial exceeded budget after %d ops", run.Snapshot().Ops)
	case harness.StopCallback:
		return res, f.err
	}
	if run.Done() {
		_ = run.Sys.Run(50_000_000) // drain trailing responses
	}
	snap := run.Snapshot()
	res.Ops = snap.Ops
	res.Survived = run.Done()
	stats := run.Sys.Stats()
	res.Removals = stats.Downgrades + stats.Ejections
	res.Reintegrations = stats.Reintegrations
	res.StuckBits = run.Sys.Machine().Mem().StuckBits()
	if !f.injected {
		return res, fmt.Errorf("faults: workload finished before the injection point (%d ops)", res.Ops)
	}
	return res, nil
}
