package faults

import (
	"errors"
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/workload"
)

// ErrNoDowngrade is returned when a recovery trial did not produce a
// masked downgrade.
var ErrNoDowngrade = errors.New("faults: no downgrade occurred")

// RecoveryOptions configures the Table X / Fig. 4 experiments: a TMR
// system running the KV workload has one replica's signature accumulator
// corrupted mid-run; the system votes it out and continues as DMR.
type RecoveryOptions struct {
	// System must be a TMR configuration with Masking enabled.
	System core.Config
	// FaultyReplica is the replica to corrupt (0 = the primary: the
	// expensive path).
	FaultyReplica int
	// InjectAfterOps delays the corruption into the run phase.
	InjectAfterOps uint64
	// Records/Operations configure the KV workload.
	Records, Operations uint64
	// Seed makes the run deterministic.
	Seed uint64
	// Reintegrate requests a live re-integration of the removed replica
	// once the downgrade completes, so the Fig. 4 timeline shows both the
	// downgrade dip and the re-integration dip.
	Reintegrate bool
}

// RecoveryResult reports a downgrade measurement.
type RecoveryResult struct {
	// Cycles is the measured recovery cost (Table X).
	Cycles uint64
	// WasPrimary reports whether the removed replica was the primary.
	WasPrimary bool
	// Ops/Throughput cover the whole run (service continued across the
	// downgrade — Fig. 4's point).
	Ops        uint64
	Throughput float64
	// WindowThroughput samples throughput over fixed windows for Fig. 4.
	WindowThroughput []float64
	// DowngradeWindow is the index of the window containing the
	// downgrade.
	DowngradeWindow int
	// ReintegrateWindow is the index of the window containing the live
	// re-integration (-1 when none was requested or applied).
	ReintegrateWindow int
	// Reintegrated reports whether the TMR configuration was restored.
	Reintegrated bool
}

// sigFaultRun applies the defaults RecoveryTrial and SurvivalTrial share
// and builds the system both corrupt a signature accumulator of: YCSB-A
// on (by default) three replicas.
func sigFaultRun(o *RecoveryOptions) (*harness.KVRun, error) {
	if o.Records == 0 {
		o.Records = 48
	}
	if o.Operations == 0 {
		o.Operations = 160
	}
	if o.InjectAfterOps == 0 {
		o.InjectAfterOps = o.Operations / 3
	}
	if o.System.Replicas == 0 {
		o.System.Replicas = 3
	}
	if o.System.TickCycles == 0 {
		o.System.TickCycles = 50_000
	}
	return harness.NewKV(harness.KVOptions{
		System:      o.System,
		Workload:    workload.YCSBA,
		Records:     o.Records,
		Operations:  o.Operations,
		TraceOutput: true,
		Seed:        o.Seed | 1,
		// Packets lost in the failover window are retried quickly so the
		// Fig. 4 timeline shows the service dip, not the client timeout.
		RetryCycles: 300_000,
	})
}

// sigFault is the Drive-step hook both signature-fault trials share: after
// InjectAfterOps operations inject corrupts the faulty replica's signature
// accumulator word at pa; with Reintegrate the replica is asked back once voted out.
type sigFault struct {
	inject          func(pa uint64) error
	injected, asked bool
	err             error // the injection's or the request's
}

// step reports what this Drive step did, and stop when it failed.
func (f *sigFault) step(run *harness.KVRun, o *RecoveryOptions, ops uint64) (injectedNow, askedNow, stop bool) {
	if !f.injected && ops >= o.InjectAfterOps {
		f.injected, injectedNow = true, true
		if f.err = f.inject(run.Sys.Replica(o.FaultyReplica).K.Layout().SigPA() + 8); f.err != nil {
			return injectedNow, false, true
		}
	}
	if o.Reintegrate && f.injected && !f.asked && !run.Sys.Alive(o.FaultyReplica) {
		f.asked, askedNow = true, true
		f.err = run.Sys.RequestReintegrate(o.FaultyReplica)
	}
	return injectedNow, askedNow, f.err != nil
}

// RecoveryTrial runs one masked-downgrade measurement.
func RecoveryTrial(opts RecoveryOptions) (RecoveryResult, error) {
	opts.System.Masking = true
	run, err := sigFaultRun(&opts)
	if err != nil {
		return RecoveryResult{}, err
	}
	const window = 150_000 // cycles per Fig. 4 throughput sample
	var res RecoveryResult
	res.DowngradeWindow = -1
	res.ReintegrateWindow = -1
	lastOps := uint64(0)
	var windowOps uint64
	nextWindow := run.Sys.Machine().Now() + window
	f := sigFault{inject: func(pa uint64) error { return run.Sys.Machine().Mem().FlipBit(pa, 5) }}
	stop, reason := run.Drive(2_000, 1_500_000_000, func() bool {
		snap := run.Snapshot()
		windowOps += snap.Ops - lastOps
		lastOps = snap.Ops
		if run.Sys.Machine().Now() >= nextWindow {
			nextWindow += window
			res.WindowThroughput = append(res.WindowThroughput, float64(windowOps)/(float64(window)/1e6))
			windowOps = 0
		}
		injectedNow, askedNow, stop := f.step(run, &opts, snap.Ops)
		if stop {
			return true
		}
		if injectedNow {
			res.DowngradeWindow = len(res.WindowThroughput)
			res.WasPrimary = opts.FaultyReplica == run.Sys.Primary()
		}
		if askedNow {
			res.ReintegrateWindow = len(res.WindowThroughput)
		}
		return false
	})
	switch stop {
	case harness.StopHalted:
		return res, fmt.Errorf("faults: system halted instead of masking: %s", reason)
	case harness.StopBudget:
		return res, fmt.Errorf("faults: recovery trial exceeded budget after %d ops", run.Snapshot().Ops)
	case harness.StopCallback:
		return res, f.err
	}
	_ = run.Sys.Run(50_000_000)
	snap := run.Snapshot()
	res.Ops = snap.Ops
	res.Throughput = snap.Throughput
	res.Cycles = snap.Stats.DowngradeCycles
	if !f.injected || res.Cycles == 0 {
		return res, ErrNoDowngrade
	}
	res.Reintegrated = f.asked && run.Sys.Stats().Reintegrations > 0
	if !res.Reintegrated && run.Sys.Alive(opts.FaultyReplica) {
		return res, fmt.Errorf("faults: replica %d was not removed", opts.FaultyReplica)
	}
	return res, nil
}
