package faults

import (
	"errors"
	"fmt"
	"sync"

	"rcoe/internal/harness"
	"rcoe/internal/snapshot"
)

// Warm-start support: a campaign builds the KV system once, simulates it
// through boot and the preload phase, and snapshots it. Every trial then
// forks from the checkpoint — a run built by NewKV (same options), fresh
// or left by an earlier trial, restored from the template (forker) —
// instead of re-simulating the warm-up. The template is taken before any
// fault device is armed, so the restore target's device population
// matches construction and each trial arms its own injectors on a
// pristine system.
//
// A warm campaign pins the workload seed to warmSeed(campaign seed) — the
// request stream is common across trials (a common-random-numbers design)
// and only the injection stream varies per trial. Cold campaigns instead
// derive the workload seed from the trial seed, so the two modes sample
// different (equally valid) experiment populations; within a mode the
// tallies are byte-identical at any worker count.

// warmSeed is the fixed workload seed a warm campaign pins for the
// template and every fork of it.
func warmSeed(campaignSeed uint64) uint64 { return campaignSeed | 1 }

// WarmTemplate builds the warm-start checkpoint a campaign with the given
// KV options and campaign seed would build itself. Callers running many
// campaigns over the same system configuration (class sweeps, parameter
// sweeps, repeated benchmark iterations) can build the template once and
// pass it via the Template option.
func WarmTemplate(kv harness.KVOptions, campaignSeed uint64) ([]byte, error) {
	kv.Seed = warmSeed(campaignSeed)
	return warmTemplate(kv)
}

// warmTemplate simulates a fresh run through boot and the preload phase
// and returns its serialized state.
func warmTemplate(kv harness.KVOptions) ([]byte, error) {
	run, err := harness.NewKV(kv)
	if err != nil {
		return nil, err
	}
	if !run.LoadPhaseDone() {
		switch stop, reason := run.Drive(25_000, kvTrialBudget(kv), run.LoadPhaseDone); stop {
		case harness.StopHalted:
			return nil, fmt.Errorf("faults: warm template halted during preload: %s", reason)
		case harness.StopBudget:
			return nil, errors.New("faults: warm template exceeded cycle budget during preload")
		}
	}
	return snapshot.Save(run)
}

// forker hands a campaign's trials their systems. Cold (no template), it
// boots one per trial. Warm, a fork is a rewind: a finished trial's run
// goes back on the free list and the next trial restores the template
// into it — KVRun.LoadState into a live system is exact, and Mem rewrites
// only the pages the previous trial dirtied — so NewKV runs only when no
// used run is free. At most one run per engine worker is ever live, which
// bounds the list. The forker is campaign-scoped: it, its parsed template
// and its runs go when the campaign returns.
type forker struct {
	kv   harness.KVOptions  // warm: Seed pinned to the campaign's
	tmpl *snapshot.Snapshot // nil = cold trials

	mu   sync.Mutex
	free []*harness.KVRun
}

// newForker parses the template once for the whole campaign; nil bytes
// select cold trials.
func newForker(kv harness.KVOptions, campaignSeed uint64, tmpl []byte) (*forker, error) {
	if tmpl == nil {
		return &forker{kv: kv}, nil
	}
	snap, err := snapshot.Parse(tmpl)
	if err != nil {
		return nil, fmt.Errorf("faults: warm template: %w", err)
	}
	kv.Seed = warmSeed(campaignSeed)
	return &forker{kv: kv, tmpl: snap}, nil
}

// trialRun builds the system for one trial: cold, a boot seeded from the
// trial; warm, a fork of the template — a recycled run when one is free,
// a fresh one otherwise. A run whose restore fails is dropped.
func (f *forker) trialRun(trialSeed uint64) (*harness.KVRun, error) {
	if f.tmpl == nil {
		kv := f.kv
		kv.Seed = trialSeed | 1
		return harness.NewKV(kv)
	}
	f.mu.Lock()
	var run *harness.KVRun
	if n := len(f.free); n > 0 {
		run, f.free = f.free[n-1], f.free[:n-1]
	}
	f.mu.Unlock()
	if run == nil {
		var err error
		if run, err = harness.NewKV(f.kv); err != nil {
			return nil, err
		}
	}
	if err := run.LoadState(f.tmpl); err != nil {
		return nil, fmt.Errorf("faults: warm fork: %w", err)
	}
	return run, nil
}

// recycle offers a finished trial's run to later trials. Only a run still
// in its construction-time shape may come back: LoadState rewinds the
// simulated state and nothing else, so a trial that registered devices
// keeps its run, and one that panicked or failed never gets here.
func (f *forker) recycle(run *harness.KVRun) {
	if f.tmpl == nil {
		return
	}
	f.mu.Lock()
	f.free = append(f.free, run)
	f.mu.Unlock()
}
