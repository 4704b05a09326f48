// Package faults implements the software fault-injection campaigns of the
// paper's error-detection study (§V-C) and the recovery experiments
// (§V-D): random memory bit flips under the Redis/YCSB workload
// (Table VII), register flips into saved user contexts under md5sum
// (Table VIII), the overclocking-style burst-fault model (Table IX), and
// TMR downgrade measurement (Table X, Fig. 4).
package faults

import (
	"context"
	"fmt"

	"rcoe/internal/exp"
)

// Outcome classifies the first observable consequence of a fault trial,
// matching the error categories of Tables VII-IX.
type Outcome int

// Outcomes. Controlled outcomes are detections by the RCoE machinery
// (before corrupt output escaped); uncontrolled outcomes are failures the
// client observed.
const (
	// OutcomeNone: the injected faults had no observable effect within
	// the trial budget (flips into dead memory).
	OutcomeNone Outcome = iota + 1
	// OutcomeYCSBCorruption: the client read a value whose embedded CRC
	// did not match — silent data corruption escaped.
	OutcomeYCSBCorruption
	// OutcomeYCSBError: the client saw request errors or an unresponsive
	// server without any RCoE detection.
	OutcomeYCSBError
	// OutcomeUserMemFault: the (unreplicated) server took a memory fault.
	OutcomeUserMemFault
	// OutcomeOtherUserFault: the server took another exception (illegal
	// instruction, division by zero).
	OutcomeOtherUserFault
	// OutcomeKernelException: a replica kernel failed its integrity
	// checks and fail-stopped.
	OutcomeKernelException
	// OutcomeBarrierTimeout: divergence caught by the kernel barrier
	// spin budget.
	OutcomeBarrierTimeout
	// OutcomeSignatureMismatch: divergence caught by the signature vote.
	OutcomeSignatureMismatch
	// OutcomeMasked: a TMR system voted out the faulty replica and
	// continued (Fig. 4).
	OutcomeMasked
)

var outcomeNames = map[Outcome]string{
	OutcomeNone:              "no-effect",
	OutcomeYCSBCorruption:    "ycsb-corruption",
	OutcomeYCSBError:         "ycsb-error",
	OutcomeUserMemFault:      "user-mem-fault",
	OutcomeOtherUserFault:    "other-user-fault",
	OutcomeKernelException:   "kernel-exception",
	OutcomeBarrierTimeout:    "barrier-timeout",
	OutcomeSignatureMismatch: "signature-mismatch",
	OutcomeMasked:            "masked",
}

// String returns the outcome name.
func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Controlled reports whether the outcome is a controlled error: the
// system detected the fault (or masked it) before corrupt state escaped.
func (o Outcome) Controlled() bool {
	switch o {
	case OutcomeKernelException, OutcomeBarrierTimeout,
		OutcomeSignatureMismatch, OutcomeMasked:
		return true
	}
	return false
}

// Observable reports whether the trial produced any observable error.
func (o Outcome) Observable() bool { return o != OutcomeNone }

// Tally accumulates trial outcomes.
type Tally struct {
	// Injected is the total number of bit flips performed.
	Injected uint64
	// Counts maps each outcome to its number of trials.
	Counts map[Outcome]uint64
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{Counts: make(map[Outcome]uint64)}
}

// Add records one trial.
func (t *Tally) Add(o Outcome, injected uint64) {
	t.Injected += injected
	t.Counts[o]++
}

// Observed returns the number of trials with an observable error.
func (t *Tally) Observed() uint64 {
	var n uint64
	for o, c := range t.Counts {
		if o.Observable() {
			n += c
		}
	}
	return n
}

// Uncontrolled returns the number of trials whose error escaped
// detection.
func (t *Tally) Uncontrolled() uint64 {
	var n uint64
	for o, c := range t.Counts {
		if o.Observable() && !o.Controlled() {
			n += c
		}
	}
	return n
}

// Controlled returns the number of detected (or masked) trials.
func (t *Tally) Controlled() uint64 {
	var n uint64
	for o, c := range t.Counts {
		if o.Controlled() {
			n += c
		}
	}
	return n
}

// rng is a deterministic xorshift64 generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x2545F4914F6CDD1D
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x
}

// intn returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Region is a physical address range a campaign may target.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// pick selects a random (address, bit) in one of the regions, weighted by
// region size.
func pickTarget(r *rng, regions []Region) (uint64, uint) {
	var total uint64
	for _, reg := range regions {
		total += reg.Size
	}
	off := r.intn(total)
	for _, reg := range regions {
		if off < reg.Size {
			return reg.Base + off, uint(r.intn(8))
		}
		off -= reg.Size
	}
	last := regions[len(regions)-1]
	return last.Base, 0
}

// fanOut runs n independent trials of one campaign on the experiment
// engine and returns their results in trial order. Trial i is the job
// "<name>-trial[i]", seeded with the next draw of r — the xorshift chain
// off the campaign seed that the pre-engine serial loops walked — so a
// campaign's results are the same at any worker count.
func fanOut[T any](r *rng, n int, name string, eo exp.Options, trial func(seed uint64) (T, error)) ([]T, error) {
	jobs := make([]exp.Job[T], n)
	for i := range jobs {
		jobs[i] = exp.Job[T]{
			Name: fmt.Sprintf("%s-trial[%d]", name, i),
			Seed: r.next(),
			Run:  func(_ context.Context, seed uint64) (T, error) { return trial(seed) },
		}
	}
	results, err := exp.Run(eo, jobs)
	if err != nil {
		return nil, err
	}
	return exp.Values(results)
}

// tallyTrials is fanOut for KV injection trials, folded into a Tally.
func tallyTrials(r *rng, n int, name string, eo exp.Options, trial func(seed uint64) (TrialResult, error)) (*Tally, error) {
	trials, err := fanOut(r, n, name, eo, trial)
	if err != nil {
		return nil, err
	}
	tally := NewTally()
	for _, res := range trials {
		tally.Add(res.Outcome, res.Injected)
	}
	return tally, nil
}
