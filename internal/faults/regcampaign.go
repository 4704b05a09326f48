package faults

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"

	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/guest"
	"rcoe/internal/kernel"
	"rcoe/internal/vmm"
)

// RegCampaignOptions configures the register fault-injection study of
// Table VIII: the md5sum workload runs (in a VM, under CC-RCoE DMR, or
// unprotected as the baseline) and a single random user-register bit of
// the primary replica is flipped mid-run.
//
// The paper flips bits in the user context the kernel saved on an
// interrupt; the simulator flips the live register directly, which is
// behaviourally identical (the context is saved and restored through RAM
// either way) but does not depend on interrupt timing.
type RegCampaignOptions struct {
	// System configures replication; the workload always runs in a VM
	// context as in the paper (ModeNone gives the Base column).
	System core.Config
	// MessageBytes is the md5 input size per run.
	MessageBytes int
	// Trials is the number of injection runs.
	Trials int
	// Seed makes the campaign deterministic.
	Seed uint64
	// Context, when set, cancels the campaign between trials.
	Context context.Context
	// Workers overrides the engine's host worker-pool size for this
	// campaign (0 = the process default, normally the host core count).
	Workers int
}

// RegTally summarises a register campaign in the paper's Table VIII
// categories.
type RegTally struct {
	Injected    uint64
	Crashes     uint64 // abnormal termination
	Corruptions uint64 // wrong digest, undetected
	Timeouts    uint64 // detected by barrier timeout
	Mismatches  uint64 // detected by signature vote
	NoEffect    uint64 // digest correct, nothing observed
}

// Uncontrolled returns the paper's uncontrolled-error count.
func (t RegTally) Uncontrolled() uint64 { return t.Crashes + t.Corruptions }

// Controlled returns the detected-error count.
func (t RegTally) Controlled() uint64 { return t.Timeouts + t.Mismatches }

// RegCampaign runs the full register fault-injection study (see fanOut)
// and tallies in trial order.
func RegCampaign(opts RegCampaignOptions) (RegTally, error) {
	if opts.MessageBytes == 0 {
		opts.MessageBytes = 4096
	}
	var tally RegTally
	outcomes, err := fanOut(newRNG(opts.Seed), opts.Trials, "reg",
		exp.Options{Workers: opts.Workers, Context: opts.Context},
		func(seed uint64) (Outcome, error) { return RegTrial(opts, seed) })
	if err != nil {
		return tally, err
	}
	for _, out := range outcomes {
		tally.Injected++
		switch out {
		case OutcomeUserMemFault, OutcomeOtherUserFault:
			tally.Crashes++
		case OutcomeYCSBCorruption:
			tally.Corruptions++
		case OutcomeBarrierTimeout, OutcomeKernelException:
			tally.Timeouts++
		case OutcomeSignatureMismatch:
			tally.Mismatches++
		default:
			tally.NoEffect++
		}
	}
	return tally, nil
}

// errHang marks an unresponsive undetected run.
var errHang = errors.New("faults: run hung without detection")

// RegTrial runs md5 once with repeated register flips and classifies the
// result.
func RegTrial(opts RegCampaignOptions, seed uint64) (Outcome, error) {
	r := newRNG(seed)
	msg := make([]byte, opts.MessageBytes)
	for i := range msg {
		msg[i] = byte(r.next())
	}
	want := md5.Sum(msg)
	prog := guest.MD5(guest.MD5Pad(msg))

	sys := opts.System
	if sys.TickCycles == 0 {
		sys.TickCycles = 20_000
	}
	vm, err := vmm.Launch(vmm.GuestConfig{System: sys, Program: prog})
	if err != nil {
		return 0, err
	}
	s := vm.System()

	// Flip random user-register bits of the primary replica at random
	// intervals until the run produces an outcome (the paper injects
	// until the digests differ, the application crashes, or CC-RCoE
	// detects a divergence).
	var runErr error
	for !s.Finished() {
		if halted, _ := s.Halted(); halted {
			break
		}
		s.RunCycles(20_000 + r.intn(60_000))
		if halted, _ := s.Halted(); halted || s.Finished() {
			break
		}
		prim := s.Replica(s.Primary()).Core()
		if r.intn(8) == 0 {
			prim.PC ^= 1 << r.intn(20) // control-flow corruption
		} else {
			reg := 1 + r.intn(30) // r1..r30
			prim.Regs[reg] ^= 1 << r.intn(64)
		}
		if s.Machine().Now() > 200_000_000 {
			runErr = errHang
			break
		}
	}

	// Classification.
	for _, d := range s.Detections() {
		switch d.Kind {
		case core.DetectBarrierTimeout:
			return OutcomeBarrierTimeout, nil
		case core.DetectSignatureMismatch, core.DetectVoteInconclusive:
			return OutcomeSignatureMismatch, nil
		case core.DetectKernelException:
			return OutcomeKernelException, nil
		}
	}
	if s.Config().Mode == core.ModeNone {
		rep := s.Replica(0)
		if rep.UserMemFaults > 0 {
			return OutcomeUserMemFault, nil
		}
		if rep.UserFaults > 0 {
			return OutcomeOtherUserFault, nil
		}
	}
	if runErr != nil {
		return OutcomeYCSBError, nil // hung without detection
	}
	got, err := s.Replica(0).K.CopyFromUser(kernel.DataVA, 16)
	if err != nil {
		return 0, fmt.Errorf("faults: read digest: %w", err)
	}
	if !bytes.Equal(got, want[:]) {
		return OutcomeYCSBCorruption, nil
	}
	return OutcomeNone, nil
}
