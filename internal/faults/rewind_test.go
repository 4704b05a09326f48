package faults

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
)

// These tests pin the warm fork as a rewind (forker, warmstart.go): a run
// a trial has used, restored from the template, is indistinguishable from
// a freshly built one restored from the same template.

// rewindKV is the warm-start test system, under the all-on or the fully
// naive host engine.
func rewindKV(naive bool) harness.KVOptions {
	kv := kvBase(core.ModeLC, 2)
	kv.Operations = 120
	kv.System.DisableExecCache = naive
	kv.System.DisableSuperblock = naive
	return kv
}

func mustForker(t *testing.T, kv harness.KVOptions, seed uint64) (*forker, []byte) {
	t.Helper()
	tmpl, err := WarmTemplate(kv, seed)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := newForker(kv, seed, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	return fk, tmpl
}

// makeFilthy leaves run in the worst state a trial can: caches warm, bits
// flipped in every replica's text and kernel area and in the shared and
// DMA regions, stuck bits registered, and the system fail-stopped.
func makeFilthy(t *testing.T, run *harness.KVRun) {
	t.Helper()
	sys := run.Sys
	mem := sys.Machine().Mem()
	run.StepChunk(150_000) // superblocks and exec-cache entries over live text
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for rid := 0; rid < sys.NumReplicas(); rid++ {
		k := sys.Replica(rid).K
		for _, seg := range k.AddrSpace().Segs {
			if seg.Perm&machine.PermX != 0 {
				must(mem.FlipBit(seg.PBase+uint64(40+8*rid), uint(rid)))
			}
		}
		lay := k.Layout()
		must(mem.FlipBit(lay.Base+uint64(200+rid), 5))
		must(mem.SetStuck(lay.UserPA()+lay.UserSize()/2, 1, uint(rid)))
	}
	shBase, _ := core.SharedRegion()
	must(mem.FlipBit(shBase+24, 2))
	dmaBase, _ := core.DMARegion()
	must(mem.FlipBit(dmaBase+96, 7))
	must(mem.SetStuck(dmaBase+8, 0, 1))
	sys.InjectStall(1)
	for i := 0; i < 200; i++ {
		if halted, _ := sys.Halted(); halted {
			return
		}
		run.StepChunk(25_000)
	}
	t.Fatal("the filthy trial did not fail-stop the system")
}

// fingerprint is what the rewind must reproduce of a finished trial.
type fingerprint struct {
	Result TrialResult
	Now    uint64
	Cycles []uint64
	Instrs []uint64
	KV     harness.KVResult
	State  []byte
}

func finish(t *testing.T, run *harness.KVRun, opts MemCampaignOptions, seed uint64) fingerprint {
	t.Helper()
	fp := fingerprint{Result: memInject(run, opts, seed)}
	m := run.Sys.Machine()
	fp.Now = m.Now()
	for i := 0; i < m.NumCores(); i++ {
		fp.Cycles = append(fp.Cycles, m.Core(i).Cycles)
		fp.Instrs = append(fp.Instrs, m.Core(i).Instructions)
	}
	fp.KV = run.Snapshot()
	var err error
	if fp.State, err = snapshot.Save(run); err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestRewindIsExact(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "all-on"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			opts := MemCampaignOptions{
				KV: rewindKV(naive), FlipEveryCycles: 2_000, MaxFlips: 400, Burst: 2,
				TargetAllReplicas: true, IncludeDMA: true, Seed: 5,
			}
			fk, tmpl := mustForker(t, opts.KV, opts.Seed)
			// Round 0 rewinds a fail-stopped run that was built fresh, round
			// 1 one that has since been rewound from a finished trial. The
			// first trial seed runs the workload to completion unharmed, the
			// second ends in a signature mismatch.
			for round, trialSeed := range []uint64{0xC0FFEE, 20} {
				fresh, err := harness.NewKV(fk.kv)
				if err != nil {
					t.Fatal(err)
				}
				if err := snapshot.Restore(fresh, tmpl); err != nil {
					t.Fatal(err)
				}
				want := finish(t, fresh, opts, trialSeed)
				if want.Result.Injected == 0 {
					t.Fatal("reference trial injected nothing")
				}
				t.Logf("round %d reference: %+v at cycle %d", round, want.Result, want.Now)

				used, err := fk.trialRun(1)
				if err != nil {
					t.Fatal(err)
				}
				makeFilthy(t, used)
				fk.recycle(used)
				run, err := fk.trialRun(2)
				if err != nil {
					t.Fatal(err)
				}
				if run != used {
					t.Fatal("the forker built a new run with a used one free")
				}
				resave, err := snapshot.Save(run)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resave, tmpl) {
					a, _ := snapshot.Parse(tmpl)
					b, _ := snapshot.Parse(resave)
					t.Fatalf("round %d: rewound run differs from the template: %v", round, snapshot.Diff(a, b))
				}
				got := finish(t, run, opts, trialSeed)
				if !reflect.DeepEqual(got, want) {
					got.State, want.State = nil, nil
					t.Fatalf("round %d: recycled fork diverged from a fresh one:\n got %+v\nwant %+v", round, got, want)
				}
				fk.recycle(run)
			}
		})
	}
}

// hardOpts is the hard-fault campaign the recycling tests run.
func hardOpts() HardCampaignOptions {
	return HardCampaignOptions{KV: rewindKV(false), Seed: 11, WarmStart: true}
}

// TestRecycledRunLeaksNoInjectorConfig is the host-side leak regression: a
// device-class trial configures the NIC's corruption injector on the run
// it then recycles, and the transient trial that inherits the run must
// tally exactly what it tallies on a run of its own.
func TestRecycledRunLeaksNoInjectorConfig(t *testing.T) {
	opts := hardOpts()
	alone, _ := mustForker(t, opts.KV, opts.Seed)
	want, err := hardTrial(opts, ClassTransient, 0xBEEF, alone)
	if err != nil {
		t.Fatal(err)
	}

	fk, _ := mustForker(t, opts.KV, opts.Seed)
	dev, err := hardTrial(opts, ClassDevice, 0xF00D, fk)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Injected == 0 {
		t.Fatal("the device-class trial corrupted no frame")
	}
	if len(fk.free) != 1 {
		t.Fatalf("device-class trial left %d runs free, want 1", len(fk.free))
	}
	used := fk.free[0]
	got, err := hardTrial(opts, ClassTransient, 0xBEEF, fk)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("transient trial on a run a device trial used: %+v, alone: %+v", got, want)
	}
	if len(fk.free) != 1 || fk.free[0] != used {
		t.Fatal("the transient trial did not reuse the device trial's run")
	}
	if used.NIC.CorruptRxEvery != 0 || used.NIC.RxCorrupted != 0 {
		t.Fatalf("NIC injector survived the rewind: every %d, corrupted %d",
			used.NIC.CorruptRxEvery, used.NIC.RxCorrupted)
	}
}

// TestReshapedRunIsNotRecycled: an intermittent-class trial registers
// devices, which is outside what LoadState rewinds, so its run is not
// offered again — and the machine refuses the template if one ever is.
func TestReshapedRunIsNotRecycled(t *testing.T) {
	opts := hardOpts()
	fk, _ := mustForker(t, opts.KV, opts.Seed)
	if _, err := hardTrial(opts, ClassIntermittent, 0xABCD, fk); err != nil {
		t.Fatal(err)
	}
	if len(fk.free) != 0 {
		t.Fatalf("an intermittent-class trial recycled its run (%d free)", len(fk.free))
	}

	run, err := fk.trialRun(1)
	if err != nil {
		t.Fatal(err)
	}
	run.Sys.Machine().AddDevice(&machine.IntermittentFault{Addr: 64, OnCycles: 10, OffCycles: 10})
	fk.recycle(run)
	if _, err := fk.trialRun(2); !errors.Is(err, snapshot.ErrIncompatible) {
		t.Fatalf("fork into a reshaped run: got %v, want ErrIncompatible", err)
	}
	if len(fk.free) != 0 {
		t.Fatal("a run whose restore failed went back on the free list")
	}
}
