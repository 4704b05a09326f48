package rcoe_test

import (
	"bytes"
	"fmt"
	"testing"

	"rcoe"
	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// These tests are the checkpoint/restore determinism contract: saving a
// mid-run checkpoint must not perturb the run (checkpoint-continue), a
// fresh system restored from the checkpoint must finish bit-identically
// to the straight run (restore-run), and re-serializing a restored
// system must reproduce the checkpoint byte for byte. The matrix crosses
// replication scenarios with every host-optimisation combination: the
// accelerators live outside the snapshot boundary, so a checkpoint taken
// under one combination is byte-identical to one taken under any other
// at the same cycle.

// runToEnd drives sys to completion and fingerprints it.
func runToEnd(t *testing.T, sys *rcoe.System) string {
	t.Helper()
	if err := sys.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	return systemFingerprint(sys)
}

func TestSnapshotDeterminismMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  rcoe.Config
		prog rcoe.Program
	}{
		{"base/dhrystone",
			rcoe.Config{Mode: rcoe.ModeNone, Replicas: 1, TickCycles: 20_000},
			rcoe.Dhrystone(200)},
		{"lc-tmr-traced/dhrystone",
			rcoe.Config{Mode: rcoe.ModeLC, Replicas: 3, Masking: true, TickCycles: 20_000,
				Trace: core.TraceConfig{Enabled: true, RingEvents: 1024}},
			rcoe.Dhrystone(200)},
		{"lc-dmr/whetstone",
			rcoe.Config{Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000},
			rcoe.Whetstone(20)},
		{"cc-dmr/dhrystone",
			rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 20_000},
			rcoe.Dhrystone(200)},
		{"lc-tmr-decorrelated/dhrystone",
			rcoe.Config{Mode: rcoe.ModeLC, Replicas: 3, Masking: true, TickCycles: 20_000,
				Decorrelate: true, LayoutSeed: 7},
			rcoe.Dhrystone(200)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			build := func(v hostVariant) *rcoe.System {
				cfg := sc.cfg
				v.apply(&cfg)
				sys, err := rcoe.BuildSystem(cfg, sc.prog)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			// The baseline straight run fixes the expected fingerprint and
			// the mid-run checkpoint cycle.
			base := build(hostVariants[0])
			want := runToEnd(t, base)
			half := base.Machine().Now() / 2

			var baseCp []byte
			for _, v := range hostVariants {
				t.Run(v.name, func(t *testing.T) {
					// Checkpoint-continue: saving must not perturb the run.
					ck := build(v)
					ck.RunCycles(half)
					if ck.Finished() {
						t.Fatalf("checkpoint cycle %d is not mid-run", half)
					}
					cp, err := snapshot.Save(ck)
					if err != nil {
						t.Fatal(err)
					}
					if baseCp == nil {
						baseCp = cp
					} else if !bytes.Equal(baseCp, cp) {
						sa, _ := snapshot.Parse(baseCp)
						sb, _ := snapshot.Parse(cp)
						t.Fatalf("checkpoint bytes depend on the host accelerators:\n%v",
							snapshot.Diff(sa, sb))
					}
					assertIdentical(t, sc.name+"/"+v.name+"/checkpoint-continue",
						want, runToEnd(t, ck))

					// Restore-run: a fresh system restored from the baseline's
					// checkpoint must re-serialize byte-identically and finish
					// on the straight run's fingerprint.
					rs := build(v)
					if err := snapshot.Restore(rs, baseCp); err != nil {
						t.Fatal(err)
					}
					resave, err := snapshot.Save(rs)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(baseCp, resave) {
						t.Fatal("save -> restore -> save round trip is not byte-identical")
					}
					assertIdentical(t, sc.name+"/"+v.name+"/restore-run",
						want, runToEnd(t, rs))
				})
			}
		})
	}
}

// TestSnapshotRestoreBackwardsLive checkpoints a live system at an odd
// cycle offset (deliberately not a multiple of the simulated core
// count, so the round-robin service pointer is mid-rotation), runs it
// well past the next preemption-timer edge, then restores the same —
// still live — system backwards onto its own checkpoint. The rewound
// run must finish on the straight run's fingerprint under every
// accelerator combination: Restore must rebuild every piece of derived
// host state (the memoized timer next-edge, the rotation pointer, the
// exec-cache/superblock caches) rather than trusting what
// the overshoot left behind.
func TestSnapshotRestoreBackwardsLive(t *testing.T) {
	// A short timer period guarantees the run crosses many edges, so
	// both the checkpoint and the overshoot land mid-period.
	cfg := rcoe.Config{Mode: rcoe.ModeLC, Replicas: 3, Masking: true, TickCycles: 3_000}
	prog := rcoe.Dhrystone(500)
	build := func(v hostVariant) *rcoe.System {
		c := cfg
		v.apply(&c)
		sys, err := rcoe.BuildSystem(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := build(hostVariants[0])
	want := runToEnd(t, base)
	k := base.Machine().Now()/2 | 1
	for _, v := range hostVariants {
		t.Run(v.name, func(t *testing.T) {
			sys := build(v)
			sys.RunCycles(k)
			if got := sys.Machine().Now(); got != k {
				t.Fatalf("checkpoint cycle drifted: Now()=%d, want %d", got, k)
			}
			cp, err := snapshot.Save(sys)
			if err != nil {
				t.Fatal(err)
			}
			// Overshoot just past the next preemption-timer edge so the
			// memoized next-edge and the rotation pointer are stale
			// relative to the checkpoint when we rewind, without running
			// the short workload to completion.
			sys.RunCycles(cfg.TickCycles - k%cfg.TickCycles + 1_235)
			if sys.Finished() {
				t.Fatal("overshoot ran to completion; pick an earlier checkpoint")
			}
			if err := snapshot.Restore(sys, cp); err != nil {
				t.Fatal(err)
			}
			if got := sys.Machine().Now(); got != k {
				t.Fatalf("restore left Now()=%d, want %d", got, k)
			}
			assertIdentical(t, "restore-backwards/"+v.name, want, runToEnd(t, sys))
		})
	}
}

// TestSnapshotDeterminismKV runs the same three-way contract on the full
// KV stack — NIC DMA queues, in-flight client requests, workload
// generator — checkpointed at the end of the preload phase, with
// structural decorrelation both off and on.
func TestSnapshotDeterminismKV(t *testing.T) {
	for _, decorr := range []bool{false, true} {
		name := "correlated"
		if decorr {
			name = "decorrelated"
		}
		t.Run(name, func(t *testing.T) {
			opts := harness.KVOptions{
				System: core.Config{
					Mode: core.ModeLC, Replicas: 3, Masking: true, TickCycles: 50_000,
					Decorrelate: decorr, LayoutSeed: 9,
					Trace: core.TraceConfig{Enabled: true, RingEvents: 2048},
				},
				Workload:    workload.YCSBA,
				Records:     24,
				Operations:  120,
				TraceOutput: true,
				Seed:        5,
			}
			newRun := func() *harness.KVRun {
				run, err := harness.NewKV(opts)
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			finish := func(run *harness.KVRun) string {
				res, err := run.Run()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("ops=%d cycles=%d corrupt=%d errors=%d finished=%v\n%s",
					res.Ops, res.Cycles, res.Corruptions, res.Errors, res.Finished,
					systemFingerprint(run.Sys))
			}
			want := finish(newRun())

			ck := newRun()
			for !ck.LoadPhaseDone() {
				if halted, reason := ck.Sys.Halted(); halted {
					t.Fatalf("halted during preload: %s", reason)
				}
				// Match Run()'s 2_000-cycle client pump cadence: the chunk
				// size is part of the workload's timing, not host-side state.
				ck.StepChunk(2_000)
			}
			cp, err := snapshot.Save(ck)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "kv/"+name+"/checkpoint-continue", want, finish(ck))

			rs := newRun()
			if err := snapshot.Restore(rs, cp); err != nil {
				t.Fatal(err)
			}
			resave, err := snapshot.Save(rs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cp, resave) {
				t.Fatal("save -> restore -> save round trip is not byte-identical")
			}
			assertIdentical(t, "kv/"+name+"/restore-run", want, finish(rs))
		})
	}
}
