package core

import (
	"bytes"
	"errors"
	"testing"

	"rcoe/internal/snapshot"
)

// saveBytes serializes a system, failing the test on error.
func saveBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	data, err := snapshot.Save(sys)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// expectIdentical asserts two serialized systems are byte-identical,
// printing the section-level diff otherwise.
func expectIdentical(t *testing.T, msg string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	sa, _ := snapshot.Parse(a)
	sb, _ := snapshot.Parse(b)
	t.Fatalf("%s: %v", msg, snapshot.Diff(sa, sb))
}

// TestSystemStateRoundTrip pins the full-system snapshot contract on a
// replicated run checkpointed mid-flight (cores may be parked at a
// rendezvous): restore is exact (re-serializing is byte-identical) and
// the restored system runs to completion bit-identically to the
// original, including flight-recorder and metric state.
func TestSystemStateRoundTrip(t *testing.T) {
	cfg := Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000, Sig: SigArgs,
		Trace: TraceConfig{Enabled: true}}
	orig := newSys(t, cfg, syscallLoop(t, 20000))
	orig.RunCycles(400_000) // mid-run: replicas between (or inside) barriers
	if orig.Finished() {
		t.Fatal("workload finished before the checkpoint; shorten the warmup")
	}
	data := saveBytes(t, orig)

	rest := newSys(t, cfg, syscallLoop(t, 20000))
	rest.RunCycles(123_456) // a different cycle: every restored field matters
	if err := snapshot.Restore(rest, data); err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, "re-serialized snapshot differs", data, saveBytes(t, rest))

	mustFinish(t, orig, 200_000_000)
	mustFinish(t, rest, 200_000_000)
	expectIdentical(t, "continuation diverged after restore",
		saveBytes(t, orig), saveBytes(t, rest))
	if got, want := rest.Replica(0).K.Thread(0).ExitCode, orig.Replica(0).K.Thread(0).ExitCode; got != want {
		t.Fatalf("exit code %d, want %d", got, want)
	}
	if a, b := orig.MetricsSnapshot().Table("m"), rest.MetricsSnapshot().Table("m"); a != b {
		t.Fatalf("metric tables diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestSystemStateEventBarrierParks checkpoints a SigSync run at many
// points — some land while replicas are parked at per-syscall event
// barriers — and verifies each restore continues bit-identically.
func TestSystemStateEventBarrierParks(t *testing.T) {
	cfg := Config{Mode: ModeLC, Replicas: 2, Sig: SigSync, TickCycles: 0}
	orig := newSys(t, cfg, syscallLoop(t, 300))
	var checkpoints [][]byte
	for i := 0; i < 6 && !orig.Finished(); i++ {
		orig.RunCycles(40_000)
		checkpoints = append(checkpoints, saveBytes(t, orig))
	}
	mustFinish(t, orig, 200_000_000)
	final := saveBytes(t, orig)

	for i, cp := range checkpoints {
		rest := newSys(t, cfg, syscallLoop(t, 300))
		if err := snapshot.Restore(rest, cp); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		mustFinish(t, rest, 200_000_000)
		expectIdentical(t, "checkpoint continuation diverged", final, saveBytes(t, rest))
	}
}

// TestSystemStateAccelAndTracePortability restores a snapshot saved under
// the default accelerators and no tracing into a system with both
// accelerators disabled and tracing enabled: the simulated evolution must
// be identical (host-side settings are outside the snapshot boundary, and
// enabled tracing perturbs nothing).
func TestSystemStateAccelAndTracePortability(t *testing.T) {
	base := Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000, Sig: SigArgs}
	orig := newSys(t, base, syscallLoop(t, 10000))
	orig.RunCycles(300_000)
	if orig.Finished() {
		t.Fatal("workload finished before the checkpoint; enlarge it")
	}
	data := saveBytes(t, orig)
	mustFinish(t, orig, 200_000_000)

	slow := base
	slow.DisableExecCache = true
	slow.DisableSuperblock = true
	slow.Trace = TraceConfig{Enabled: true}
	rest := newSys(t, slow, syscallLoop(t, 10000))
	if err := snapshot.Restore(rest, data); err != nil {
		t.Fatal(err)
	}
	mustFinish(t, rest, 200_000_000)

	if a, b := orig.Machine().Now(), rest.Machine().Now(); a != b {
		t.Fatalf("now diverged: %d vs %d", a, b)
	}
	for rid := 0; rid < 2; rid++ {
		evA, sumA := orig.Replica(rid).K.Signature()
		evB, sumB := rest.Replica(rid).K.Signature()
		if evA != evB || sumA != sumB {
			t.Fatalf("replica %d signature diverged: (%d,%#x) vs (%d,%#x)",
				rid, evA, sumA, evB, sumB)
		}
	}
	if rest.TraceRecorder() == nil {
		t.Fatal("restored system lost its own flight recorder")
	}
	if rest.TraceRecorder().Ring(0).Total() == 0 {
		t.Fatal("restored tracing system recorded nothing after restore")
	}
}

// TestSystemStateRewindsLiveRecorder restores an untraced snapshot into a
// tracing system that has already run: the recorder and metrics a fresh
// target would hold — empty ones — must replace what the overshoot
// recorded, so a rewound system leaks none of it into the next run.
func TestSystemStateRewindsLiveRecorder(t *testing.T) {
	base := Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000, Sig: SigArgs}
	orig := newSys(t, base, syscallLoop(t, 10000))
	orig.RunCycles(100_000)
	data := saveBytes(t, orig)

	traced := base
	traced.Trace = TraceConfig{Enabled: true}
	live := newSys(t, traced, syscallLoop(t, 10000))
	live.RunCycles(300_000)
	if live.TraceRecorder().Ring(0).Total() == 0 || live.Metrics().Syncs.Value() == 0 {
		t.Fatal("the live system recorded nothing before the restore")
	}
	if err := snapshot.Restore(live, data); err != nil {
		t.Fatal(err)
	}
	if n := live.TraceRecorder().Ring(0).Total(); n != 0 {
		t.Fatalf("%d events recorded before the restore survived it", n)
	}
	if n := live.Metrics().Syncs.Value(); n != 0 {
		t.Fatalf("sync counter kept %d from before the restore", n)
	}
	live.RunCycles(100_000)
	if live.TraceRecorder().Ring(0).Total() == 0 {
		t.Fatal("the rewound system stopped recording")
	}
}

// TestSystemStateIncompatibleConfig rejects restore targets whose
// behavioural configuration differs from the snapshot's.
func TestSystemStateIncompatibleConfig(t *testing.T) {
	cfg := Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000}
	orig := newSys(t, cfg, cpuLoop(t, 5000))
	orig.RunCycles(50_000)
	data := saveBytes(t, orig)

	for name, bad := range map[string]Config{
		"mode":     {Mode: ModeCC, Replicas: 2, TickCycles: 20000},
		"replicas": {Mode: ModeLC, Replicas: 3, TickCycles: 20000},
		"tick":     {Mode: ModeLC, Replicas: 2, TickCycles: 40000},
		"sig":      {Mode: ModeLC, Replicas: 2, TickCycles: 20000, Sig: SigSync},
	} {
		target := newSys(t, bad, cpuLoop(t, 5000))
		if err := snapshot.Restore(target, data); !errors.Is(err, snapshot.ErrIncompatible) {
			t.Errorf("%s mismatch: got %v, want ErrIncompatible", name, err)
		}
	}
}

// TestSystemStateDecorrelatedRoundTrip checkpoints a structurally
// decorrelated TMR run (per-replica layout deltas, physical shuffle) and
// verifies exact continuation — the layout relocations live in restored
// memory and kernel state, not host wiring.
func TestSystemStateDecorrelatedRoundTrip(t *testing.T) {
	cfg := Config{Mode: ModeLC, Replicas: 3, TickCycles: 20000, Sig: SigArgs,
		Decorrelate: true, LayoutSeed: 7}
	orig := newSys(t, cfg, syscallLoop(t, 1000))
	orig.RunCycles(300_000)
	data := saveBytes(t, orig)

	rest := newSys(t, cfg, syscallLoop(t, 1000))
	if err := snapshot.Restore(rest, data); err != nil {
		t.Fatal(err)
	}
	mustFinish(t, orig, 200_000_000)
	mustFinish(t, rest, 200_000_000)
	expectIdentical(t, "decorrelated continuation diverged",
		saveBytes(t, orig), saveBytes(t, rest))
	if rest.AliveCount() != 3 {
		t.Fatalf("alive = %d, want 3", rest.AliveCount())
	}
}

// TestSystemStateHostileCounts: a detection count far beyond the section's
// bytes is a named decode error, not a host allocation panic.
func TestSystemStateHostileCounts(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2}, syscallLoop(t, 10))
	w := snapshot.NewWriter()
	e := w.Section("sys")
	// Five sync words, halted, an empty halt reason, finished, no pending
	// re-integration, no latched error, the request cycle and ten counters.
	for i := 0; i < 5+6+10; i++ {
		e.U64(0)
	}
	e.U64(1 << 60)
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	err = snap.Walk(func(c *snapshot.Codec) { c.Section("sys", sys.control) })
	if !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("detection count 1<<60: got %v, want ErrBadSnapshot", err)
	}
}
