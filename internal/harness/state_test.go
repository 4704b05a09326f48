package harness

import (
	"bytes"
	"errors"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// stepUntil advances a run in client-pump chunks until cond holds or the
// cycle budget is exhausted.
func stepUntil(t *testing.T, r *KVRun, budget uint64, cond func() bool) {
	t.Helper()
	m := r.Sys.Machine()
	deadline := m.Now() + budget
	for !cond() && !r.Done() {
		if halted, reason := r.Sys.Halted(); halted {
			t.Fatalf("system halted: %s", reason)
		}
		if m.Now() > deadline {
			t.Fatalf("budget exhausted (ops=%d)", r.opsDone)
		}
		r.StepChunk(2_000)
	}
}

// finishRun drives a run to completion and returns its result.
func finishRun(t *testing.T, r *KVRun) KVResult {
	t.Helper()
	res, err := r.Run()
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	return res
}

// TestKVStateRoundTrip checkpoints a replicated KV benchmark mid-run —
// client window in flight, NIC queues live, server mid-request — and
// verifies the restored run is exact (byte-identical re-serialization)
// and completes bit-identically to the original.
func TestKVStateRoundTrip(t *testing.T) {
	opts := kvOpts(core.ModeLC, 2, workload.YCSBA)
	orig, err := NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint mid-run-phase: past the load, with operations in flight.
	stepUntil(t, orig, 400_000_000, func() bool { return orig.opsDone >= 10 })
	data, err := snapshot.Save(orig)
	if err != nil {
		t.Fatal(err)
	}

	rest, err := NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the target a little so every restored field matters.
	rest.StepChunk(50_000)
	if err := snapshot.Restore(rest, data); err != nil {
		t.Fatal(err)
	}
	data2, err := snapshot.Save(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		sa, _ := snapshot.Parse(data)
		sb, _ := snapshot.Parse(data2)
		t.Fatalf("re-serialized snapshot differs: %v", snapshot.Diff(sa, sb))
	}

	resA := finishRun(t, orig)
	resB := finishRun(t, rest)
	if resA.Ops != resB.Ops || resA.Cycles != resB.Cycles ||
		resA.Corruptions != resB.Corruptions || resA.Errors != resB.Errors ||
		resA.Finished != resB.Finished {
		t.Fatalf("results diverged:\n orig: %+v\n rest: %+v", resA, resB)
	}
	if a, b := orig.Sys.Machine().Now(), rest.Sys.Machine().Now(); a != b {
		t.Fatalf("now diverged: %d vs %d", a, b)
	}
	fa, err := snapshot.Save(orig)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := snapshot.Save(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		sa, _ := snapshot.Parse(fa)
		sb, _ := snapshot.Parse(fb)
		t.Fatalf("continuation diverged: %v", snapshot.Diff(sa, sb))
	}
}

// TestKVStateIncompatibleOptions rejects targets built with different
// benchmark options.
func TestKVStateIncompatibleOptions(t *testing.T) {
	opts := kvOpts(core.ModeLC, 2, workload.YCSBA)
	orig, err := NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	orig.StepChunk(100_000)
	data, err := snapshot.Save(orig)
	if err != nil {
		t.Fatal(err)
	}

	other := opts
	other.Workload = workload.YCSBC
	target, err := NewKV(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Restore(target, data); !errors.Is(err, snapshot.ErrIncompatible) {
		t.Fatalf("workload mismatch: got %v, want ErrIncompatible", err)
	}

	seeded := opts
	seeded.Seed = 99
	target2, err := NewKV(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Restore(target2, data); !errors.Is(err, snapshot.ErrIncompatible) {
		t.Fatalf("seed mismatch: got %v, want ErrIncompatible", err)
	}
}

// TestKVStateHostileCounts: an outstanding, final-ID or queue count far
// beyond the section's bytes is a named decode error, not a host
// allocation panic.
func TestKVStateHostileCounts(t *testing.T) {
	run, err := NewKV(kvOpts(core.ModeLC, 2, workload.YCSBA))
	if err != nil {
		t.Fatal(err)
	}
	for name, words := range map[string][]uint64{
		"outstanding": {1 << 60},
		"finals":      {0, 1 << 60},
		"queue":       {0, 0, 1 << 60},
	} {
		w := snapshot.NewWriter()
		e := w.Section("harness")
		for _, v := range words {
			e.U64(v)
		}
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		err = snap.Walk(func(c *snapshot.Codec) { c.Section("harness", run.client) })
		if !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s count 1<<60: got %v, want ErrBadSnapshot", name, err)
		}
	}
}
