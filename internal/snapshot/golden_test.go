package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// nodeOptions is the construction of the v1_node scenario.
func nodeOptions() harness.KVOptions {
	return harness.KVOptions{
		System: core.Config{
			Mode: core.ModeLC, Replicas: 2, Profile: machine.X86(),
			TickCycles: 50_000, LayoutSeed: 1,
		},
		Workload:    workload.YCSBA,
		Records:     24,
		Operations:  40,
		TraceOutput: true,
		Seed:        1,
	}
}

// TestV1NodeGolden pins the RCOESNP v1 bytes against a file written by
// the pre-streaming Writer: testdata/v1_node.snp is the output of
// `rcoe-snap save -records 24 -ops 40` at the commit before Writer was
// rewritten (PR 11). The round-trip tests compare the writer with
// itself, so only this one catches a format slip. The scenario below
// mirrors cmd/rcoe-snap's defaults (x86, LC-DMR, seed 1, 25k-cycle steps
// through the preload).
func TestV1NodeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/v1_node.snp")
	if err != nil {
		t.Fatal(err)
	}
	run, err := harness.NewKV(nodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for !run.LoadPhaseDone() && !run.Done() {
		run.StepChunk(25_000)
	}
	got, err := snapshot.Save(run)
	if err != nil {
		t.Fatal(err)
	}
	expectGolden(t, "snapshot", got, want)

	// AppendSave into a recycled image must produce the same bytes, and
	// must append — not overwrite — when handed a non-empty prefix.
	again, err := snapshot.AppendSave(got[:0], run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("AppendSave into a recycled buffer differs from the v1 golden")
	}
	if &again[0] != &got[0] {
		t.Fatal("AppendSave reallocated a buffer that was already large enough")
	}
	pre, err := snapshot.AppendSave([]byte("prefix"), run)
	if err != nil {
		t.Fatal(err)
	}
	if string(pre[:6]) != "prefix" || !bytes.Equal(pre[6:], want) {
		t.Fatal("AppendSave did not append after the existing bytes")
	}
}

// edgeOptions is the construction of the v1_edge scenario: CC-TMR with
// masking on the Arm profile (compiler-counted branch sites in the config
// digest), tracing and metrics on, a short backed-off retry timeout and a
// mix with two-request operations (YCSB-F), so the client's window, retry
// counters, queue and final-ID set are all populated at the checkpoint.
func edgeOptions() harness.KVOptions {
	return harness.KVOptions{
		System: core.Config{
			Mode: core.ModeCC, Replicas: 3, Profile: machine.Arm(),
			TickCycles: 50_000, Masking: true, LayoutSeed: 1,
			Trace: core.TraceConfig{Enabled: true, RingEvents: 64},
		},
		Workload:     workload.YCSBF,
		Records:      16,
		Operations:   3000,
		TraceOutput:  true,
		Window:       3,
		Seed:         10,
		RetryCycles:  120_000,
		RetryBackoff: true,
		MaxRetries:   50,
		WindowCycles: 100_000,
	}
}

// newEdgeRun builds the scenario's shape: the KV run plus an
// intermittent-fault device registered after the NIC.
func newEdgeRun(t testing.TB, f *machine.IntermittentFault) *harness.KVRun {
	t.Helper()
	run, err := harness.NewKV(edgeOptions())
	if err != nil {
		t.Fatal(err)
	}
	run.Sys.Machine().AddDevice(f)
	return run
}

// pumpUntil steps the run with the client pumping until cond holds.
func pumpUntil(t testing.TB, run *harness.KVRun, chunk uint64, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if halted, why := run.Sys.Halted(); halted {
			t.Fatalf("%s: system halted: %s", what, why)
		}
		if run.Done() || i > 100_000 {
			t.Fatalf("%s: never reached (done=%v)", what, run.Done())
		}
		run.StepChunk(chunk)
	}
}

// corruptCanary overwrites the first kernel-text canary word of replica
// rid, so its next kernel entry latches a kernel error.
func corruptCanary(t testing.TB, run *harness.KVRun, rid int) {
	t.Helper()
	pa := run.Sys.Replica(rid).K.Layout().CanaryPA()
	if err := run.Sys.Machine().Mem().WriteU(pa, 8, 0xdead); err != nil {
		t.Fatal(err)
	}
}

// atEventBarrier reports whether a replica is parked at an event barrier.
// The park descriptor is not public, so it is read from the image: the
// "sys" section ends with one fixed 21-word block per replica whose word 11
// is the kind of the replica's last park, and kinds 5 and up are the event
// barriers.
func atEventBarrier(t testing.TB, run *harness.KVRun) bool {
	t.Helper()
	data, err := snapshot.Save(run)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	n := run.Sys.NumReplicas()
	for _, sec := range snap.Sections() {
		if sec.Name != "sys" {
			continue
		}
		for i := 0; i < n; i++ {
			kind := binary.LittleEndian.Uint64(sec.Data[len(sec.Data)-(n-i)*21*8+11*8:])
			if kind >= 5 && run.Sys.Replica(i).Core().State == machine.CoreParked {
				return true
			}
		}
	}
	return false
}

// edgeRun drives the scenario to its checkpoint. Every stopping rule reads
// public state, so the same code reproduces the same cycle on any commit
// that keeps simulated behaviour.
func edgeRun(t testing.TB) *harness.KVRun {
	t.Helper()
	fault := &machine.IntermittentFault{OnCycles: 4_000, OffCycles: 4_000, Seed: 5, Bit: 3, Value: 1}
	run := newEdgeRun(t, fault)
	sys := run.Sys
	mem := sys.Machine().Mem()
	// The intermittent fault and two permanent stuck bits sit at the top
	// of replica 2's partition, which the guest does not use.
	lay := sys.Replica(2).K.Layout()
	spare := lay.UserPA() + lay.UserSize() - 64
	fault.Addr = spare
	run.NIC.CorruptRxEvery, run.NIC.CorruptSeed = 5, 9

	pumpUntil(t, run, 25_000, "preload", run.LoadPhaseDone)

	// Replica 2 dies of a kernel exception and is ejected.
	corruptCanary(t, run, 2)
	pumpUntil(t, run, 5_000, "eject 2", func() bool { return sys.AliveCount() == 2 })
	if err := mem.SetStuck(spare+8, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := mem.SetStuck(spare+9, 7, 0); err != nil {
		t.Fatal(err)
	}

	// A live re-integration request is overtaken by a direct call made
	// between rendezvous (two chunks on), so applying it latches "already
	// alive".
	run.StepChunk(1_000)
	run.StepChunk(1_000)
	if err := sys.RequestReintegrate(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Reintegrate(2); err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().Reintegrations; n != 1 {
		t.Fatalf("the request was applied before the direct call (%d re-integrations)", n)
	}
	pumpUntil(t, run, 5_000, "latched re-integration error", func() bool {
		pending, err := sys.ReintegrateOutcome()
		return !pending && errors.Is(err, core.ErrReintegrate)
	})

	// Replica 1 latches a kernel error and keeps it; the client retries
	// with backoff while the survivors wait out the barrier timeout and
	// eject it.
	corruptCanary(t, run, 1)
	pumpUntil(t, run, 5_000, "kernel error on 1", func() bool { return sys.Replica(1).K.Err != nil })
	pumpUntil(t, run, 5_000, "eject 1", func() bool { return sys.AliveCount() == 2 })

	// From here the client is frozen (no fill, no drain): the retried
	// window stays in flight and responses pile up in the NIC. Stop where
	// the fault is asserted, frames wait on both sides of the NIC, and a
	// replica sits at an event barrier.
	tx := run.NIC.TxCollected
	for i := 0; i < 3_000; i++ {
		sys.RunCycles(200)
		if fault.On() && run.NIC.PendingRx() > 0 && run.NIC.TxCollected >= tx+2 && atEventBarrier(t, run) {
			return run
		}
	}
	t.Fatal("edge checkpoint: never reached")
	return nil
}

// TestV1EdgeGolden pins the RCOESNP v1 bytes of a state that takes every
// optional branch the clean node of TestV1NodeGolden does not: an armed
// intermittent fault and stuck-at bits, a kernel error latch, a latched
// re-integration error, replicas parked at an event barrier, detections,
// tracing and metrics, branch sites, frames queued on both sides of the
// NIC with RX corruption armed, and a client with retried requests in
// flight, a queued request and a pending final ID. testdata/v1_edge.snp
// was written by this scenario at the commit before the per-type state
// walks replaced the hand-written Save/Load pairs. It must also survive
// save -> restore -> save unchanged.
func TestV1EdgeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/v1_edge.snp")
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.Save(edgeRun(t))
	if err != nil {
		t.Fatal(err)
	}
	expectGolden(t, "edge scenario", got, want)

	rest := newEdgeRun(t, &machine.IntermittentFault{})
	rest.StepChunk(30_000) // every restored field must matter
	if err := snapshot.Restore(rest, want); err != nil {
		t.Fatal(err)
	}
	again, err := snapshot.Save(rest)
	if err != nil {
		t.Fatal(err)
	}
	expectGolden(t, "restored edge scenario", again, want)
}

func expectGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	a, _ := snapshot.Parse(want)
	b, _ := snapshot.Parse(got)
	if a != nil && b != nil {
		t.Fatalf("%s differs from the v1 golden (%d vs %d bytes): %v", what, len(got), len(want), snapshot.Diff(a, b))
	}
	t.Fatalf("%s differs from the v1 golden (%d vs %d bytes) and does not parse", what, len(got), len(want))
}
