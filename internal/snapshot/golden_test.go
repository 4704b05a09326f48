package snapshot_test

import (
	"bytes"
	"os"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

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
	run, err := harness.NewKV(harness.KVOptions{
		System: core.Config{
			Mode: core.ModeLC, Replicas: 2, Profile: machine.X86(),
			TickCycles: 50_000, LayoutSeed: 1,
		},
		Workload:    workload.YCSBA,
		Records:     24,
		Operations:  40,
		TraceOutput: true,
		Seed:        1,
	})
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
	if !bytes.Equal(got, want) {
		a, _ := snapshot.Parse(want)
		b, _ := snapshot.Parse(got)
		if a != nil && b != nil {
			t.Fatalf("snapshot differs from the v1 golden (%d vs %d bytes): %v", len(got), len(want), snapshot.Diff(a, b))
		}
		t.Fatalf("snapshot differs from the v1 golden (%d vs %d bytes) and does not parse", len(got), len(want))
	}

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
