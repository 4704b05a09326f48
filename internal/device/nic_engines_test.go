package device_test

import (
	"bytes"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// TestNICWatchKVEngines runs an LC-DMR key-value node, whose driver talks
// to the NIC through the DMA mailboxes, on the superblock engine and on
// naive stepping: the run's result and its whole saved state must be
// byte-identical, so narrowing the NIC's watched words to the RX flag
// moved no device event.
func TestNICWatchKVEngines(t *testing.T) {
	run := func(noSB bool) (harness.KVResult, []byte) {
		r, err := harness.NewKV(harness.KVOptions{
			System:      core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 60_000, DisableSuperblock: noSB},
			Workload:    workload.YCSBA,
			Records:     40,
			Operations:  200,
			TraceOutput: true,
			Seed:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil || res.Ops != 200 || res.Errors != 0 {
			t.Fatalf("KV run (no superblock %v): %+v, %v", noSB, res, err)
		}
		w := snapshot.NewWriter()
		if err := r.SaveState(w); err != nil {
			t.Fatal(err)
		}
		b, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	fast, fb := run(false)
	naive, nb := run(true)
	if fast.Cycles != naive.Cycles || fast.Stats != naive.Stats {
		t.Fatalf("engines disagree:\nbatch %+v\nnaive %+v", fast, naive)
	}
	if !bytes.Equal(fb, nb) {
		t.Fatalf("saved states differ (%d vs %d bytes)", len(fb), len(nb))
	}
}
