package faults

import (
	"reflect"
	"testing"

	"rcoe/internal/core"
)

// TestHardCampaignWorkerCountInvariant is the engine-parallelism
// acceptance property: per-trial seeds come from the pre-engine chain, so
// a serial campaign and an 8-worker campaign tally byte-identical results.
func TestHardCampaignWorkerCountInvariant(t *testing.T) {
	base := HardCampaignOptions{
		KV:             kvBase(core.ModeLC, 2),
		Classes:        []FaultClass{ClassTransient, ClassStuckAt, ClassDevice},
		TrialsPerClass: 2,
		Seed:           11,
	}
	base.KV.Operations = 120

	serial := base
	serial.Workers = 1
	got1, err := HardCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Workers = 8
	got8, err := HardCampaign(wide)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range base.Classes {
		if !reflect.DeepEqual(got1[class], got8[class]) {
			t.Fatalf("%v: serial %+v != 8-worker %+v", class, got1[class], got8[class])
		}
		t.Logf("%v: %+v -> %v", class, got1[class].Counts, got1[class].Categories())
	}
}

// TestHardTrialDeviceEscapesReplication pins the §III-E residual: NIC DMA
// corruption happens outside the sphere of replication, so every replica
// sees the same corrupt frame and voting cannot catch it — the client
// does.
func TestHardTrialDeviceEscapesReplication(t *testing.T) {
	opts := HardCampaignOptions{KV: kvBase(core.ModeLC, 3)}
	escaped := false
	for seed := uint64(1); seed <= 4 && !escaped; seed++ {
		res, err := HardTrial(opts, ClassDevice, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: outcome=%v injected=%d", seed, res.Outcome, res.Injected)
		if res.Injected == 0 {
			t.Fatalf("seed %d: no frames were corrupted", seed)
		}
		if res.Outcome.Controlled() {
			t.Fatalf("seed %d: replication claimed to detect a device fault: %v",
				seed, res.Outcome)
		}
		if res.Outcome.Observable() {
			escaped = true
		}
	}
	if !escaped {
		t.Fatal("device corruption never reached the client in any trial")
	}
}

// TestHardTrialStuckAtDMRDetects drives permanent faults into a DMR
// system: whenever a stuck bit has an observable effect, replication must
// classify it controlled (no SDC), since only one replica's memory is hit.
func TestHardTrialStuckAtDMRDetects(t *testing.T) {
	opts := HardCampaignOptions{KV: kvBase(core.ModeLC, 2)}
	opts.KV.Operations = 120
	var controlled, uncontrolled int
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := HardTrial(opts, ClassStuckAt, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: outcome=%v (category %v)", seed, res.Outcome, Categorize(res.Outcome))
		switch {
		case res.Outcome.Controlled():
			controlled++
		case res.Outcome.Observable():
			uncontrolled++
		}
	}
	if controlled == 0 {
		t.Fatalf("no stuck-at fault was ever detected (uncontrolled=%d)", uncontrolled)
	}
}

// TestHardTrialIntermittentRuns exercises the duty-cycled fault device end
// to end under replication and confirms the trial is seed-deterministic.
func TestHardTrialIntermittentRuns(t *testing.T) {
	opts := HardCampaignOptions{KV: kvBase(core.ModeLC, 2)}
	opts.KV.Operations = 120
	a, err := HardTrial(opts, ClassIntermittent, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HardTrial(opts, ClassIntermittent, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("intermittent trial not deterministic: %+v vs %+v", a, b)
	}
	t.Logf("outcome=%v (category %v)", a.Outcome, Categorize(a.Outcome))
}

// TestHardTrialEnginesAgree runs the stuck-at and intermittent classes,
// whose stuck bits the batch engine executes blocks under, on the batch
// engine and on naive stepping: every trial must end the same way.
func TestHardTrialEnginesAgree(t *testing.T) {
	for _, class := range []FaultClass{ClassStuckAt, ClassIntermittent} {
		for seed := uint64(1); seed <= 2; seed++ {
			var got [2]TrialResult
			for i, naive := range []bool{false, true} {
				opts := HardCampaignOptions{KV: kvBase(core.ModeLC, 2)}
				opts.KV.Operations = 120
				opts.KV.System.DisableSuperblock = naive
				res, err := HardTrial(opts, class, seed)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = res
			}
			if got[0] != got[1] {
				t.Fatalf("%v seed %d: batch engine %+v, naive stepping %+v", class, seed, got[0], got[1])
			}
			t.Logf("%v seed %d: %+v", class, seed, got[0])
		}
	}
}

func TestHardCampaignProgressCallback(t *testing.T) {
	var calls []FaultClass
	var dones []int
	_, err := HardCampaign(HardCampaignOptions{
		KV:             kvBase(core.ModeLC, 2),
		Classes:        []FaultClass{ClassTransient, ClassBurst},
		TrialsPerClass: 1,
		Seed:           3,
		Progress: func(class FaultClass, done, total int) {
			if total != 2 {
				t.Errorf("total = %d, want 2", total)
			}
			calls = append(calls, class)
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != ClassTransient || calls[1] != ClassBurst {
		t.Fatalf("progress classes = %v", calls)
	}
	if dones[0] != 1 || dones[1] != 2 {
		t.Fatalf("progress done counts = %v", dones)
	}
}
