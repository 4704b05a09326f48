package faults

import (
	"reflect"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/harness"
)

// recycleWorkers are the pool sizes the warm-start invariance tests sweep:
// with 16 trials per campaign, one worker rewinds a single run 15 times,
// two share a pair, and eight each recycle theirs once or twice.
var recycleWorkers = []int{1, 2, 8}

// TestHardCampaignWarmStartWorkerInvariant pins the warm-start
// acceptance property: every trial forks from the same post-preload
// checkpoint with a pre-engine seed chain, so the tallies are
// byte-identical at any worker count — with runs recycled across trials
// and classes, and intermittent-class trials discarding theirs in between.
func TestHardCampaignWarmStartWorkerInvariant(t *testing.T) {
	base := HardCampaignOptions{
		KV:             kvBase(core.ModeLC, 2),
		Classes:        []FaultClass{ClassTransient, ClassIntermittent, ClassStuckAt, ClassDevice},
		TrialsPerClass: 16,
		Seed:           11,
		WarmStart:      true,
	}
	base.KV.Operations = 120

	var want map[FaultClass]*Tally
	for _, workers := range recycleWorkers {
		opts := base
		opts.Workers = workers
		got, err := HardCampaign(opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for _, class := range base.Classes {
			if !reflect.DeepEqual(want[class], got[class]) {
				t.Fatalf("%v: %d workers %+v != %d workers %+v",
					class, recycleWorkers[0], want[class], workers, got[class])
			}
		}
	}
	for _, class := range base.Classes {
		if want[class].Injected == 0 {
			t.Fatalf("%v: warm trials injected nothing", class)
		}
		t.Logf("%v: %+v -> %v", class, want[class].Counts, want[class].Categories())
	}
}

// TestMemCampaignWarmStartDeterministic runs the same warm memory
// campaign at every pool size, and once with a forker per trial so that
// no run is ever reused: a recycled fork must leak no state between
// trials, so all the tallies are identical.
func TestMemCampaignWarmStartDeterministic(t *testing.T) {
	opts := MemCampaignOptions{
		KV:        kvBase(core.ModeLC, 3),
		Trials:    16,
		Seed:      5,
		WarmStart: true,
	}
	tmpl, err := WarmTemplate(opts.KV, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := NewTally()
	for r, i := newRNG(opts.Seed), 0; i < opts.Trials; i++ {
		fk, err := newForker(opts.KV, opts.Seed, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := memTrial(opts, r.next(), fk)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(res.Outcome, res.Injected)
	}
	if want.Injected == 0 {
		t.Fatal("warm trials injected nothing")
	}
	for _, workers := range recycleWorkers {
		opts.Workers = workers
		got, err := MemCampaign(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers, runs recycled: %+v; never recycled: %+v", workers, got, want)
		}
	}
	t.Logf("tally: %+v -> %v", want.Counts, want.Categories())
}

// benchKV is the warm-start quick configuration: a large preload (the
// part a warm fork skips) followed by a short injection-heavy run phase.
func benchKV() harness.KVOptions {
	kv := kvBase(core.ModeLC, 2)
	kv.Records = 4000
	kv.Operations = 20
	return kv
}

func benchTemplate(b *testing.B, warm bool, kv harness.KVOptions, seed uint64) []byte {
	if !warm {
		return nil
	}
	tmpl, err := WarmTemplate(kv, seed)
	if err != nil {
		b.Fatal(err)
	}
	return tmpl
}

func benchHardCampaign(b *testing.B, warm bool) {
	opts := HardCampaignOptions{
		KV:             benchKV(),
		Classes:        []FaultClass{ClassTransient},
		TrialsPerClass: b.N,
		Seed:           11,
		WarmStart:      warm,
		Template:       benchTemplate(b, warm, benchKV(), 11),
		Workers:        1,
	}
	b.ResetTimer()
	got, err := HardCampaign(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	var trials uint64
	for _, c := range got[ClassTransient].Counts {
		trials += c
	}
	if trials != uint64(b.N) {
		b.Fatalf("tally lost trials: %d of %d", trials, b.N)
	}
}

func BenchmarkHardCampaignCold(b *testing.B) { benchHardCampaign(b, false) }
func BenchmarkHardCampaignWarm(b *testing.B) { benchHardCampaign(b, true) }

func benchMemCampaign(b *testing.B, warm bool) {
	opts := MemCampaignOptions{
		KV:        benchKV(),
		Trials:    b.N,
		Seed:      5,
		WarmStart: warm,
		Template:  benchTemplate(b, warm, benchKV(), 5),
		Workers:   1,
	}
	b.ResetTimer()
	if _, err := MemCampaign(opts); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkMemCampaignCold(b *testing.B) { benchMemCampaign(b, false) }
func BenchmarkMemCampaignWarm(b *testing.B) { benchMemCampaign(b, true) }
