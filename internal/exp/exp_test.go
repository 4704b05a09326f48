package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs builds n jobs whose value depends only on index and seed.
func squareJobs(n int) []Job[uint64] {
	jobs := make([]Job[uint64], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[uint64]{
			Name: fmt.Sprintf("sq[%d]", i),
			Run: func(_ context.Context, seed uint64) (uint64, error) {
				// Stagger completion order so index-stable aggregation is
				// actually exercised, not just trivially true.
				time.Sleep(time.Duration((n-i)%3) * time.Millisecond)
				return seed ^ uint64(i*i), nil
			},
		}
	}
	return jobs
}

func TestRunZeroJobs(t *testing.T) {
	res, err := Run(Options{}, []Job[int]{})
	if err != nil {
		t.Fatalf("zero jobs: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("zero jobs returned %d results", len(res))
	}
	if vals, err := Values(res); err != nil || len(vals) != 0 {
		t.Fatalf("Values on empty results: %v %v", vals, err)
	}
}

func TestRunWorkerCountInvisible(t *testing.T) {
	const n = 17
	var want []Result[uint64]
	for _, workers := range []int{1, 2, 3, 8, n + 5} {
		res, err := Run(Options{Workers: workers, MasterSeed: 42}, squareJobs(n))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range res {
			if r.Index != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, r.Index)
			}
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestRunOneWorkerIsSerial(t *testing.T) {
	order := make([]int, 0, 5)
	jobs := make([]Job[int], 5)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context, uint64) (int, error) {
			order = append(order, i) // safe: one worker, no concurrency
			return i, nil
		}}
	}
	if _, err := Run(Options{Workers: 1}, jobs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("one worker ran out of order: %v", order)
	}
}

func TestRunJobErrorRecordedCampaignContinues(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 6)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("j%d", i),
			Run: func(context.Context, uint64) (int, error) {
				if i == 2 {
					return 0, boom
				}
				return i * 10, nil
			},
		}
	}
	res, err := Run(Options{Workers: 3}, jobs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, r := range res {
		if i == 2 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("job 2 error = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != i*10 {
			t.Fatalf("job %d after failure: value=%d err=%v", i, r.Value, r.Err)
		}
	}
	if err := FirstErr(res); !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v", err)
	}
	if _, err := Values(res); !errors.Is(err, boom) {
		t.Fatalf("Values error = %v", err)
	}
}

func TestRunJobPanicRecorded(t *testing.T) {
	jobs := []Job[int]{
		{Name: "ok", Run: func(context.Context, uint64) (int, error) { return 1, nil }},
		{Name: "bad", Run: func(context.Context, uint64) (int, error) { panic("kaboom") }},
		{Name: "nil-run"},
	}
	res, err := Run(Options{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Value != 1 {
		t.Fatalf("job 0: %+v", res[0])
	}
	if res[1].Err == nil {
		t.Fatal("panic was not recorded as an error")
	}
	if res[2].Err == nil {
		t.Fatal("nil Run was not recorded as an error")
	}
}

func TestRunContextCancelledMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(context.Context, uint64) (int, error) {
			if i == 1 {
				cancel() // one worker: jobs 2.. have not started yet
			}
			return i, nil
		}}
	}
	res, err := Run(Options{Workers: 1, Context: ctx}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run after cancel returned %v", err)
	}
	// Jobs 0 and 1 ran to completion; everything after records ctx.Err().
	for i, r := range res {
		if i <= 1 {
			if r.Err != nil || r.Value != i {
				t.Fatalf("started job %d: %+v", i, r)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unstarted job %d error = %v", i, r.Err)
		}
	}
}

func TestRunProgressCoversEveryJob(t *testing.T) {
	const n = 9
	seen := make(map[int]bool)
	var last int
	_, err := Run(Options{
		Workers: 4,
		OnProgress: func(p Progress) {
			// Serialised by the engine: no lock needed here.
			seen[p.Index] = true
			if p.Total != n || p.Done != last+1 {
				t.Errorf("progress done=%d total=%d (last=%d)", p.Done, p.Total, last)
			}
			last = p.Done
		},
	}, squareJobs(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("progress reported %d distinct jobs, want %d", len(seen), n)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	// The derivation is part of the determinism contract: changing it
	// silently reshuffles every campaign. Pin a few values.
	pins := map[int]uint64{
		0: DeriveSeed(1, 0),
		1: DeriveSeed(1, 1),
		2: DeriveSeed(1, 2),
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 10_000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	for i, want := range pins {
		if got := DeriveSeed(1, i); got != want {
			t.Fatalf("DeriveSeed(1, %d) unstable: %#x then %#x", i, want, got)
		}
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("different masters derive the same seed")
	}
}

func TestExplicitSeedOverridesDerivation(t *testing.T) {
	jobs := []Job[uint64]{
		{Seed: 77, Run: func(_ context.Context, seed uint64) (uint64, error) { return seed, nil }},
		{Run: func(_ context.Context, seed uint64) (uint64, error) { return seed, nil }},
	}
	res, err := Run(Options{Workers: 1, MasterSeed: 9}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != 77 || res[0].Seed != 77 {
		t.Fatalf("explicit seed not honoured: %+v", res[0])
	}
	if want := DeriveSeed(9, 1); res[1].Value != want {
		t.Fatalf("derived seed = %#x, want %#x", res[1].Value, want)
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	old := DefaultWorkers()
	defer SetDefaultWorkers(old)
	SetDefaultWorkers(3)
	if DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d, want 3", DefaultWorkers())
	}
	SetDefaultWorkers(0) // restores host core count
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d after reset", DefaultWorkers())
	}
}

// TestRunProgressPanicReachesCaller: a panicking OnProgress is not a job
// failure. With one worker it propagates at once and later jobs never
// start; with four every job runs, and Run re-raises the value of the
// lowest index whose callback panicked.
func TestRunProgressPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		jobs := make([]Job[int], 6)
		for i := range jobs {
			jobs[i] = Job[int]{Run: func(context.Context, uint64) (int, error) {
				ran.Add(1)
				return 0, nil
			}}
		}
		func() {
			defer func() {
				if r := recover(); r != 2 {
					t.Fatalf("workers=%d: recovered %v, want 2 (lowest panicking index)", workers, r)
				}
			}()
			Run(Options{Workers: workers, OnProgress: func(p Progress) {
				if p.Index == 2 || p.Index == 4 {
					panic(p.Index)
				}
			}}, jobs)
			t.Fatalf("workers=%d: Run returned instead of panicking", workers)
		}()
		want := int64(len(jobs))
		if workers == 1 {
			want = 3
		}
		if ran.Load() != want {
			t.Fatalf("workers=%d: %d jobs ran, want %d", workers, ran.Load(), want)
		}
	}
}
