package cluster

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcoe/internal/forkjoin"
)

// The tests named TestRunShards* pin the fork-join pool the cluster runs its
// shards on (internal/forkjoin) at shard-like shapes; the others pin it
// through a whole cluster.

// TestRunShardsCoversAll checks every index runs exactly once at any
// worker/shard-count combination, including workers > shards and the
// serial path.
func TestRunShardsCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 5, 17} {
			counts := make([]atomic.Int64, max(n, 1))
			new(forkjoin.Pool).Run(workers, n, func(i int) {
				counts[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRunShardsPanicPropagates pins the mid-round failure contract: a
// panicking shard function under the pool re-raises its original panic
// value on the caller after the barrier instead of killing a worker
// goroutine (process abort) or deadlocking the round.
func TestRunShardsPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r != "shard 2 exploded" {
					t.Fatalf("workers=%d: recovered %v, want the original panic value", workers, r)
				}
			}()
			new(forkjoin.Pool).Run(workers, 5, func(i int) {
				ran.Add(1)
				if i == 2 {
					panic("shard 2 exploded")
				}
			})
			t.Fatalf("workers=%d: run returned instead of panicking", workers)
		}()
		if ran.Load() == 0 {
			t.Fatalf("workers=%d: nothing ran", workers)
		}
	}
}

// TestRunShardsPanicLowestIndexWins: when several shards panic in one
// round, the caller observes the lowest shard ID's panic — the one a
// serial walk would have surfaced first.
func TestRunShardsPanicLowestIndexWins(t *testing.T) {
	defer func() {
		if r := recover(); r != 1 {
			t.Fatalf("recovered %v, want panic value 1 (lowest panicking shard)", r)
		}
	}()
	new(forkjoin.Pool).Run(4, 6, func(i int) {
		if i >= 1 && i <= 4 {
			panic(i)
		}
	})
	t.Fatal("run returned instead of panicking")
}

// TestRunShardsSerialStopsAtPanic pins that workers<=1 keeps today's
// serial semantics exactly: the panic propagates immediately, so later
// shards never run.
func TestRunShardsSerialStopsAtPanic(t *testing.T) {
	var last atomic.Int64
	last.Store(-1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic")
		}
		if got := last.Load(); got != 1 {
			t.Fatalf("serial run reached index %d after a panic at 1", got)
		}
	}()
	new(forkjoin.Pool).Run(1, 4, func(i int) {
		last.Store(int64(i))
		if i == 1 {
			panic("stop")
		}
	})
}

// waitHelpersGone waits (bounded) for the pool's helpers to exit.
func waitHelpersGone(t *testing.T, p *forkjoin.Pool, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for p.Alive() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive %v after the last round", p.Alive(), within)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRunShardsHelpersLingerAndExit pins the helper lifecycle: rounds
// that follow each other closely reuse the lingering helpers instead of
// spawning per round, and once rounds stop every helper is gone within
// the linger bound — the pool never holds a goroutine for an idle (or
// dropped) Cluster.
func TestRunShardsHelpersLingerAndExit(t *testing.T) {
	var p forkjoin.Pool
	for round := 0; round < 200; round++ {
		var ran atomic.Int64
		p.Run(3, 6, func(int) { ran.Add(1) })
		if ran.Load() != 6 {
			t.Fatalf("round %d ran %d of 6 indices", round, ran.Load())
		}
		if a := p.Alive(); a < 0 || a > 2 {
			t.Fatalf("round %d: %d helpers alive, want 0..2", round, a)
		}
	}
	waitHelpersGone(t, &p, 50*time.Millisecond)
}

// TestClusterHelpersExitAfterLastStep is the leak test at the level a
// user sees: step a cluster with the pool on, drop it, and the process
// is back at its goroutine baseline within 50 ms.
func TestClusterHelpersExitAfterLastStep(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		opts := testOptions()
		opts.ShardWorkers = 3
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			c.Step()
		}
	}()
	deadline := time.Now().Add(50 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 50 ms after the last Step, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRunShardsOversubscribed: more spinners than cores must neither
// deadlock nor livelock — at GOMAXPROCS=1 the coordinator's spin has to
// yield for a helper holding a claimed index to finish it. 200 rounds
// each, under the test timeout.
func TestRunShardsOversubscribed(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		var p forkjoin.Pool
		for round := 0; round < 200; round++ {
			counts := make([]atomic.Int64, 8)
			p.Run(6, 8, func(i int) {
				// Hand the core over mid-index, so that at GOMAXPROCS=1 a
				// helper is routinely parked while it owns a claimed index.
				runtime.Gosched()
				counts[i].Add(1)
			})
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("GOMAXPROCS=%d round %d: index %d ran %d times", procs, round, i, counts[i].Load())
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		waitHelpersGone(t, &p, 50*time.Millisecond)
	}
}

// TestClusterRunOversubscribed is the same property end to end: a full
// cluster run with more shard workers than GOMAXPROCS completes and
// matches the serial result byte for byte.
func TestClusterRunOversubscribed(t *testing.T) {
	opts := testOptions()
	opts.Operations = 48
	opts.ShardWorkers = 1
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts.ShardWorkers = 3
	got, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		t.Fatalf("GOMAXPROCS=1 with 3 shard workers differs from serial:\n%s\n%s", jg, jw)
	}
}

// TestRunShardsPanicWithLingeringHelper: a panic in round k, while a
// helper from round k-1 is still lingering, re-raises the lowest
// index's value on the coordinator, and round k+1 runs normally on the
// same pool.
func TestRunShardsPanicWithLingeringHelper(t *testing.T) {
	var p forkjoin.Pool
	p.Run(3, 6, func(int) {}) // leaves helpers lingering (2 ms) for the next round
	func() {
		defer func() {
			if r := recover(); r != 2 {
				t.Fatalf("recovered %v, want 2 (lowest panicking index)", r)
			}
		}()
		p.Run(3, 6, func(i int) {
			if i == 2 || i == 5 {
				panic(i)
			}
		})
		t.Fatal("run returned instead of panicking")
	}()
	var ran atomic.Int64
	p.Run(3, 6, func(int) { ran.Add(1) })
	if ran.Load() != 6 {
		t.Fatalf("round after the panic ran %d of 6 indices", ran.Load())
	}
	waitHelpersGone(t, &p, 50*time.Millisecond)
}

// TestClustersDoNotShareHelpers steps two clusters from two goroutines
// at once. Each owns its pool, so neither's helpers can claim the
// other's shards: both finish with the result a lone run gives (and
// the race detector sees no shared state).
func TestClustersDoNotShareHelpers(t *testing.T) {
	opts := testOptions()
	opts.Operations = 48
	opts.ShardWorkers = 3
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	jw, _ := json.Marshal(want)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Run(opts)
			if err != nil {
				t.Error(err)
				return
			}
			if jg, _ := json.Marshal(got); string(jg) != string(jw) {
				t.Errorf("concurrent cluster differs from a lone run:\n%s\n%s", jg, jw)
			}
		}()
	}
	wg.Wait()
}
