package forkjoin

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversAll checks every index runs exactly once at any
// worker/shard-count combination, including workers > shards and the
// serial path.
func TestRunCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 5, 17} {
			counts := make([]atomic.Int64, max(n, 1))
			new(Pool).Run(workers, n, func(i int) {
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

// TestRunPanicPropagates pins the mid-round failure contract: a
// panicking shard function under the pool re-raises its original panic
// value on the caller after the barrier instead of killing a worker
// goroutine (process abort) or deadlocking the round.
func TestRunPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r != "shard 2 exploded" {
					t.Fatalf("workers=%d: recovered %v, want the original panic value", workers, r)
				}
			}()
			new(Pool).Run(workers, 5, func(i int) {
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

// TestRunPanicLowestIndexWins: when several shards panic in one
// round, the caller observes the lowest shard ID's panic — the one a
// serial walk would have surfaced first.
func TestRunPanicLowestIndexWins(t *testing.T) {
	defer func() {
		if r := recover(); r != 1 {
			t.Fatalf("recovered %v, want panic value 1 (lowest panicking shard)", r)
		}
	}()
	new(Pool).Run(4, 6, func(i int) {
		if i >= 1 && i <= 4 {
			panic(i)
		}
	})
	t.Fatal("run returned instead of panicking")
}

// TestRunSerialStopsAtPanic pins that workers<=1 keeps today's
// serial semantics exactly: the panic propagates immediately, so later
// shards never run.
func TestRunSerialStopsAtPanic(t *testing.T) {
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
	new(Pool).Run(1, 4, func(i int) {
		last.Store(int64(i))
		if i == 1 {
			panic("stop")
		}
	})
}

// waitHelpersGone waits (bounded) for the pool's helpers to exit.
func waitHelpersGone(t *testing.T, p *Pool, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for p.Alive() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive %v after the last round", p.Alive(), within)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRunHelpersLingerAndExit pins the helper lifecycle: rounds
// that follow each other closely reuse the lingering helpers instead of
// spawning per round, and once rounds stop every helper is gone within
// the linger bound — the pool never holds a goroutine for an idle (or
// dropped) Cluster.
func TestRunHelpersLingerAndExit(t *testing.T) {
	var p Pool
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

// TestRunOversubscribed: more spinners than cores must neither
// deadlock nor livelock — at GOMAXPROCS=1 the coordinator's spin has to
// yield for a helper holding a claimed index to finish it. 200 rounds
// each, under the test timeout.
func TestRunOversubscribed(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		var p Pool
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

// TestRunPanicWithLingeringHelper: a panic in round k, while a
// helper from round k-1 is still lingering, re-raises the lowest
// index's value on the coordinator, and round k+1 runs normally on the
// same pool.
func TestRunPanicWithLingeringHelper(t *testing.T) {
	var p Pool
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

// TestRunTwoIndicesAtGOMAXPROCS drives the pool the way a machine does
// when two cores' runs go on side by side: a stream of two-index jobs with
// as many workers as GOMAXPROCS. At 1 the coordinator runs both indices and
// starts no helper; at 2 one helper serves every job. Each index runs once
// per job either way.
func TestRunTwoIndicesAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var p Pool
		for job := 0; job < 1000; job++ {
			var ran [2]atomic.Int64
			p.Run(runtime.GOMAXPROCS(0), 2, func(i int) { ran[i].Add(1) })
			if ran[0].Load() != 1 || ran[1].Load() != 1 {
				t.Fatalf("GOMAXPROCS %d, job %d: indices ran %d and %d times", procs, job, ran[0].Load(), ran[1].Load())
			}
			if a := p.Alive(); a > procs-1 {
				t.Fatalf("GOMAXPROCS %d, job %d: %d helpers alive", procs, job, a)
			}
		}
	}
}

// TestRunAllocFree pins the pool-owned job: once the pool's helper and
// wake channel exist, a fork allocates nothing.
func TestRunAllocFree(t *testing.T) {
	var p Pool
	var ran atomic.Int64
	fn := func(int) { ran.Add(1) }
	if a := testing.AllocsPerRun(1000, func() { p.Run(2, 2, fn) }); a != 0 {
		t.Fatalf("Run(2, 2, fn) allocates %v objects per fork, want 0", a)
	}
	if ran.Load() != 2*1001 {
		t.Fatalf("%d indices ran, want %d", ran.Load(), 2*1001)
	}
}

// TestRunBackToBackJobs re-arms the one job record 10 000 times in a row,
// with a different fn and n each time, so that helpers are routinely still
// returning from job k when job k+1 is published. Every index runs exactly
// once per job, and no index of a finished job runs again later: a helper
// holding a stale claim word would bump an earlier job's counts.
func TestRunBackToBackJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var p Pool
		const jobs = 10_000
		counts := make([][]atomic.Int32, jobs)
		for k := range counts {
			counts[k] = make([]atomic.Int32, 1+k%5)
			c := counts[k]
			p.Run(3, len(c), func(i int) { c[i].Add(1) })
			for i := range c {
				if got := c[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, job %d: index %d ran %d times", procs, k, i, got)
				}
			}
		}
		waitHelpersGone(t, &p, 50*time.Millisecond)
		for k, c := range counts {
			for i := range c {
				if got := c[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d: index %d of job %d ran %d times by the end", procs, i, k, got)
				}
			}
		}
	}
}

// TestRunBlockingWait drives the coordinator's wait across its spin budget.
// The index claimed first holds on until the other one is claimed, so that
// both run on different goroutines; the one claimed second finishes before,
// at or well after helperLinger. A coordinator that claimed first then
// returns while spinning, races the finisher as it starts to block, or
// blocks and is woken. Every Run returns with each index run once.
func TestRunBlockingWait(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	delays := []time.Duration{0, helperLinger / 2, helperLinger, 4 * helperLinger}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var p Pool
		for run := 0; run < 240; run++ {
			d := delays[run%len(delays)]
			var claims atomic.Int32
			var ran [2]atomic.Int32
			p.Run(2, 2, func(i int) {
				if claims.Add(1) == 2 {
					time.Sleep(d)
				} else {
					// Bounded: a helper that was just past its linger
					// when Run counted it never claims the other index.
					for deadline := time.Now().Add(50 * time.Millisecond); claims.Load() < 2 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
				}
				ran[i].Add(1)
			})
			if ran[0].Load() != 1 || ran[1].Load() != 1 {
				t.Fatalf("GOMAXPROCS %d, run %d (last index after %v): indices ran %d and %d times",
					procs, run, d, ran[0].Load(), ran[1].Load())
			}
		}
		waitHelpersGone(t, &p, 50*time.Millisecond)
	}
}
