package cluster

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Shard-parallel execution. During the run phase of a lockstep round
// every shard's node advances by the same chunk with no interaction —
// frames were injected during fill, responses are collected during
// drain, and nodes share no mutable state — so the chunk executions
// are embarrassingly parallel on the host. A round is ~100 µs of work,
// though, so how the host cores meet at its barrier matters as much as
// the work: a goroutine spawn and a futex sleep/wake per round costs
// about what the round saves (the paper's replicas busy-wait at their
// sync points for the same reason). The pool therefore keeps its
// helpers spinning between rounds and lets them expire when rounds stop
// coming.
//
// Protocol. The coordinator (the goroutine calling run) publishes a
// job — fn, n, a claim counter and a completed counter — through the
// pool's atomic pointer, claims shard indices itself with the claim
// counter, then spin-waits until completed == n. A helper polls the
// pointer; on a job it has not seen it claims indices the same way,
// bumps completed once per index it ran, and goes back to polling. A
// helper that sees no new job for helperLinger exits, and the
// coordinator starts helpers only when fewer than workers-1 are alive,
// so in steady state (a few µs of fill/drain between rounds) nobody
// sleeps and nobody is spawned, while a Cluster that is checkpointing,
// failing over or simply dropped holds no goroutine past the linger.
//
// Both spin loops yield to the scheduler every spinYield polls. That is
// required, not a courtesy: with more spinners than cores (GOMAXPROCS=1,
// or several clusters under internal/exp) the goroutine that holds a
// claimed index must get a core for completed to ever reach n.
//
// Determinism is unaffected by construction: the pool only decides
// *when on the host* each shard's chunk runs, never what it computes —
// each node's execution is a pure function of its injected frames and
// its own simulated state. Everything order-sensitive (wire-ID
// assignment, the acked-write ledger, retry/backoff bookkeeping)
// happens in fill/drain, which stay serialized in shard-ID order on
// the coordinator goroutine.

const (
	// helperLinger is how long a helper polls for the next round before
	// exiting. It has to outlast a whole round, not just the gap between
	// two: when one busy shard dominates a round the helper is idle for
	// most of it, and a helper that expires mid-round is respawned late
	// (a thread wake-up is ~80 µs on a VM), claims a shard late and holds
	// the barrier — at 200 µs the 8-shard fleet ran at 0.6x of serial.
	// Rounds are 60-250 µs at the default chunk and ~1 ms at the
	// million-key chunk; 2 ms is still nothing a person or a leak test
	// would notice.
	helperLinger = 2 * time.Millisecond
	// spinYield is the number of polls between runtime.Gosched calls
	// (and, in a helper, between looks at the clock): ~5 µs of spinning.
	// Every Gosched is a trip through the global run queue, so yielding
	// every ~100 polls costs more than it gives back; at this period a
	// steady-state wait usually ends before the first yield.
	spinYield = 1 << 14
)

// pool runs one Cluster's shard-parallel phases. The zero value is
// ready; it must be driven by one coordinator goroutine at a time.
type pool struct {
	job   atomic.Pointer[job]
	alive atomic.Int32 // helpers started and not yet exited
}

// job is one parallel phase: fn(i) for every i in [0, n).
type job struct {
	fn   func(int)
	n    int64
	next atomic.Int64 // claim counter: the next unclaimed index
	done atomic.Int64 // indices whose fn has returned or panicked
	// A panicking fn cannot be allowed to unwind a helper (Go aborts
	// the process), so panics are parked per index for the coordinator.
	panics   []any
	panicked atomic.Bool
}

// work claims and runs indices until none are left.
func (j *job) work() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.call(int(i))
	}
}

func (j *job) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.panics[i] = r
			j.panicked.Store(true)
		}
		j.done.Add(1)
	}()
	j.fn(i)
}

// run runs fn(i) for every i in [0, n) on the caller plus at most
// workers-1 helpers and returns when all have finished. workers <= 1
// (or n <= 1) runs inline on the caller's goroutine — byte-for-byte the
// serial behavior, including a panic propagating before later shards
// run. In the parallel case every index runs, and the lowest-index
// panic is re-raised on the caller after the barrier with its original
// value: the caller observes the same panic a serial run would have
// surfaced first.
func (p *pool) run(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int64(n), panics: make([]any, n)}
	p.job.Store(j)
	for int(p.alive.Load()) < workers-1 {
		p.alive.Add(1)
		go p.help()
	}
	j.work()
	for polls := 1; j.done.Load() < j.n; polls++ {
		if polls%spinYield == 0 {
			runtime.Gosched()
		}
	}
	if j.panicked.Load() {
		for _, r := range j.panics {
			if r != nil {
				panic(r)
			}
		}
	}
}

// help is a helper's life: work on each newly published job, exit after
// helperLinger without one.
func (p *pool) help() {
	defer p.alive.Add(-1)
	var last *job
	idleSince := time.Now()
	for polls := 1; ; polls++ {
		if j := p.job.Load(); j != last {
			j.work()
			last, idleSince = j, time.Now()
			continue
		}
		if polls%spinYield == 0 {
			if time.Since(idleSince) > helperLinger {
				return
			}
			runtime.Gosched()
		}
	}
}
