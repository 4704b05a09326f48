// Package forkjoin is the host's one fork-join pool: a coordinator hands
// out the indices of a job to itself and to helpers that spin between jobs,
// and returns when every index has run. A cluster fans its shards' run
// phase and audit out over it (internal/cluster), and a machine runs two
// cores' runs ahead of machine time side by side on it (internal/machine).
package forkjoin

import (
	"runtime"
	"sync/atomic"
	"time"
)

// A job is short: a cluster round is ~100 µs of work, two cores' runs
// ahead a few hundred µs. So how the host cores meet at its barrier matters
// as much as the work: a goroutine spawn and a futex sleep/wake per job
// costs about what the job saves (the paper's replicas busy-wait at their
// sync points for the same reason). The pool therefore keeps its helpers
// spinning between jobs and lets them expire when jobs stop coming.
//
// Protocol. The coordinator (the goroutine calling Run) publishes a
// job — fn, n, a claim counter and a completed counter — through the
// pool's atomic pointer, claims indices itself with the claim counter,
// then spin-waits until completed == n. A helper polls the pointer; on a
// job it has not seen it claims indices the same way, bumps completed
// once per index it ran, and goes back to polling. A helper that sees no
// new job for helperLinger exits, and the coordinator starts helpers only
// when fewer than workers-1 are alive, so in steady state nobody sleeps
// and nobody is spawned, while a pool whose owner is idle or dropped holds
// no goroutine past the linger. A helper that has not claimed an index
// yet when the coordinator runs out of work costs nothing: the coordinator
// has run every index itself.
//
// Both spin loops yield to the scheduler every spinYield polls. That is
// required, not a courtesy: with more spinners than cores (GOMAXPROCS=1,
// or several pools under internal/exp) the goroutine that holds a
// claimed index must get a core for completed to ever reach n.
//
// Determinism is unaffected by construction: the pool only decides
// *when on the host* each index runs, never what it computes. Its callers
// hand it only indices whose work is a pure function of state no other
// index writes, and keep everything order-sensitive on the coordinator,
// before Run or after it returns.

const (
	// helperLinger is how long a helper polls for the next job before
	// exiting. It has to outlast a whole job, not just the gap between
	// two: when one busy index dominates a job the helper is idle for
	// most of it, and a helper that expires mid-job is respawned late
	// (a thread wake-up is ~80 µs on a VM), claims an index late and holds
	// the barrier — at 200 µs the 8-shard fleet ran at 0.6x of serial.
	// Cluster rounds are 60-250 µs at the default chunk and ~1 ms at the
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

// Pool runs one owner's fork-join jobs. The zero value is ready; it must
// be driven by one coordinator goroutine at a time, and owners that run
// at once (two clusters, two machines) each hold their own. An owner holds
// its Pool by pointer: a helper references the pool until its linger ends,
// and a Pool embedded in its owner would keep the owner — a finished
// machine and the RAM its finalizer releases — reachable that long.
type Pool struct {
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

// Run runs fn(i) for every i in [0, n) on the caller plus at most
// workers-1 helpers and returns when all have finished. workers <= 0
// means runtime.NumCPU(). workers <= 1 (or n <= 1) runs inline on the
// caller's goroutine — byte-for-byte the serial behavior, including a
// panic propagating before later indices run. In the parallel case every
// index runs, and the lowest-index panic is re-raised on the caller after
// the barrier with its original value: the caller observes the same panic
// a serial run would have surfaced first.
func (p *Pool) Run(workers, n int, fn func(int)) {
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
	j.fn = nil // a lingering helper keeps j: let it pin nothing fn reaches
	if j.panicked.Load() {
		for _, r := range j.panics {
			if r != nil {
				panic(r)
			}
		}
	}
}

// Alive returns how many helpers are running: started by a Run and not yet
// past their linger.
func (p *Pool) Alive() int { return int(p.alive.Load()) }

// help is a helper's life: work on each newly published job, exit after
// helperLinger without one.
func (p *Pool) help() {
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
