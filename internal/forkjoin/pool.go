// Package forkjoin is the host's one fork-join pool: a coordinator hands
// out the indices of a job to itself and to helpers that spin between jobs,
// and returns when every index has run. A cluster fans its shards' run
// phase and audit out over it (internal/cluster), a machine runs two cores'
// runs ahead of machine time side by side on it (internal/machine), and the
// experiment engine runs each campaign on it, one trial per index
// (internal/exp).
package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Most jobs are short: a cluster round is ~100 µs of work, two cores' runs
// ahead a few hundred µs. A goroutine spawn and a futex sleep/wake per job
// costs about what such a job saves (the paper's replicas busy-wait at their
// sync points for the same reason), so helpers spin between jobs and expire
// when jobs stop coming, and the coordinator spins at the barrier. A
// campaign trial runs for seconds, where a spin saves nothing and takes a
// core from the trials' own pools, so the coordinator spins only as long as
// a helper lingers and then blocks until the last index to complete wakes it.
//
// Protocol. The pool owns one job record that each Run re-arms, publishing
// it last through the claim word: the job's generation in the high 32 bits,
// the count u of unclaimed indices in the low 32. Index n-u is claimed by
// swapping the word from (gen, u) to (gen, u-1). fn and n are read only
// after such a swap, and the coordinator re-arms only once every claimed
// index has completed, so a helper still returning from job k can never
// claim an index of job k+1: its generation is stale and the swap fails.
// Helpers are started only when fewer than workers-1 are alive, so in
// steady state nobody sleeps and nobody is spawned. To block, the
// coordinator stores the generation in waiting; whoever brings done to n
// swaps it back to 0 and sends on wake, which a late finisher of an earlier
// job, holding another generation, cannot do.
//
// A spin yields every spinYield polls: with more spinners than cores
// (GOMAXPROCS=1, or trials that fork on pools of their own) the goroutine
// holding a claimed index must get a core. Both spins are written out in
// place: a closure call per poll stretched the period and raised the
// cpu-trap workload's peak RSS by ~6 %.
//
// Determinism is unaffected by construction: the pool only decides *when on
// the host* each index runs, never what it computes. Its callers hand it
// only indices whose work is a pure function of state no other index
// writes, and keep everything order-sensitive on the coordinator.

const (
	// helperLinger is how long a helper polls for the next job before it
	// exits, and how long the coordinator spins before it blocks. It must
	// outlast a whole job: a helper that expires mid-job is respawned late
	// (a thread wake-up is ~80 µs on a VM) and holds the barrier — at
	// 200 µs the 8-shard fleet ran at 0.6x of serial. Cluster rounds are
	// 60-250 µs, ~1 ms at the million-key chunk.
	helperLinger = 2 * time.Millisecond
	// spinYield is the number of polls between runtime.Gosched calls and
	// looks at the clock (~14 µs on a 2-vCPU VM). Every Gosched is a trip
	// through the global run queue; a steady-state wait ends before the first.
	spinYield = 1 << 14
)

// Pool runs one owner's fork-join jobs. The zero value is ready; it must
// be driven by one coordinator goroutine at a time, and owners that run at
// once (two clusters, two machines, two campaigns) each hold their own, by
// pointer: a helper references the pool until its linger ends, and a Pool
// embedded in its owner would keep the owner — a finished machine and the
// RAM its finalizer releases — reachable that long.
type Pool struct {
	claim   atomic.Uint64 // generation<<32 | unclaimed indices (n < 2^32)
	done    atomic.Int64  // indices whose fn has returned or panicked
	waiting atomic.Uint32 // the generation the coordinator blocks on, 0 if none
	alive   atomic.Int32  // helpers started and not yet exited
	wake    chan struct{}

	gen uint32 // the coordinator's alone
	n   int
	fn  func(int)

	// A panic cannot be allowed to unwind a helper (Go aborts the
	// process), so the lowest panicking index is parked for the coordinator.
	mu       sync.Mutex
	panicAt  int
	panicVal any
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
	if p.wake == nil {
		p.wake = make(chan struct{}, 1)
	}
	if p.gen++; p.gen == 0 { // 0 means nobody waits
		p.gen = 1
	}
	p.fn, p.n, p.panicAt = fn, n, n
	p.done.Store(0)
	w := uint64(p.gen)<<32 | uint64(n)
	p.claim.Store(w)
	for int(p.alive.Load()) < workers-1 {
		p.alive.Add(1)
		go p.help()
	}
	p.work(w)
	start := time.Now()
	for polls := 1; p.done.Load() < int64(n); polls++ {
		if polls%spinYield != 0 {
			continue
		}
		if time.Since(start) > helperLinger {
			p.waiting.Store(p.gen)
			if p.done.Load() < int64(n) || !p.waiting.CompareAndSwap(p.gen, 0) {
				<-p.wake
			}
			break
		}
		runtime.Gosched()
	}
	p.fn = nil // a lingering helper keeps p: let it pin nothing fn reaches
	if p.panicAt < n {
		r := p.panicVal
		p.panicVal = nil
		panic(r)
	}
}

// Alive returns how many helpers are running: started by a Run and not yet
// past their linger.
func (p *Pool) Alive() int { return int(p.alive.Load()) }

// work claims and runs indices of the job whose claim word was w until
// none are left or a later job has replaced it.
func (p *Pool) work(w uint64) {
	for gen := w >> 32; w>>32 == gen && uint32(w) != 0; w = p.claim.Load() {
		if p.claim.CompareAndSwap(w, w-1) {
			p.call(p.n-int(uint32(w)), uint32(gen))
		}
	}
}

// call runs index i of job gen and wakes a blocked coordinator if i is the
// last index to complete.
func (p *Pool) call(i int, gen uint32) {
	n := int64(p.n) // once done reaches n the coordinator may re-arm
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if i < p.panicAt {
				p.panicAt, p.panicVal = i, r
			}
			p.mu.Unlock()
		}
		if p.done.Add(1) == n && p.waiting.CompareAndSwap(gen, 0) {
			p.wake <- struct{}{}
		}
	}()
	p.fn(i)
}

// help is a helper's life: work on each newly published job, exit after
// helperLinger without one.
func (p *Pool) help() {
	defer p.alive.Add(-1)
	var seen uint64
	idleSince := time.Now()
	for polls := 1; ; polls++ {
		if w := p.claim.Load(); w>>32 != seen {
			seen = w >> 32
			p.work(w)
			idleSince = time.Now()
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
