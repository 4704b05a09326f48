// Package exp is the unified experiment engine: every campaign of the
// evaluation — overhead sweeps, fault-injection studies, soak cycles — is
// a set of independent, deterministic, self-contained simulated runs, so
// the campaign layer can fan out across all host cores without perturbing
// a single simulated cycle.
//
// The engine's determinism contract has three legs:
//
//   - per-job seeds are derived from a campaign master seed and the job's
//     index (splitmix64), never from completion order or host state;
//   - results land in a slice indexed by job index, never appended in
//     completion order, so aggregation is structurally order-stable;
//   - jobs receive no shared mutable state from the engine.
//
// Together these make worker count invisible: a campaign run with one
// worker and with N workers produces identical results, byte for byte.
//
// Each Run is one job of a fresh internal/forkjoin pool, one index per
// campaign job; the engine has no scheduler of its own.
package exp

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rcoe/internal/forkjoin"
)

// defaultWorkers is the process-wide worker-pool size used when
// Options.Workers is zero. It is what the CLIs' -parallel flags set.
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.NumCPU())) }

// SetDefaultWorkers sets the process-wide default worker count; n < 1
// restores the host core count.
func SetDefaultWorkers(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide default worker count.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// DeriveSeed derives the seed for job index from a campaign master seed
// using a splitmix64 step: well-distributed, stateless, and independent of
// every other job's seed, so jobs can run in any order on any worker. The
// result is never zero.
func DeriveSeed(master uint64, index int) uint64 {
	z := master + 0x9E3779B97F4A7C15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// Job is one independent unit of an experiment campaign.
type Job[T any] struct {
	// Name labels the job in progress reports and error messages.
	Name string
	// Seed, when nonzero, overrides the derived seed (campaigns that
	// predate the engine keep their historical seed chains this way).
	Seed uint64
	// Run executes the job. It must be self-contained: everything it
	// mutates must be reachable only from this job.
	Run func(ctx context.Context, seed uint64) (T, error)
}

// Result is one job's outcome. Results are returned indexed by job index
// regardless of completion order.
type Result[T any] struct {
	Index int
	Name  string
	Seed  uint64
	Value T
	// Err records the job's failure; the campaign continues past it.
	Err error
}

// Progress reports one completed job to Options.OnProgress. Done counts
// completions (in completion order); Index identifies the job.
type Progress struct {
	Index int
	Name  string
	Err   error
	Done  int
	Total int
}

// Options configures one engine invocation.
type Options struct {
	// Workers is the worker-pool size; zero means DefaultWorkers().
	Workers int
	// Context cancels the campaign: running jobs finish, unstarted jobs
	// record ctx.Err(), and Run returns it.
	Context context.Context
	// MasterSeed seeds the per-job derivation for jobs without an
	// explicit seed.
	MasterSeed uint64
	// OnProgress, when set, is called after every job completes. Calls
	// are serialised by the engine but may come from any worker. A panic
	// in it is no job failure: with one worker it reaches Run's caller at
	// once; with more, every job runs and Run re-raises the lowest index's.
	OnProgress func(Progress)
}

// Run executes the jobs on a host worker pool and returns their results
// indexed by job index. With one worker the jobs run in index order on the
// caller's goroutine. Job errors are recorded per job and do not stop
// the campaign; Run itself fails only when the context is cancelled.
func Run[T any](opts Options, jobs []Job[T]) ([]Result[T], error) {
	ctx := cmp.Or(opts.Context, context.Background())
	results := make([]Result[T], len(jobs))
	for i, j := range jobs {
		seed := j.Seed
		if seed == 0 {
			seed = DeriveSeed(opts.MasterSeed, i)
		}
		results[i] = Result[T]{Index: i, Name: j.Name, Seed: seed}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	var (
		progress sync.Mutex
		done     int
	)
	new(forkjoin.Pool).Run(workers, len(jobs), func(i int) {
		if err := ctx.Err(); err != nil {
			results[i].Err = err
		} else {
			results[i].Value, results[i].Err = runJob(ctx, jobs[i], results[i].Seed)
		}
		if opts.OnProgress == nil {
			return
		}
		progress.Lock()
		defer progress.Unlock()
		done++
		opts.OnProgress(Progress{
			Index: i, Name: results[i].Name, Err: results[i].Err,
			Done: done, Total: len(jobs),
		})
	})
	return results, ctx.Err()
}

// runJob executes one job, converting a panic into a recorded error so a
// single bad trial cannot take down a whole campaign.
func runJob[T any](ctx context.Context, j Job[T], seed uint64) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exp: job %q panicked: %v", j.Name, r)
		}
	}()
	if j.Run == nil {
		return val, fmt.Errorf("exp: job %q has no run function", j.Name)
	}
	return j.Run(ctx, seed)
}

// Values extracts the job values in index order. When any job failed it
// returns the lowest-index error — deterministic regardless of which
// worker hit it first.
func Values[T any](results []Result[T]) ([]T, error) {
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// FirstErr returns the lowest-index job error, or nil.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
