package forkjoin

import (
	"runtime"
	"sync/atomic"
	"testing"
)

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
