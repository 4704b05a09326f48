package cluster

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests pin the fork-join pool the cluster runs its shards on through
// a whole cluster; internal/forkjoin's own tests pin it at shard-like shapes.

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
