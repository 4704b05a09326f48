package harness

import (
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/machine"
	"rcoe/internal/workload"
)

func kvOpts(mode core.Mode, reps int, kind workload.Kind) KVOptions {
	return KVOptions{
		System: core.Config{
			Mode:       mode,
			Replicas:   reps,
			TickCycles: 50_000,
		},
		Workload:    kind,
		Records:     40,
		Operations:  60,
		TraceOutput: true,
		Seed:        7,
	}
}

func TestKVBaseline(t *testing.T) {
	res, err := RunKV(kvOpts(core.ModeNone, 1, workload.YCSBA))
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 60 {
		t.Fatalf("ops = %d, want 60", res.Ops)
	}
	if res.Corruptions != 0 || res.Errors != 0 {
		t.Fatalf("fault-free run saw %d corruptions, %d errors", res.Corruptions, res.Errors)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
}

func TestKVLCDMR(t *testing.T) {
	res, err := RunKV(kvOpts(core.ModeLC, 2, workload.YCSBA))
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 60 || res.Corruptions != 0 || res.Errors != 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.HaltReason != "" {
		t.Fatalf("halted: %s", res.HaltReason)
	}
}

func TestKVLCTMR(t *testing.T) {
	res, err := RunKV(kvOpts(core.ModeLC, 3, workload.YCSBB))
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 60 || res.Corruptions != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestKVCCDMR(t *testing.T) {
	res, err := RunKV(kvOpts(core.ModeCC, 2, workload.YCSBA))
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 60 || res.Corruptions != 0 || res.Errors != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestKVCCArmCompilerAssisted(t *testing.T) {
	opts := kvOpts(core.ModeCC, 2, workload.YCSBC)
	opts.System.Profile = machine.Arm()
	res, err := RunKV(opts)
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 60 || res.Corruptions != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestKVLCSlowerThanBase(t *testing.T) {
	base, err := RunKV(kvOpts(core.ModeNone, 1, workload.YCSBA))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := RunKV(kvOpts(core.ModeLC, 2, workload.YCSBA))
	if err != nil {
		t.Fatal(err)
	}
	if lc.Throughput >= base.Throughput {
		t.Fatalf("LC-D throughput %.2f >= base %.2f; replication should cost something",
			lc.Throughput, base.Throughput)
	}
}

func TestKVAllWorkloads(t *testing.T) {
	for _, kind := range workload.AllKinds() {
		res, err := RunKV(kvOpts(core.ModeLC, 2, kind))
		if err != nil {
			t.Fatalf("workload %v: %v (res=%+v)", kind, err, res)
		}
		if res.Ops != 60 {
			t.Fatalf("workload %v: ops = %d", kind, res.Ops)
		}
	}
}

func TestKVSigConfigs(t *testing.T) {
	for _, sig := range []core.SigConfig{core.SigIO, core.SigArgs, core.SigSync} {
		opts := kvOpts(core.ModeLC, 2, workload.YCSBA)
		opts.System.Sig = sig
		res, err := RunKV(opts)
		if err != nil {
			t.Fatalf("sig %v: %v (res=%+v)", sig, err, res)
		}
		if res.Ops != 60 || res.Corruptions != 0 {
			t.Fatalf("sig %v: bad result %+v", sig, res)
		}
	}
}

func TestKVClientRetransmits(t *testing.T) {
	opts := kvOpts(core.ModeLC, 2, workload.YCSBA)
	opts.RetryCycles = 200_000
	run, err := NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Let the load phase start, then steal a frame from the RX mailbox
	// (simulating the loss during a failover): the client must retry it.
	run.StepChunk(50_000)
	m := run.Sys.Machine()
	_ = m.Mem().WriteU(run.NIC.RxFlagPA(), 8, 0) // drop the in-flight frame
	res, err := run.Run()
	if err != nil {
		t.Fatalf("run after frame loss: %v (res=%+v)", err, res)
	}
	if res.Ops != opts.Operations {
		t.Fatalf("ops = %d, want %d", res.Ops, opts.Operations)
	}
	if res.Corruptions != 0 {
		t.Fatalf("corruptions after retry: %d", res.Corruptions)
	}
}

func TestThroughputZeroCycles(t *testing.T) {
	// A run phase that consumed no cycles (instant halt) must report 0,
	// not the NaN/Inf of a bare division, which poisons stats aggregation.
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput(10, 0) = %v, want 0", got)
	}
	if got := Throughput(0, 0); got != 0 {
		t.Fatalf("Throughput(0, 0) = %v, want 0", got)
	}
	if got := Throughput(50, 1_000_000); got != 50 {
		t.Fatalf("Throughput(50, 1e6) = %v, want 50 ops/Mcycle", got)
	}
}

// TestKVLostLastLoadStartsRunPhase: the preload's last request can end in
// retry exhaustion instead of an acknowledgement (here every load does:
// the timeout is far shorter than the server's boot). The run phase must
// start there all the same, or the run never reports cycles or
// throughput and never opens an availability window.
func TestKVLostLastLoadStartsRunPhase(t *testing.T) {
	opts := kvOpts(core.ModeLC, 2, workload.YCSBA)
	opts.Records = 4
	opts.RetryCycles, opts.MaxRetries = 1_000, 1
	run, err := NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !run.LoadPhaseDone(); i++ {
		if i == 10 {
			t.Fatal("preload neither acknowledged nor lost")
		}
		run.StepChunk(1_000)
	}
	res := run.Snapshot()
	if res.Errors != opts.Records {
		t.Fatalf("%d loads lost, want all %d (the server answered before the timeouts?)", res.Errors, opts.Records)
	}
	// The last load was lost at the top of the step just taken.
	if res.Cycles != 1_000 {
		t.Fatalf("run phase has consumed %d cycles one step after the last load was lost, want 1000", res.Cycles)
	}
}

// TestKVCCForcedCompilerCounting boots a CC-DMR node on x86 that counts
// branches in the reserved register (the compiler-counting ablation):
// NewNode must instrument the server and hand core its branch sites.
func TestKVCCForcedCompilerCounting(t *testing.T) {
	opts := kvOpts(core.ModeCC, 2, workload.YCSBA)
	opts.System.Profile = machine.X86()
	opts.System.ForceCompilerCounting = true
	opts.Records, opts.Operations = 50, 200
	res, err := RunKV(opts)
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if res.Ops != 200 || !res.Finished || len(res.Detections) != 0 {
		t.Fatalf("bad result: %+v", res)
	}
}
