package guest

import (
	"bytes"
	"crypto/md5"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
)

// runSystem assembles prog for the config and runs it to completion.
func runSystem(t *testing.T, cfg core.Config, p Program, budget uint64) *core.System {
	t.Helper()
	sys := buildSystem(t, cfg, p)
	if err := sys.Run(budget); err != nil {
		t.Fatalf("%s: %v (detections=%v)", p.Name, err, sys.Detections())
	}
	return sys
}

// buildSystem assembles p for cfg and loads it. Unlike Boot it keeps
// core's default 8 MiB partition.
func buildSystem(t *testing.T, cfg core.Config, p Program) *core.System {
	t.Helper()
	pc, err := Assemble(&cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(pc); err != nil {
		t.Fatal(err)
	}
	return sys
}

// readData reads n bytes at DataVA+off from a replica's memory.
func readData(t *testing.T, sys *core.System, rid int, off uint64, n int) []byte {
	t.Helper()
	buf, err := sys.Replica(rid).K.CopyFromUser(kernel.DataVA+off, n)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestDhrystoneCompletesAllModes(t *testing.T) {
	for _, cfg := range []core.Config{
		{Mode: core.ModeNone, TickCycles: 10000},
		{Mode: core.ModeLC, Replicas: 2, TickCycles: 10000},
		{Mode: core.ModeCC, Replicas: 2, TickCycles: 10000},
	} {
		sys := runSystem(t, cfg, Dhrystone(2000), 100_000_000)
		for rid := 0; rid < cfg.Replicas; rid++ {
			if rid == 0 && cfg.Replicas == 0 {
				continue
			}
		}
		_ = sys
	}
}

func TestWhetstoneCompletes(t *testing.T) {
	sys := runSystem(t, core.Config{Mode: core.ModeLC, Replicas: 3, TickCycles: 10000},
		Whetstone(300), 100_000_000)
	if sys.AliveCount() != 3 {
		t.Fatalf("alive = %d", sys.AliveCount())
	}
}

func TestCCArmCompilerAssisted(t *testing.T) {
	cfg := core.Config{
		Mode: core.ModeCC, Replicas: 2, TickCycles: 10000,
		Profile: machine.Arm(),
	}
	sys := runSystem(t, cfg, Dhrystone(1500), 200_000_000)
	// The Arm protocol pays two debug exceptions per breakpoint, so any
	// catch-up shows in the counters.
	var debugExc uint64
	for rid := 0; rid < 2; rid++ {
		debugExc += sys.Replica(rid).DebugExceptions
	}
	if sys.Stats().Syncs == 0 {
		t.Fatalf("no synchronisations happened")
	}
	t.Logf("arm CC: syncs=%d debug exceptions=%d", sys.Stats().Syncs, debugExc)
}

func TestMD5MatchesCrypto(t *testing.T) {
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i*31 + 7)
	}
	want := md5.Sum(msg)
	p := MD5(MD5Pad(msg))
	sys := runSystem(t, core.Config{Mode: core.ModeNone, TickCycles: 50000}, p, 500_000_000)
	got := readData(t, sys, 0, md5DigestOff, 16)
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("digest = %x, want %x", got, want)
	}
}

func TestMD5MatchesCryptoMultiBlockReplicated(t *testing.T) {
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i ^ 0x5A)
	}
	want := md5.Sum(msg)
	p := MD5(MD5Pad(msg))
	sys := runSystem(t, core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: 40000},
		p, 1_000_000_000)
	for rid := 0; rid < 2; rid++ {
		got := readData(t, sys, rid, md5DigestOff, 16)
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("replica %d digest = %x, want %x", rid, got, want)
		}
	}
}

// TestDataRaceLCDivergesCCDoesNot is the §V-A1 experiment: racy threads
// under LC-RCoE produce divergent replica states with high probability;
// under CC-RCoE the replicas never diverge.
func TestDataRaceLCDivergesCCDoesNot(t *testing.T) {
	const threads, iters, idle = 16, 80, 40
	diverged := 0
	attempts := []uint64{1900, 2300, 2800, 3400, 4100}
	for _, tick := range attempts {
		sys := runSystem(t, core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: tick},
			DataRace(threads, iters, idle), 500_000_000)
		c0 := readData(t, sys, 0, 0, 8)
		c1 := readData(t, sys, 1, 0, 8)
		if !bytes.Equal(c0, c1) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatalf("LC replicas never diverged across %d racy runs", len(attempts))
	}
	for _, tick := range attempts[:3] { // CC runs are slow: constant chasing
		sys := runSystem(t, core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: tick},
			DataRace(threads, iters, idle), 2_000_000_000)
		c0 := readData(t, sys, 0, 0, 8)
		c1 := readData(t, sys, 1, 0, 8)
		if !bytes.Equal(c0, c1) {
			t.Fatalf("CC replicas diverged (tick %d): %x vs %x", tick, c0, c1)
		}
	}
	t.Logf("LC diverged in %d/%d runs; CC in 0/3", diverged, len(attempts))
}

func TestAtomicCounterAlwaysCorrect(t *testing.T) {
	const threads, iters = 6, 30
	for _, mode := range []core.Mode{core.ModeLC, core.ModeCC} {
		sys := runSystem(t, core.Config{Mode: mode, Replicas: 2, TickCycles: 3000},
			AtomicCounter(threads, iters), 500_000_000)
		for rid := 0; rid < 2; rid++ {
			buf := readData(t, sys, rid, 0, 8)
			var v uint64
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(buf[i])
			}
			if v != threads*iters {
				t.Fatalf("%v replica %d counter = %d, want %d", mode, rid, v, threads*iters)
			}
		}
	}
}

func TestMembenchCopiesCorrectly(t *testing.T) {
	p := Membench(64<<10, 2)
	sys := buildSystem(t, core.Config{Mode: core.ModeNone, TickCycles: 0}, p)
	// Fill the source buffer (at DataVA + bufBytes + 8192).
	src := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i * 13)
	}
	if err := sys.Replica(0).K.CopyToUser(kernel.DataVA+(64<<10)+8192, src); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	dst := readData(t, sys, 0, 4096, 64<<10)
	if !bytes.Equal(dst, src) {
		t.Fatalf("membench copy corrupted")
	}
}

func TestSplashKernelsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	k := SplashSuite()[10] // RAYTRACE: cheapest
	sys := runSystem(t, core.Config{Mode: core.ModeNone, TickCycles: 20000},
		k.Program(2), 500_000_000)
	if !sys.Finished() {
		t.Fatalf("splash kernel did not finish")
	}
}

func TestSplashSuiteShape(t *testing.T) {
	suite := SplashSuite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d kernels, want 14 (Table IV)", len(suite))
	}
	names := map[string]bool{}
	for _, k := range suite {
		if names[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		names[k.Name] = true
		if k.PaperFactor < 1.0 {
			t.Fatalf("%s: paper factor %v < 1", k.Name, k.PaperFactor)
		}
	}
	if !names["CHOLESKY"] || !names["RAYTRACE"] {
		t.Fatalf("missing expected kernels")
	}
}
