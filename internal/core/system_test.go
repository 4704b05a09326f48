package core

import (
	"strings"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
)

// cpuLoop builds a CPU-bound program: spin `iters` times, store the
// result at DataVA, exit.
func cpuLoop(t testing.TB, iters int64) []isa.Instr {
	t.Helper()
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, uint64(iters))
	b.Label("loop")
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "loop")
	b.Li64(7, kernel.DataVA)
	b.St(8, 7, 5, 0)
	b.Mov(1, 5)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// syscallLoop builds a program that makes `n` null syscalls then exits.
func syscallLoop(t *testing.T, n int64) []isa.Instr {
	t.Helper()
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, uint64(n))
	b.Label("loop")
	b.Syscall(kernel.SysNull)
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "loop")
	b.Li(1, 0)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newSys(t testing.TB, cfg Config, prog []isa.Instr) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(kernel.ProcessConfig{Prog: prog, DataBytes: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustFinish(t *testing.T, sys *System, budget uint64) {
	t.Helper()
	if err := sys.Run(budget); err != nil {
		halted, reason := sys.Halted()
		t.Fatalf("run failed: %v (halted=%v reason=%q detections=%v)",
			err, halted, reason, sys.Detections())
	}
}

func TestBaselineRunsToCompletion(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeNone, TickCycles: 5000}, cpuLoop(t, 20000))
	mustFinish(t, sys, 10_000_000)
	v, _ := sys.Machine().Mem().ReadU(sys.Replica(0).K.Layout().UserPA()+0x11000, 8)
	_ = v // the data segment offset depends on text size; check via exit code instead
	if got := sys.Replica(0).K.Thread(0).ExitCode; got != 20000 {
		t.Fatalf("exit code = %d, want 20000", got)
	}
}

func TestLCDMRCompletesCPUBound(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000}, cpuLoop(t, 50000))
	mustFinish(t, sys, 50_000_000)
	for rid := 0; rid < 2; rid++ {
		if got := sys.Replica(rid).K.Thread(0).ExitCode; got != 50000 {
			t.Fatalf("replica %d exit code = %d", rid, got)
		}
	}
	if len(sys.Detections()) != 0 {
		t.Fatalf("fault-free run had detections: %v", sys.Detections())
	}
}

func TestLCTMRCompletes(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 3, TickCycles: 20000}, cpuLoop(t, 30000))
	mustFinish(t, sys, 50_000_000)
	if sys.AliveCount() != 3 {
		t.Fatalf("alive = %d, want 3", sys.AliveCount())
	}
}

func TestLCDMRSyscallsStaySynced(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 30000, Sig: SigArgs},
		syscallLoop(t, 500))
	mustFinish(t, sys, 100_000_000)
	ev0, sum0 := sys.Replica(0).K.Signature()
	ev1, sum1 := sys.Replica(1).K.Signature()
	if ev0 != ev1 || sum0 != sum1 {
		t.Fatalf("signatures diverged: (%d,%#x) vs (%d,%#x)", ev0, sum0, ev1, sum1)
	}
	if ev0 < 500 {
		t.Fatalf("event count = %d, want >= 500", ev0)
	}
}

func TestSigSyncVotesEverySyscall(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 0, Sig: SigSync},
		syscallLoop(t, 100))
	mustFinish(t, sys, 100_000_000)
	if got := sys.Stats().SyscallVotes; got < 100 {
		t.Fatalf("syscall votes = %d, want >= 100", got)
	}
}

func TestCCDMRCompletesX86(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeCC, Replicas: 2, TickCycles: 20000}, cpuLoop(t, 50000))
	mustFinish(t, sys, 100_000_000)
	for rid := 0; rid < 2; rid++ {
		if got := sys.Replica(rid).K.Thread(0).ExitCode; got != 50000 {
			t.Fatalf("replica %d exit code = %d", rid, got)
		}
	}
}

func TestCCRequiresBranchSitesOnArm(t *testing.T) {
	_, err := NewSystem(Config{Mode: ModeCC, Replicas: 2, Profile: machine.Arm()})
	if err == nil || !strings.Contains(err.Error(), "compiler-assisted") {
		t.Fatalf("expected compiler-assisted error, got %v", err)
	}
}

func TestDMRDetectsUserMemoryCorruption(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000, Sig: SigArgs},
		syscallLoop(t, 10000))
	// Run a little, then corrupt replica 1's loop counter storage — not
	// in memory here; instead corrupt its user text so behaviour changes.
	sys.RunCycles(50_000)
	// Flip a bit in replica 1's text: turn the loop bound comparison.
	lay := sys.Replica(1).K.Layout()
	if err := sys.Machine().Mem().FlipBit(lay.UserPA()+8*2+4, 0); err != nil {
		t.Fatal(err)
	}
	err := sys.Run(200_000_000)
	if err == nil {
		t.Fatalf("corrupted replica not detected; run finished cleanly")
	}
	if len(sys.Detections()) == 0 {
		t.Fatalf("no detections recorded")
	}
}

func TestTMRMasksAndDowngrades(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 3, TickCycles: 20000,
		Sig: SigArgs, Masking: true}, syscallLoop(t, 10000))
	sys.RunCycles(50_000)
	// Corrupt replica 2's signature accumulator directly: the next vote
	// must identify replica 2 and downgrade to DMR.
	lay := sys.Replica(2).K.Layout()
	if err := sys.Machine().Mem().FlipBit(lay.SigPA()+8, 5); err != nil {
		t.Fatal(err)
	}
	mustFinish(t, sys, 400_000_000)
	if sys.AliveCount() != 2 {
		t.Fatalf("alive = %d, want 2 after downgrade", sys.AliveCount())
	}
	if sys.Alive(2) {
		t.Fatalf("replica 2 should have been removed")
	}
	var masked bool
	for _, d := range sys.Detections() {
		if d.Kind == DetectSignatureMismatch && d.Masked && d.Replica == 2 {
			masked = true
		}
	}
	if !masked {
		t.Fatalf("no masked detection recorded: %v", sys.Detections())
	}
}

func TestPrimaryDowngradeReelects(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 3, TickCycles: 20000,
		Sig: SigArgs, Masking: true}, syscallLoop(t, 10000))
	sys.RunCycles(50_000)
	lay := sys.Replica(0).K.Layout()
	if err := sys.Machine().Mem().FlipBit(lay.SigPA()+8, 5); err != nil {
		t.Fatal(err)
	}
	mustFinish(t, sys, 400_000_000)
	if sys.Alive(0) {
		t.Fatalf("primary should have been removed")
	}
	if got := sys.Primary(); got != 1 {
		t.Fatalf("new primary = %d, want 1", got)
	}
	if got := sys.Machine().IRQRoute(TimerLine); got != 1 {
		t.Fatalf("timer IRQ routed to %d, want 1", got)
	}
	if sys.Stats().DowngradeCycles < 10_000 {
		t.Fatalf("primary removal cost %d cycles; expected expensive path", sys.Stats().DowngradeCycles)
	}
}

func TestBarrierTimeoutOnHungReplica(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000,
		BarrierTimeout: 100_000}, cpuLoop(t, 2_000_000))
	sys.RunCycles(30_000)
	// Hang replica 1 (simulates an unresponsive core).
	sys.Replica(1).Core().Park(func() bool { return false }, nil, machine.NoEvent, nil)
	err := sys.Run(50_000_000)
	if err == nil {
		t.Fatalf("hung replica not detected")
	}
	var timeout bool
	for _, d := range sys.Detections() {
		if d.Kind == DetectBarrierTimeout {
			timeout = true
		}
	}
	if !timeout {
		t.Fatalf("no barrier-timeout detection: %v", sys.Detections())
	}
}

func TestFaultVoteAlgorithmConsensus(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeLC, Replicas: 3, Masking: true})
	if err != nil {
		t.Fatal(err)
	}
	// Example 1 from Table I: replica 2 has a different checksum.
	sys.sh.setRepWord(0, rwChecksum, 0xdeadbeef)
	sys.sh.setRepWord(1, rwChecksum, 0xdeadbeef)
	sys.sh.setRepWord(2, rwChecksum, 0x0badf00d)
	faulty, ok := sys.runFaultVote()
	if !ok || faulty != 2 {
		t.Fatalf("vote = (%d,%v), want (2,true)", faulty, ok)
	}
}

func TestFaultVoteAlgorithmNoConsensus(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeLC, Replicas: 3, Masking: true})
	if err != nil {
		t.Fatal(err)
	}
	// Example 2 from Table I: all checksums differ.
	sys.sh.setRepWord(0, rwChecksum, 0x1111)
	sys.sh.setRepWord(1, rwChecksum, 0x2222)
	sys.sh.setRepWord(2, rwChecksum, 0x3333)
	_, ok := sys.runFaultVote()
	if ok {
		t.Fatalf("expected ERROR_DIFF_FAULT_REPLICA (no consensus)")
	}
}

func TestFaultVoteFiveReplicas(t *testing.T) {
	prof := machine.X86()
	prof.Cores = 5
	sys, err := NewSystem(Config{Mode: ModeLC, Replicas: 5, Masking: true, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	for rid := 0; rid < 5; rid++ {
		sys.sh.setRepWord(rid, rwChecksum, 0xAAAA)
	}
	sys.sh.setRepWord(3, rwChecksum, 0xBBBB)
	faulty, ok := sys.runFaultVote()
	if !ok || faulty != 3 {
		t.Fatalf("vote = (%d,%v), want (3,true)", faulty, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{Mode: ModeNone, Replicas: 2}); err == nil {
		t.Fatalf("ModeNone with 2 replicas should fail")
	}
	if _, err := NewSystem(Config{Mode: ModeLC, Replicas: 1}); err == nil {
		t.Fatalf("ModeLC with 1 replica should fail")
	}
	if _, err := NewSystem(Config{Mode: ModeLC, Replicas: 2, Masking: true}); err == nil {
		t.Fatalf("masking DMR should fail")
	}
	if _, err := NewSystem(Config{Mode: ModeLC, Replicas: 9}); err == nil {
		t.Fatalf("more replicas than cores should fail")
	}
}

func TestKernelCanaryCorruptionFailStops(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20000,
		BarrierTimeout: 200_000}, syscallLoop(t, 100000))
	sys.RunCycles(30_000)
	lay := sys.Replica(0).K.Layout()
	if err := sys.Machine().Mem().FlipBit(lay.CanaryPA()+8, 2); err != nil {
		t.Fatal(err)
	}
	err := sys.Run(100_000_000)
	if err == nil {
		t.Fatalf("kernel corruption not detected")
	}
	var kernelExc bool
	for _, d := range sys.Detections() {
		if d.Kind == DetectKernelException && d.Replica == 0 {
			kernelExc = true
		}
	}
	if !kernelExc {
		t.Fatalf("no kernel-exception detection: %v", sys.Detections())
	}
}

func TestRunCyclesStopsOnFinished(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 5000}, cpuLoop(t, 1000))
	sys.RunCycles(200_000_000)
	if !sys.Finished() {
		t.Fatalf("workload did not finish (detections=%v)", sys.Detections())
	}
	if now := sys.Machine().Now(); now >= 100_000_000 {
		t.Fatalf("RunCycles burned the budget past completion: now=%d", now)
	}
}

// TestRunCyclesTimeoutAllocFree: a client pumping a server in slices runs
// every slice into its cycle budget and drops the error, so on an idle
// system a timed-out RunCycles must not allocate — neither the error's text
// nor the error.
func TestRunCyclesTimeoutAllocFree(t *testing.T) {
	b := asm.New()
	b.Label("wait")
	b.Li(1, 3) // a line nothing raises
	b.Syscall(kernel.SysIRQWait)
	b.J("wait")
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2}, prog)
	sys.RunCycles(50_000) // both replicas blocked
	before := sys.Machine().Now()
	if avg := testing.AllocsPerRun(20, func() { sys.RunCycles(2000) }); avg != 0 {
		t.Fatalf("a timed-out RunCycles allocates %.1f times", avg)
	}
	if got := sys.Machine().Now() - before; got != 21*2000 || sys.Finished() {
		t.Fatalf("ran %d cycles (finished %v), want 21 full slices", got, sys.Finished())
	}
}

// TestSyscallSigFoldAllocFree: under SigArgs every syscall folds its number
// and canonical arguments into the signature, once per kernel entry, so the
// fold must not allocate. SysAtomicAdd folds two arguments, one of them a
// canonicalized pointer.
func TestSyscallSigFoldAllocFree(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, Sig: SigArgs}, syscallLoop(t, 10))
	c := sys.Replica(0).Core()
	tr := machine.Trap{Kind: machine.TrapSyscall, Num: kernel.SysAtomicAdd, PC: c.PC}
	_, before := sys.Replica(0).K.Signature()
	trap := func() {
		c.Regs[1], c.Regs[2] = kernel.DataVA, 1
		sys.HandleTrap(c, tr)
	}
	trap() // warm
	if avg := testing.AllocsPerRun(100, trap); avg != 0 {
		t.Fatalf("a SigArgs syscall trap allocates %.1f times", avg)
	}
	if _, sum := sys.Replica(0).K.Signature(); sum == before {
		t.Fatal("the syscalls folded nothing into the signature")
	}
}
