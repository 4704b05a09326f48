package kernel

import (
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	"rcoe/internal/machine"
)

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	prof := machine.X86()
	prof.JitterShift = 63
	m := machine.New(prof, 8<<20)
	k, err := New(0, m.Core(0), Layout{Base: 0x10000, Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func simpleProg(t *testing.T) []isa.Instr {
	t.Helper()
	b := asm.New()
	b.Li(1, 7)
	b.Syscall(SysExit)
	prog, err := b.Assemble(TextVA)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestCanaryDetectsCorruption(t *testing.T) {
	k := newTestKernel(t)
	if !k.CheckCanary() {
		t.Fatalf("fresh canary should verify")
	}
	if err := k.Core().Machine().Mem().FlipBit(k.Layout().CanaryPA()+16, 3); err != nil {
		t.Fatal(err)
	}
	if k.CheckCanary() {
		t.Fatalf("corrupted canary not detected")
	}
	if k.Err == nil {
		t.Fatalf("kernel error not recorded")
	}
}

// TestCanaryCheckMemo: a check that passed is remembered only until the
// canary page is written, so a corruption by any mutation path after any
// number of passing checks is still caught on the next entry.
func TestCanaryCheckMemo(t *testing.T) {
	corrupt := map[string]func(m *machine.Mem, pa uint64) error{
		"store": func(m *machine.Mem, pa uint64) error { return m.WriteU(pa+8, 8, 0) },
		"dma": func(m *machine.Mem, pa uint64) error {
			b, err := m.Slice(pa, 64)
			if err == nil {
				b[63] ^= 0x80
			}
			return err
		},
		"stuck-at": func(m *machine.Mem, pa uint64) error {
			v, _ := m.ReadU(pa, 1)
			return m.SetStuck(pa, 0, uint(v&1^1))
		},
	}
	for name, write := range corrupt {
		k := newTestKernel(t)
		for i := 0; i < 3; i++ {
			if !k.CheckCanary() {
				t.Fatalf("%s: fresh canary failed check %d", name, i)
			}
		}
		if err := write(k.Core().Machine().Mem(), k.Layout().CanaryPA()); err != nil {
			t.Fatal(err)
		}
		if k.CheckCanary() {
			t.Fatalf("%s: corruption after a remembered check not detected", name)
		}
	}
}

func TestLoadProcessAndSchedule(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t), DataBytes: 4096, Arg: 42}); err != nil {
		t.Fatal(err)
	}
	if !k.Schedule() {
		t.Fatalf("no thread scheduled")
	}
	c := k.Core()
	if c.PC != TextVA {
		t.Fatalf("PC = %#x, want %#x", c.PC, TextVA)
	}
	if c.Regs[isa.RArg0] != 42 {
		t.Fatalf("arg = %d, want 42", c.Regs[isa.RArg0])
	}
	if c.Regs[isa.RSP] != StackTopVA {
		t.Fatalf("sp = %#x", c.Regs[isa.RSP])
	}
}

func TestContextRoundTripThroughRAM(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t)}); err != nil {
		t.Fatal(err)
	}
	k.Schedule()
	c := k.Core()
	c.Regs[5] = 0xABCD
	c.PC = TextVA + 8
	k.SaveContext()
	c.Regs[5] = 0
	c.PC = 0
	k.restoreContext(0)
	if c.Regs[5] != 0xABCD || c.PC != TextVA+8 {
		t.Fatalf("context did not round-trip: r5=%#x pc=%#x", c.Regs[5], c.PC)
	}
}

func TestRegisterFaultInSavedContextTakesEffect(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t)}); err != nil {
		t.Fatal(err)
	}
	k.Schedule()
	c := k.Core()
	c.Regs[5] = 8
	k.SaveContext()
	// Flip a bit in the saved R5 (the paper's register fault injection).
	if err := c.Machine().Mem().FlipBit(k.Layout().CtxPA(0)+5*8, 1); err != nil {
		t.Fatal(err)
	}
	k.restoreContext(0)
	if c.Regs[5] != 10 {
		t.Fatalf("restored r5 = %d, want 10 (bit 1 flipped)", c.Regs[5])
	}
}

func TestPreemptRoundRobin(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t), Stacks: 3}); err != nil {
		t.Fatal(err)
	}
	// Two more threads.
	for i := 1; i < 3; i++ {
		if _, err := k.CreateThread(TextVA, StackTopFor(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	k.Schedule()
	order := []int{k.CurrentTID()}
	for i := 0; i < 5; i++ {
		k.Preempt()
		order = append(order, k.CurrentTID())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", order, want)
		}
	}
	if k.Preemptions != 5 {
		t.Fatalf("preemption count = %d", k.Preemptions)
	}
}

func TestBlockAndWake(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t), Stacks: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateThread(TextVA, StackTopFor(1), 1); err != nil {
		t.Fatal(err)
	}
	k.Schedule()
	if !k.BlockCurrent(3) {
		t.Fatalf("second thread should have been scheduled")
	}
	if k.CurrentTID() != 1 {
		t.Fatalf("current = %d, want 1", k.CurrentTID())
	}
	if got := k.WakeIRQWaiters(4); got != 0 {
		t.Fatalf("woke %d waiters on wrong line", got)
	}
	if got := k.WakeIRQWaiters(3); got != 1 {
		t.Fatalf("woke %d waiters, want 1", got)
	}
	if k.Thread(0).State != ThreadReady {
		t.Fatalf("thread 0 state = %v", k.Thread(0).State)
	}
}

func TestExitAndDone(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t)}); err != nil {
		t.Fatal(err)
	}
	k.Schedule()
	if k.Done() {
		t.Fatalf("not done yet")
	}
	if k.ExitCurrent(7) {
		t.Fatalf("nothing should be runnable after the only thread exits")
	}
	if !k.Done() {
		t.Fatalf("should be done")
	}
	if k.Thread(0).ExitCode != 7 {
		t.Fatalf("exit code = %d", k.Thread(0).ExitCode)
	}
}

func TestEventCounterInRAM(t *testing.T) {
	k := newTestKernel(t)
	if k.EventCount() != 0 {
		t.Fatalf("fresh event count = %d", k.EventCount())
	}
	k.BumpEvent()
	k.BumpEvent()
	if k.EventCount() != 2 {
		t.Fatalf("event count = %d, want 2", k.EventCount())
	}
	// The counter genuinely lives in RAM: corrupting RAM changes it.
	if err := k.Core().Machine().Mem().FlipBit(k.Layout().SigPA(), 7); err != nil {
		t.Fatal(err)
	}
	if k.EventCount() == 2 {
		t.Fatalf("event counter is not stored in RAM")
	}
}

func TestSignatureAccumulatesAndDiverges(t *testing.T) {
	k1 := newTestKernel(t)
	k2 := newTestKernel(t)
	k1.AddTrace(1, 2, 3)
	k2.AddTrace(1, 2, 3)
	_, s1 := k1.Signature()
	_, s2 := k2.Signature()
	if s1 != s2 {
		t.Fatalf("identical traces, different signatures: %#x vs %#x", s1, s2)
	}
	k2.AddTrace(99)
	_, s2 = k2.Signature()
	if s1 == s2 {
		t.Fatalf("diverging traces give identical signatures")
	}
}

func TestSignatureOrderSensitive(t *testing.T) {
	k1 := newTestKernel(t)
	k2 := newTestKernel(t)
	k1.AddTrace(1)
	k1.AddTrace(2)
	k2.AddTrace(2)
	k2.AddTrace(1)
	_, s1 := k1.Signature()
	_, s2 := k2.Signature()
	if s1 == s2 {
		t.Fatalf("signature not order sensitive")
	}
}

func TestAddTraceBytesMatchesBetweenReplicas(t *testing.T) {
	k1 := newTestKernel(t)
	k2 := newTestKernel(t)
	k1.AddTraceBytes([]byte("hello, replicated world"))
	k2.AddTraceBytes([]byte("hello, replicated world"))
	_, s1 := k1.Signature()
	_, s2 := k2.Signature()
	if s1 != s2 {
		t.Fatalf("same bytes, different signatures")
	}
	k2.AddTraceBytes([]byte("hello, replicated worle"))
	_, s2b := k2.Signature()
	if s2b == s2 {
		t.Fatalf("byte change not reflected")
	}
}

// TestAddTraceBytesIsTheWordWalk: AddTraceBytes leaves the accumulator
// exactly where folding the length and then each 8-byte word with its own
// AddTrace call does — healthy, where it folds the buffer in one call, and
// with a stuck bit in the accumulator, where one call would not.
func TestAddTraceBytesIsTheWordWalk(t *testing.T) {
	walk := func(k *Kernel, b []byte) {
		k.AddTrace(uint64(len(b)))
		for len(b) > 0 {
			var w [8]byte
			b = b[copy(w[:], b):]
			k.AddTrace(le64(w[:]))
		}
	}
	buf := make([]byte, 67)
	for i := range buf {
		buf[i] = byte(i*37 + 11)
	}
	for _, stuck := range []bool{false, true} {
		oneCallDiffers := false
		for _, n := range []int{0, 5, 8, 23, 64} {
			var acc [3][4]uint64 // AddTraceBytes, the walk, one AddTrace call
			for v := range acc {
				k := newTestKernel(t)
				if stuck {
					if err := k.m.Mem().SetStuck(k.lay.SigPA()+8, 3, 1); err != nil {
						t.Fatal(err)
					}
				}
				k.AddTrace(0xfeed) // an accumulator that is not all zero
				switch v {
				case 0:
					k.AddTraceBytes(buf[:n])
					k.AddTraceBytes(buf[n:]) // the scratch is reused
				case 1:
					walk(k, buf[:n])
					walk(k, buf[n:])
				default:
					for _, part := range [][]byte{buf[:n], buf[n:]} {
						words := []uint64{uint64(len(part))}
						for len(part) > 0 {
							var w [8]byte
							part = part[copy(w[:], part):]
							words = append(words, le64(w[:]))
						}
						k.AddTrace(words...)
					}
				}
				for i := range acc[v] {
					acc[v][i], _ = k.m.Mem().ReadU(k.lay.SigPA()+8*uint64(i), 8)
				}
			}
			if acc[0] != acc[1] {
				t.Fatalf("stuck %v, split %d: AddTraceBytes left %x, the word walk %x", stuck, n, acc[0], acc[1])
			}
			oneCallDiffers = oneCallDiffers || acc[2] != acc[1]
		}
		if oneCallDiffers != stuck {
			t.Fatalf("stuck %v: folding in one call differs from the walk = %v", stuck, oneCallDiffers)
		}
	}
}

func TestCopyUserRoundTrip(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t), DataBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("user data")
	if err := k.CopyToUser(DataVA+16, msg); err != nil {
		t.Fatal(err)
	}
	got, err := k.CopyFromUser(DataVA+16, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip = %q", got)
	}
	if _, err := k.CopyFromUser(0xDEAD_0000, 8); err == nil {
		t.Fatalf("unmapped user read should fail")
	}
}

func TestLoadProcessTooBig(t *testing.T) {
	prof := machine.X86()
	m := machine.New(prof, 8<<20)
	k, err := New(0, m.Core(0), Layout{Base: 0x10000, Size: 0x30000})
	if err != nil {
		t.Fatal(err)
	}
	err = k.LoadProcess(ProcessConfig{Prog: simpleProg(t), DataBytes: 1 << 20})
	if err == nil {
		t.Fatalf("oversized process should fail to load")
	}
}

func TestCreateThreadLimit(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t)}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < MaxThreads; i++ {
		if _, err := k.CreateThread(TextVA, StackTopFor(0), 0); err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	if _, err := k.CreateThread(TextVA, StackTopFor(0), 0); err == nil {
		t.Fatalf("thread table overflow not detected")
	}
}
