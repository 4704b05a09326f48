package machine

import (
	"encoding/binary"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// watchedWord is the RAM word the watched parks below wait on, in a page
// of its own, away from the program text in page 0.
const watchedWord = 0x2000

// flagHandler is a kernel that raises a host-side flag on the first
// syscall and lets the core run on.
type flagHandler struct{ flag bool }

func (h *flagHandler) HandleTrap(c *Core, t Trap) {
	if t.Kind == TrapSyscall {
		h.flag = true
		return
	}
	c.Halt()
}

// parkScenario boots core 0 on prog and parks core 1 on cond, declaring a
// watch on watchedWord's page and wake — or, for the every-poll reference
// (gated false), a wake of 0. It runs for budget cycles and returns the
// machine cycle at which the park woke (0 = never) and how often cond was
// evaluated.
func parkScenario(t *testing.T, prog *asm.Builder, gated bool, wake func(c *Core) uint64,
	cond func(m *Machine, h *flagHandler, c *Core) bool, budget uint64) (woke uint64, evals int, st ParkStats) {
	t.Helper()
	m := New(noJitter(X86()), 1<<16)
	ins, err := prog.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Write(0, isa.EncodeProgram(ins)); err != nil {
		t.Fatal(err)
	}
	h := &flagHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	c := m.Core(1)
	w := uint64(0)
	if gated {
		w = wake(c)
	}
	c.Park(func() bool { evals++; return cond(m, h, c) }, func() {
		woke = m.Now()
		c.Halt()
	}, w, m.Mem().PageGen(watchedWord, 8))
	m.Run(budget)
	return woke, evals, m.ParkStats()
}

// spinThen emits a program that spins n iterations, runs then, and spins
// forever, so core 0 keeps the machine busy (no idle skip) throughout.
func spinThen(n int64, then func(b *asm.Builder)) *asm.Builder {
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, uint64(n))
	b.Label("spin")
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "spin")
	then(b)
	b.Label("forever")
	b.Addi(5, 5, 1)
	b.J("forever")
	return b
}

// TestParkWatchGateExact drives a watched park through each of the three
// ways its condition may change — the watched page mutating, kernel code
// running, the declared wake cycle arriving — and checks that it wakes on
// the cycle a park declaring a wake of 0 (every poll evaluated) wakes on,
// after a handful of evaluations instead of one per cycle.
func TestParkWatchGateExact(t *testing.T) {
	never := func(*Core) uint64 { return NoEvent }
	cases := []struct {
		name string
		prog *asm.Builder
		wake func(c *Core) uint64
		cond func(m *Machine, h *flagHandler, c *Core) bool
	}{
		{"page-store", spinThen(300, func(b *asm.Builder) {
			b.Li64(7, watchedWord)
			b.Li(8, 7)
			b.St(8, 7, 8, 0)
		}), never, func(m *Machine, _ *flagHandler, _ *Core) bool {
			v, _ := m.Mem().ReadU(watchedWord, 8)
			return v == 7
		}},
		{"kernel-flag", spinThen(300, func(b *asm.Builder) { b.Syscall(1) }), never,
			func(_ *Machine, h *flagHandler, _ *Core) bool { return h.flag }},
		{"wake-cycle", spinThen(1, func(*asm.Builder) {}),
			func(c *Core) uint64 { return c.Cycles + 777 },
			func(_ *Machine, _ *flagHandler, c *Core) bool { return c.Cycles >= 777 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refWoke, refEvals, _ := parkScenario(t, tc.prog, false, tc.wake, tc.cond, 5000)
			woke, evals, st := parkScenario(t, tc.prog, true, tc.wake, tc.cond, 5000)
			if refWoke == 0 {
				t.Fatalf("reference park never woke")
			}
			if woke != refWoke {
				t.Fatalf("watched park woke at cycle %d, every-poll reference at %d", woke, refWoke)
			}
			// The reference polls on every cycle that core 0's stall windows
			// do not bulk-charge: most of them.
			if uint64(refEvals) < refWoke/2 {
				t.Fatalf("reference evaluated %d times over %d cycles, want about one per cycle", refEvals, refWoke)
			}
			if evals > 3 {
				t.Fatalf("watched park evaluated %d times, want at most 3 (first poll, the change, slack)", evals)
			}
			// The watched rider is not even polled in the windows the batch
			// credits while core 0 is promised; the reference is polled on
			// every cycle.
			if st.Polls > uint64(refEvals) || st.Evals != uint64(evals) {
				t.Fatalf("ParkStats = %+v, want {Polls<=%d Evals:%d}", st, refEvals, evals)
			}
		})
	}
}

// TestParkWatchHostCallsReevaluate: host code may run between any two
// Step, Run or RunUntil calls, so each of them re-evaluates a watched park
// once even though nothing the machine can see has changed.
func TestParkWatchHostCallsReevaluate(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	c := m.Core(0)
	evals := 0
	released := false
	c.Park(func() bool { evals++; return released }, nil, NoEvent, m.Mem().PageGen(watchedWord, 8))
	m.SetSuperblock(false) // poll every cycle: the gate alone must skip
	m.Run(100)
	m.Run(100)
	_ = m.RunUntil(func() bool { return false }, 100)
	m.Step()
	m.Step()
	if evals != 5 {
		t.Fatalf("evaluated %d times over 3 runs and 2 steps, want 5", evals)
	}
	if st := m.ParkStats(); st.Polls != 302 || st.Evals != 5 {
		t.Fatalf("ParkStats = %+v, want {Polls:302 Evals:5}", st)
	}
	released = true // host-side input: the next call must see it at once
	m.Step()
	if c.State != CoreRunning {
		t.Fatalf("park did not wake on the first cycle after the host released it")
	}
}

// TestParkWatchUndeclaredWakeEvaluates: a wake of 0 says time may make the
// condition true on any poll, so a watch alone must not skip — on naive
// stepping, and with the batch engine, which must not credit the rider.
func TestParkWatchUndeclaredWakeEvaluates(t *testing.T) {
	for _, sb := range []bool{false, true} {
		m := New(noJitter(X86()), 1<<16)
		m.SetSuperblock(sb)
		c := m.Core(0)
		evals := 0
		c.Park(func() bool { evals++; return false }, nil, 0, m.Mem().PageGen(watchedWord, 8))
		m.Run(50)
		if evals != 50 {
			t.Fatalf("superblock %v: evaluated %d times in 50 cycles, want 50", sb, evals)
		}
	}
}

// flagDevice flips a host-side flag at a fixed cycle: an input that is
// neither in a watched page nor written by kernel or host code.
type flagDevice struct {
	at   uint64
	flag bool
}

func (d *flagDevice) Tick(m *Machine) {
	if m.Now() == d.at {
		d.flag = true
	}
}

func (d *flagDevice) NextEvent(now uint64) uint64 {
	if now < d.at {
		return d.at
	}
	return NoEvent
}

// latchDevice latches an interrupt on core 1 at a fixed cycle: line 2
// through RaiseIRQ, or an IPI through SendIPI.
type latchDevice struct {
	at  uint64
	ipi bool
}

func (d *latchDevice) Tick(m *Machine) {
	switch {
	case m.Now() != d.at:
	case d.ipi:
		m.SendIPI(1)
	default:
		m.RaiseIRQ(2)
	}
}

func (d *latchDevice) NextEvent(now uint64) uint64 {
	if now < d.at {
		return d.at
	}
	return NoEvent
}

// TestParkEpochInterruptLatch: a park condition may read its core's
// interrupt latches because RaiseIRQ and SendIPI move the park epoch. Core 1
// waits on its latch, wake never and watching a page, beside a spinning core
// 0, and a device latches the interrupt in its Tick: the park must wake on
// the cycle a reference declaring a wake of 0 (every poll evaluated) wakes
// on, on naive stepping and with the batch engine.
func TestParkEpochInterruptLatch(t *testing.T) {
	for _, ipi := range []bool{false, true} {
		for _, sb := range []bool{false, true} {
			woke := func(wake uint64) (at uint64) {
				m := New(noJitter(X86()), 1<<16)
				m.SetSuperblock(sb)
				mustLoad(t, m, spinThen(1<<30, func(*asm.Builder) {}), 0)
				m.SetHandler(&flagHandler{})
				m.StartCore(0, 0, flatAS(m.Mem().Size()))
				m.AddDevice(&latchDevice{at: 777, ipi: ipi})
				m.RouteIRQ(2, 1)
				c := m.Core(1)
				c.Park(func() bool { return c.PendingIRQ() != 0 || c.IPIPending() }, func() {
					at = m.Now()
					c.Halt()
				}, wake, m.Mem().PageGen(watchedWord, 8))
				m.Run(5000)
				return at
			}
			ref, got := woke(0), woke(NoEvent)
			if ref != 777 {
				t.Fatalf("ipi %v, superblock %v: the every-poll reference woke at cycle %d, want 777", ipi, sb, ref)
			}
			if got != ref {
				t.Fatalf("ipi %v, superblock %v: the gated park woke at cycle %d, the reference at %d", ipi, sb, got, ref)
			}
		}
	}
}

// TestParkWatchShadowReportsViolation declares a watch on a condition
// that breaks the contract (a device flips its input) and checks that
// DebugParkShadow reports the poll the gate wrongly skipped.
func TestParkWatchShadowReportsViolation(t *testing.T) {
	var violations []uint64
	DebugParkShadow = func(coreID int, now uint64) { violations = append(violations, now) }
	defer func() { DebugParkShadow = nil }()
	m := New(noJitter(X86()), 1<<16)
	m.SetSuperblock(false)
	dev := &flagDevice{at: 40}
	m.AddDevice(dev)
	c := m.Core(0)
	c.Park(func() bool { return dev.flag }, nil, NoEvent, m.Mem().PageGen(watchedWord, 8))
	m.Run(60)
	if c.State != CoreParked {
		t.Fatalf("the gate evaluated a poll it had no reason to: the test no longer violates the contract")
	}
	if len(violations) != 21 || violations[0] != 40 {
		t.Fatalf("shadow reported %v, want cycles 40..60", violations)
	}
}

// TestParkWatchPageGenCountsEveryMutationPath: a watch is only as good as
// the generation it reads, so every way of changing a byte — including the
// fault injector's and the DMA window — must bump it.
func TestParkWatchPageGenCountsEveryMutationPath(t *testing.T) {
	mem := NewMem(1 << 16)
	gp := mem.PageGen(watchedWord, 8)
	if gp == nil {
		t.Fatal("no generation for an in-page range")
	}
	if mem.PageGen(watchedWord+4092, 8) != nil {
		t.Fatal("a range spanning two pages has no single generation")
	}
	if mem.PageGen(1<<16, 8) != nil || mem.PageGen(watchedWord, 0) != nil {
		t.Fatal("ranges outside RAM or empty declare no watch")
	}
	paths := []struct {
		name string
		do   func() error
	}{
		{"WriteU", func() error { return mem.WriteU(watchedWord, 8, 1) }},
		{"Write", func() error { return mem.Write(watchedWord, []byte{2}) }},
		{"Fill", func() error { return mem.Fill(watchedWord, 4, 3) }},
		{"Move", func() error { return mem.Move(watchedWord, 0x3000, 8) }},
		{"FlipBit", func() error { return mem.FlipBit(watchedWord+1, 3) }},
		{"Slice", func() error {
			b, err := mem.Slice(watchedWord, 8)
			if err == nil {
				binary.LittleEndian.PutUint64(b, 9)
			}
			return err
		}},
		{"SetStuck", func() error { return mem.SetStuck(watchedWord, 0, 0) }},
		{"stuck re-assert on read", func() error {
			b, err := mem.Slice(watchedWord, 1) // DMA overwrites the stuck bit...
			if err != nil {
				return err
			}
			b[0] |= 1
			before := *gp
			_, err = mem.ReadU(watchedWord, 1) // ...and the next read re-asserts it
			if *gp == before {
				t.Errorf("re-asserting a stuck bit on read left the generation unchanged")
			}
			return err
		}},
	}
	for _, p := range paths {
		before := *gp
		if err := p.do(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if *gp == before {
			t.Errorf("%s left the page generation unchanged", p.name)
		}
	}
}
