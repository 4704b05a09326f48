package machine

import (
	"errors"
	"testing"

	"rcoe/internal/asm"
)

// fakeTimer counts the cycles on which it acts; fast-forward must tick it
// on exactly the same cycles as the naive loop.
type fakeTimer struct {
	period uint64
	fires  []uint64
}

func (f *fakeTimer) Tick(m *Machine) {
	if m.Now()%f.period == 0 {
		f.fires = append(f.fires, m.Now())
	}
}

func (f *fakeTimer) NextEvent(now uint64) uint64 {
	return now - now%f.period + f.period
}

// opaqueDevice implements only Device, not EventSource.
type opaqueDevice struct{ ticks uint64 }

func (d *opaqueDevice) Tick(m *Machine) { d.ticks++ }

// TestRotationIndexLargeNow is the regression test for the round-robin
// scheduler index: int(m.now) % n goes negative once now exceeds 2^63 and
// indexes out of range.
func TestRotationIndexLargeNow(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	m.now = 1<<63 + 5
	m.Run(10) // panicked before the unsigned-modulo fix
	if m.Now() != 1<<63+15 {
		t.Fatalf("now = %d, want %d", m.Now(), uint64(1<<63+15))
	}
}

// TestFastForwardTimedParkEquivalence checks that a time-driven park with
// an exact wake hint wakes on the identical cycle — core-local and global
// — under fast-forward and naive stepping, and that fast-forward actually
// skipped.
func TestFastForwardTimedParkEquivalence(t *testing.T) {
	type outcome struct {
		wakeCycles, wakeNow, finalNow uint64
		fires                         []uint64
	}
	scenario := func(ff bool) outcome {
		m := New(noJitter(X86()), 1<<16)
		m.SetFastForward(ff)
		ft := &fakeTimer{period: 700}
		m.AddDevice(ft)
		c := m.Core(0)
		var out outcome
		c.Park(func() bool { return c.Cycles >= 5000 }, func() {
			out.wakeCycles, out.wakeNow = c.Cycles, m.Now()
			c.Halt()
		})
		c.ParkWakeAt(5000)
		m.Run(20_000)
		out.finalNow = m.Now()
		out.fires = ft.fires
		if ff && m.FastForwarded() == 0 {
			t.Fatalf("fast-forward run skipped nothing")
		}
		return out
	}
	fast, slow := scenario(true), scenario(false)
	if fast.wakeCycles != slow.wakeCycles || fast.wakeNow != slow.wakeNow {
		t.Fatalf("wake diverged: fast=(%d,%d) slow=(%d,%d)",
			fast.wakeCycles, fast.wakeNow, slow.wakeCycles, slow.wakeNow)
	}
	if fast.wakeCycles != 5000 {
		t.Fatalf("woke at Cycles=%d, want 5000", fast.wakeCycles)
	}
	if fast.finalNow != slow.finalNow {
		t.Fatalf("final now diverged: %d vs %d", fast.finalNow, slow.finalNow)
	}
	if len(fast.fires) != len(slow.fires) {
		t.Fatalf("device fired %d times fast, %d naive", len(fast.fires), len(slow.fires))
	}
	for i := range fast.fires {
		if fast.fires[i] != slow.fires[i] {
			t.Fatalf("device fire %d at cycle %d fast, %d naive", i, fast.fires[i], slow.fires[i])
		}
	}
}

// TestFastForwardStallEquivalence runs a real program whose FP stalls open
// skippable windows, with jitter enabled, and checks every architectural
// counter lands identically.
func TestFastForwardStallEquivalence(t *testing.T) {
	type outcome struct {
		cycles, instrs, now uint64
		r5                  uint64
	}
	scenario := func(ff bool) outcome {
		m := New(X86(), 1<<16) // jitter on: the PRNG must advance identically
		m.SetFastForward(ff)
		m.AddDevice(&fakeTimer{period: 300})
		b := asm.New()
		b.Li(1, 0)
		b.Li(2, 40)
		b.Label("loop")
		b.Fsin(5, 1) // FPTrans stall dominates: mostly-idle cycles
		b.Addi(1, 1, 1)
		b.Blt(1, 2, "loop")
		b.Hlt()
		h := loadProg(t, m, b)
		run(t, m, h)
		c := m.Core(0)
		return outcome{cycles: c.Cycles, instrs: c.Instructions, now: m.Now(), r5: c.Regs[5]}
	}
	fast, slow := scenario(true), scenario(false)
	if fast != slow {
		t.Fatalf("diverged: fast=%+v slow=%+v", fast, slow)
	}
}

// TestFastForwardUnknownDeviceDisables: a registered device without
// NextEvent must pin the machine to naive stepping.
func TestFastForwardUnknownDeviceDisables(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	dev := &opaqueDevice{}
	m.AddDevice(dev)
	c := m.Core(0)
	c.Park(func() bool { return false }, nil)
	c.ParkWakeNever()
	m.Run(5000)
	if m.FastForwarded() != 0 {
		t.Fatalf("skipped %d cycles past a device with no event schedule", m.FastForwarded())
	}
	if dev.ticks != 5000 {
		t.Fatalf("device ticked %d times, want 5000", dev.ticks)
	}
}

// TestFastForwardRunUntilBudgetExact: the timeout budget must be honoured
// cycle-exactly even when the wait is one long skippable window.
func TestFastForwardRunUntilBudgetExact(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	c := m.Core(0)
	c.Park(func() bool { return false }, nil)
	c.ParkWakeNever()
	err := m.RunUntil(func() bool { return false }, 3000)
	if !errors.Is(err, ErrTimeout) || err.Error() != "machine: run timed out after 3000 cycles" {
		t.Fatalf("err = %v, want ErrTimeout after 3000 cycles", err)
	}
	if m.Now() != 3000 {
		t.Fatalf("now = %d, want exactly 3000", m.Now())
	}
	if m.FastForwarded() == 0 {
		t.Fatalf("expected the park wait to fast-forward")
	}
}

// TestFastForwardProbeBoundsUndeclaredPark: a park without a wake hint is
// probed at least every ParkProbeInterval cycles, so skips stay bounded.
func TestFastForwardProbeBoundsUndeclaredPark(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	c := m.Core(0)
	polls := uint64(0)
	c.Park(func() bool { polls++; return false }, nil)
	m.Run(10 * ParkProbeInterval)
	if m.FastForwarded() == 0 {
		t.Fatalf("undeclared park should still fast-forward between probes")
	}
	if polls < 9 {
		t.Fatalf("park condition polled %d times over 10 probe intervals", polls)
	}
}

// TestBusSkipMatchesTicks: bulk refill must land on the same token count
// as k individual ticks, from credit and from debt.
func TestBusSkipMatchesTicks(t *testing.T) {
	for _, start := range []int{64, 0, -1000} {
		for _, k := range []uint64{1, 2, 5, 63, 64, 1000, 1 << 40} {
			a := newBus(16)
			a.tokens = start
			b := newBus(16)
			b.tokens = start
			if k <= 1000 {
				for i := uint64(0); i < k; i++ {
					a.tick()
				}
			} else {
				a.tokens = a.burst // any long window saturates
			}
			b.skip(k)
			if a.tokens != b.tokens {
				t.Fatalf("start=%d k=%d: ticked=%d skipped=%d", start, k, a.tokens, b.tokens)
			}
		}
	}
}
