package machine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// fakeTimer counts the cycles on which it acts, and then calls latch, when
// set; a batch's idle credit must tick it on exactly the same cycles as the
// naive loop.
type fakeTimer struct {
	period uint64
	latch  func(m *Machine)
	fires  []uint64
}

func (f *fakeTimer) Tick(m *Machine) {
	if m.Now()%f.period == 0 {
		f.fires = append(f.fires, m.Now())
		if f.latch != nil {
			f.latch(m)
		}
	}
}

func (f *fakeTimer) NextEvent(now uint64) uint64 {
	return now - now%f.period + f.period
}

// opaqueDevice cannot predict its next event, so it answers now+1.
type opaqueDevice struct{ ticks uint64 }

func (d *opaqueDevice) Tick(m *Machine) { d.ticks++ }

func (d *opaqueDevice) NextEvent(now uint64) uint64 { return now + 1 }

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

// TestIdleCreditTimedParkEquivalence checks that a time-driven park with
// an exact wake hint wakes on the identical cycle — core-local and global
// — under the batch's idle credit and naive stepping, and that the batch
// actually credited the wait.
func TestIdleCreditTimedParkEquivalence(t *testing.T) {
	type outcome struct {
		wakeCycles, wakeNow, finalNow uint64
		fires                         []uint64
	}
	scenario := func(sb bool) outcome {
		m := New(noJitter(X86()), 1<<16)
		m.SetSuperblock(sb)
		ft := &fakeTimer{period: 700}
		m.AddDevice(ft)
		c := m.Core(0)
		var out outcome
		c.Park(func() bool { return c.Cycles >= 5000 }, func() {
			out.wakeCycles, out.wakeNow = c.Cycles, m.Now()
			c.Halt()
		}, 5000, nil)
		m.Run(20_000)
		out.finalNow = m.Now()
		out.fires = ft.fires
		if sb && m.FastForwarded() == 0 {
			t.Fatalf("the batched run credited no idle cycle")
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

// TestIdleCreditStallEquivalence runs a real program whose FP stalls open
// creditable windows, with jitter enabled, and checks every architectural
// counter lands identically.
func TestIdleCreditStallEquivalence(t *testing.T) {
	type outcome struct {
		cycles, instrs, now uint64
		r5                  uint64
	}
	scenario := func(sb bool) outcome {
		m := New(X86(), 1<<16) // jitter on: the PRNG must advance identically
		m.SetSuperblock(sb)
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

// TestIdleCreditUnknownDeviceDisables: a registered device whose NextEvent
// answers now+1 must pin the machine to naive stepping.
func TestIdleCreditUnknownDeviceDisables(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	dev := &opaqueDevice{}
	m.AddDevice(dev)
	c := m.Core(0)
	c.Park(func() bool { return false }, nil, NoEvent, nil)
	m.Run(5000)
	if b := m.SuperblockStats().Batched; b != 0 {
		t.Fatalf("batched %d cycles past a device with an event due every cycle", b)
	}
	if dev.ticks != 5000 {
		t.Fatalf("device ticked %d times, want 5000", dev.ticks)
	}
}

// TestIdleCreditRunUntilBudgetExact: the timeout budget must be honoured
// cycle-exactly even when the wait is one long creditable window.
func TestIdleCreditRunUntilBudgetExact(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	c := m.Core(0)
	c.Park(func() bool { return false }, nil, NoEvent, nil)
	err := m.RunUntil(func() bool { return false }, 3000)
	if !errors.Is(err, ErrTimeout) || err.Error() != "machine: run timed out after 3000 cycles" {
		t.Fatalf("err = %v, want ErrTimeout after 3000 cycles", err)
	}
	if m.Now() != 3000 {
		t.Fatalf("now = %d, want exactly 3000", m.Now())
	}
	if m.FastForwarded() == 0 {
		t.Fatalf("expected the park wait to be credited in bulk")
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

// Idle-credit fuzzing. A seed expands to a machine of one to four cores that
// spend most of their time unable to issue — parked, halted, offline, or
// counting down a stall while something keeps them from taking a block —
// and to a sequence of Run and RunUntil calls. In one seed in four the loop
// also stores into its own text page, so a running core's block goes stale
// and its next issue is naive, inside a solo run or the rotation. The batch engine must leave
// the machine exactly where naive stepping does after every call, and the
// park gate, which both engines share, must skip no poll whose condition
// holds: the naive reference runs with DebugParkShadow set. A seed's
// residue modulo len(idleStates) picks the state it is about: "mixed" draws
// every core and feature at random; each other state puts core 0 alone in
// it, so the idle cycles the batch credits come from admitting that state.

const (
	idleLoopPC = 0x0    // the FP-stall loop every running core executes
	idleText   = 0x800  // a word on the loop's page that holds no instruction
	idleBadPC  = 0x3000 // bytes that do not decode: no block forms here
	idleWord   = 0x4000 // the loop's store target, which every park reads
	idlePriv   = 0x8000 // with bit 32: core i's private page at idlePriv + i*0x1000
)

var idleStates = []string{"mixed", "all-idle", "irq", "ipi", "breakpoint",
	"single-step", "stuck-bit", "unbuildable-pc"}

// idleRand is splitmix64: the seed's whole expansion comes from it.
type idleRand uint64

func (r *idleRand) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// idleCall is Run(n), or RunUntil(the next trap, n) when until is set.
type idleCall struct {
	until bool
	n     uint64
}

// idleScenario is one seed expanded onto a machine.
type idleScenario struct {
	m     *Machine
	timer *fakeTimer
	traps []string
}

// newIdleScenario builds seed's machine on the batch engine (sb) or on
// naive stepping, and returns it with seed's calls. The first call is
// Run(2), the shortest window a batch can credit, and the last reaches every
// park's wake cycle.
func newIdleScenario(t *testing.T, seed uint64, sb bool) (*idleScenario, []idleCall) {
	t.Helper()
	state := idleStates[seed%uint64(len(idleStates))]
	r := idleRand(seed)
	// A seed with bit 32 set gives each running core an address space of its
	// own: the loop's text read-only, the parks' word shared, and a private
	// page it loads from and stores into, so it runs ahead of machine time
	// between its stores into the shared word. Other seeds expand as before.
	priv := seed>>32&1 != 0
	prof := X86() // jitter on: the PRNG must advance identically
	prof.Cores = 1 + r.intn(4)
	m := New(prof, 1<<16)
	m.SetSuperblock(sb)
	sc := &idleScenario{m: m}

	b := asm.New()
	b.Li64(3, idleWord)
	b.Li64(4, idleText)
	if priv {
		b.Li64(7, idlePriv)
	}
	b.Label("loop")
	b.Fsin(5, 1) // FPTrans stall: the core is mostly not issuing
	if priv {
		for k := 1 + r.intn(3); k > 0; k-- {
			b.Ld(8, 6, 7, 0)
			b.Add(6, 6, 5)
			b.St(8, 7, 6, int32(8*r.intn(16)))
		}
	}
	b.Addi(1, 1, 1)
	b.St(8, 3, 1, 0) // what the parks wait on
	if r.intn(4) == 0 && !priv {
		b.St(8, 4, 1, 0) // the loop's own page: its blocks go stale
	}
	b.J("loop")
	mustLoad(t, m, b, idleLoopPC)
	if err := m.Mem().Write(idleBadPC, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		sc.traps = append(sc.traps, fmt.Sprintf("now=%d core=%d cycles=%d %v pc=%#x",
			m.Now(), c.ID, c.Cycles, tr.Kind, tr.PC))
		switch tr.Kind {
		case TrapIRQ:
			c.AckIRQ(c.PendingIRQ())
			c.AckIPI()
		case TrapBreakpoint:
			c.BP.Enabled = false
		case TrapSingleStep:
		default: // the unbuildable PC: resume at the loop
			c.PC = idleLoopPC
		}
	}))
	as := func(int) *AddrSpace { return flatAS(m.Mem().Size()) }
	if priv {
		as = func(i int) *AddrSpace {
			return &AddrSpace{Segs: []Segment{
				{VBase: idleLoopPC, PBase: idleLoopPC, Size: 0x1000, Perm: PermR | PermX},
				{VBase: idleBadPC, PBase: idleBadPC, Size: 0x1000, Perm: PermR | PermX},
				{VBase: idleWord, PBase: idleWord, Size: 0x1000, Perm: PermR | PermW},
				{VBase: idlePriv, PBase: idlePriv + uint64(i)*0x1000, Size: 0x1000, Perm: PermR | PermW},
			}}
		}
	}

	feature := func(c *Core, f string) {
		switch f {
		case "irq":
			line := 1 + r.intn(8)
			m.RouteIRQ(line, c.ID)
			m.RaiseIRQ(line)
		case "ipi":
			m.SendIPI(c.ID)
		case "breakpoint":
			c.BP = Breakpoint{Addr: idleLoopPC + uint64(r.intn(6))*isa.InstrBytes, Enabled: true}
		case "single-step":
			c.SingleStep = true
		case "stuck-bit":
			if err := m.Mem().SetStuck(idleWord+uint64(r.intn(8)), uint(r.intn(8)), uint(r.intn(2))); err != nil {
				t.Fatal(err)
			}
		case "unbuildable-pc":
			// Stalled it is admitted stall-only; unstalled it traps at once.
			c.PC = idleBadPC
			if r.intn(2) == 0 {
				c.stall = 0
			}
		}
	}
	for i := 0; i < prof.Cores; i++ {
		c := m.Core(i)
		kind := r.intn(4) // running, parked, halted, offline
		switch {
		case state == "all-idle":
			kind = 1 + r.intn(3)
			if i == 0 {
				kind = 1
			}
		case state != "mixed":
			kind = 2 + r.intn(2) // core 0 is the only one taking part
			if i == 0 {
				kind = 0
			}
		}
		switch kind {
		case 0:
			m.StartCore(i, idleLoopPC, as(i))
			c.Regs[1] = uint64(r.intn(64))
			c.AddStall(2 + r.intn(400))
			switch {
			case state != "mixed":
				feature(c, state)
			case r.intn(3) == 0:
				feature(c, idleStates[2+r.intn(len(idleStates)-2)])
			}
		case 1:
			c.PC, c.AS = idleLoopPC, as(i) // where it runs once woken
			c.AddStall(r.intn(400))
			sc.park(c, &r)
		case 3:
			c.SetOffline()
		}
	}
	if r.intn(2) == 0 {
		sc.timer = &fakeTimer{period: 101 + 2*uint64(r.intn(2000))}
		// The timer may interrupt a core, which may be parked on its latch.
		switch to := r.intn(prof.Cores); r.intn(3) {
		case 0:
			m.RouteIRQ(9, to)
			sc.timer.latch = func(m *Machine) { m.RaiseIRQ(9) }
		case 1:
			sc.timer.latch = func(m *Machine) { m.SendIPI(to) }
		}
		m.AddDevice(sc.timer)
	}

	calls := []idleCall{{n: 2}}
	for k := 3 + r.intn(6); k > 0; k-- {
		n := 1 + uint64(r.intn(7))
		if r.intn(2) == 0 {
			n = 1 + uint64(r.intn(6000))
		}
		calls = append(calls, idleCall{until: r.intn(4) == 0, n: n})
	}
	return sc, append(calls, idleCall{n: idleMaxWake})
}

// idleMaxWake bounds the parks' odd wake cycles.
const idleMaxWake = 8000

// park parks c under one of four kinds of declaration: on the loop's stored
// word reaching a threshold, wake never, watching the word's page; on that
// or an odd wake cycle, with the same watch; on the wake cycle alone,
// watching nothing; or on the word or an interrupt latched on c, wake never,
// watching the word's page. The word only changes by a running core's store.
func (sc *idleScenario) park(c *Core, r *idleRand) {
	m := sc.m
	thr := uint64(8 + r.intn(200))
	word := func() bool {
		v, _ := m.Mem().ReadU(idleWord, 8)
		return v >= thr
	}
	wake := 1 + 2*uint64(r.intn(idleMaxWake/2))
	page := m.Mem().PageGen(idleWord, 8)
	switch r.intn(4) {
	case 0:
		c.Park(word, nil, NoEvent, page)
	case 1:
		c.Park(func() bool { return c.Cycles >= wake || word() }, nil, wake, page)
	case 2:
		c.Park(func() bool { return c.Cycles >= wake }, nil, wake, nil)
	default:
		c.Park(func() bool { return c.PendingIRQ() != 0 || c.IPIPending() || word() }, nil, NoEvent, page)
	}
}

func (sc *idleScenario) do(call idleCall) {
	if !call.until {
		sc.m.Run(call.n)
		return
	}
	k := len(sc.traps)
	_ = sc.m.RunUntil(func() bool { return len(sc.traps) > k }, call.n)
}

// idleCoreState is what the comparison reads off a core. ParkStats stay
// out: the engines poll parks a different number of times by design.
type idleCoreState struct {
	cycles, instrs, pc, jitter, irq uint64
	stall                           int
	state                           CoreState
	regs                            [isa.NumRegs]uint64
	ipi, step, bp                   bool
}

// render describes the machine for the comparison.
func (sc *idleScenario) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\n", sc.m.Now())
	for i := 0; i < sc.m.NumCores(); i++ {
		c := sc.m.Core(i)
		fmt.Fprintf(&b, "core %d: %+v\n", i, idleCoreState{c.Cycles, c.Instructions, c.PC, c.jitter,
			c.pendingIRQ, c.stall, c.State, c.Regs, c.pendingIPI, c.SingleStep, c.BP.Enabled})
	}
	b.WriteString(memState(sc.m))
	b.WriteString(strings.Join(sc.traps, "\n"))
	if sc.timer != nil {
		fmt.Fprintf(&b, "\ntimer fires %v", sc.timer.fires)
	}
	return b.String()
}

// idleCreditCheck runs seed's scenario on both engines, compares them after
// every call, and checks that a focused seed had its state's idle window
// credited — a stall-only core from the very first Run(2) (an unbuildable
// PC only when the core starts stalled), a machine with no core executing
// some time during the run — and that a core under a stuck bit, or under a
// breakpoint it does not stand on, held a block in the first batch.
func idleCreditCheck(t *testing.T, seed uint64) {
	fast, calls := newIdleScenario(t, seed, true)
	naive, _ := newIdleScenario(t, seed, false)
	state := idleStates[seed%uint64(len(idleStates))]
	c0 := fast.m.Core(0)
	stalled := c0.stall > 0
	onBP := c0.BP.Enabled && c0.PC == c0.BP.Addr
	var first uint64
	var kept bool
	for i, call := range calls {
		fast.do(call)
		parkShadowed(t, func() { naive.do(call) })
		if f, n := fast.render(), naive.render(); f != n {
			t.Fatalf("seed %d (%s): after call %d %+v the engines diverged\n%s", seed, state, i, call, diffLine(f, n))
		}
		if i == 0 {
			first = fast.m.FastForwarded()
			kept = len(fast.m.sbRun) != 0 && fast.m.sbRun[0].sb != nil
		}
	}
	total := fast.m.FastForwarded()
	switch state {
	case "mixed":
	case "stuck-bit":
		if !kept {
			t.Fatalf("seed %d (%s): the core took no block under a stuck bit", seed, state)
		}
	case "breakpoint":
		if !kept && !onBP {
			t.Fatalf("seed %d (%s): the core took no block beside its breakpoint", seed, state)
		}
	case "all-idle":
		if total == 0 {
			t.Fatalf("seed %d (%s): no idle cycle credited", seed, state)
		}
	case "unbuildable-pc":
		if stalled && first == 0 {
			t.Fatalf("seed %d (%s): the first Run(2) credited no idle cycle", seed, state)
		}
	default:
		if first == 0 {
			t.Fatalf("seed %d (%s): the first Run(2) credited no idle cycle", seed, state)
		}
	}
}

// parkShadowed runs step with DebugParkShadow set and fails on any poll the
// park gate skipped although the condition held.
func parkShadowed(t *testing.T, step func()) {
	t.Helper()
	var missed []string
	DebugParkShadow = func(coreID int, now uint64) {
		missed = append(missed, fmt.Sprintf("core %d at cycle %d", coreID, now))
	}
	defer func() { DebugParkShadow = nil }()
	step()
	if len(missed) != 0 {
		t.Fatalf("the park gate skipped %d polls whose condition held, the first %v", len(missed), missed[0])
	}
}

// diffLine reports the first line two renderings disagree on.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  batched: %s\n  naive:   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// FuzzIdleCredit runs idleCreditCheck on arbitrary seeds. The committed
// corpus holds one seed per admission state, and unbuildable-pc has two:
// its own seed starts the core stalled (admitted stall-only), and
// build-hold's starts it unstalled (the failed build traps at once).
func FuzzIdleCredit(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) { idleCreditCheck(t, seed) })
}

// TestIdleCreditAdmission is the fuzz target's fixed-seed tier-1 run: three
// seeds per state.
func TestIdleCreditAdmission(t *testing.T) {
	for k := uint64(0); k < 3; k++ {
		for s := range idleStates {
			idleCreditCheck(t, k*uint64(len(idleStates))+uint64(s)+1000)
		}
	}
}
