package machine

import (
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// testHandler records traps and halts the core on any trap except syscall
// number 0, which it treats as "exit".
type testHandler struct {
	traps []Trap
}

func (h *testHandler) HandleTrap(c *Core, t Trap) {
	h.traps = append(h.traps, t)
	c.Halt()
}

// flatAS maps [0, size) identity with full permissions.
func flatAS(size uint64) *AddrSpace {
	return &AddrSpace{Segs: []Segment{{VBase: 0, PBase: 0, Size: size, Perm: PermR | PermW | PermX}}}
}

// loadProg assembles b at base 0, writes it to memory, and boots core 0.
func loadProg(t *testing.T, m *Machine, b *asm.Builder) *testHandler {
	t.Helper()
	prog, err := b.Assemble(0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatalf("load: %v", err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	return h
}

func run(t *testing.T, m *Machine, h *testHandler) {
	t.Helper()
	if err := m.RunUntil(func() bool { return len(h.traps) > 0 }, 10_000_000); err != nil {
		t.Fatalf("program did not finish: %v", err)
	}
}

func noJitter(p Profile) Profile {
	p.JitterShift = 63
	return p
}

func TestArithmetic(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 6)
	b.Li(2, 7)
	b.Mul(3, 1, 2)  // 42
	b.Addi(3, 3, 8) // 50
	b.Li(4, 5)
	b.Divu(3, 3, 4) // 10
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	if got := m.Core(0).Regs[3]; got != 10 {
		t.Fatalf("r3 = %d, want 10", got)
	}
	if h.traps[0].Kind != TrapHalt {
		t.Fatalf("trap = %v, want halt", h.traps[0].Kind)
	}
}

func TestLi64(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li64(1, 0xdeadbeefcafebabe)
	b.Li64(2, 42)
	b.Li64(3, 0xffffffffffffffff)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[1] != 0xdeadbeefcafebabe {
		t.Fatalf("r1 = %#x", c.Regs[1])
	}
	if c.Regs[2] != 42 {
		t.Fatalf("r2 = %d", c.Regs[2])
	}
	if c.Regs[3] != 0xffffffffffffffff {
		t.Fatalf("r3 = %#x", c.Regs[3])
	}
}

func TestLoopAndBranchCounting(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0)  // i
	b.Li(2, 10) // n
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[1] != 10 {
		t.Fatalf("loop counter = %d, want 10", c.Regs[1])
	}
	// The conditional branch executes 10 times (9 taken + 1 fall-through).
	if c.UserBranches != 10 {
		t.Fatalf("UserBranches = %d, want 10", c.UserBranches)
	}
}

func TestLoadStoreSizes(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0x1000)
	b.Li64(2, 0x1122334455667788)
	b.St(8, 1, 2, 0)
	b.Ld(1, 3, 1, 0) // 0x88
	b.Ld(2, 4, 1, 0) // 0x7788
	b.Ld(4, 5, 1, 0) // 0x55667788
	b.Ld(8, 6, 1, 0)
	b.St(1, 1, 2, 9) // write 0x88 at 0x1009
	b.Ld(1, 7, 1, 9)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[3] != 0x88 || c.Regs[4] != 0x7788 || c.Regs[5] != 0x55667788 {
		t.Fatalf("partial loads wrong: %#x %#x %#x", c.Regs[3], c.Regs[4], c.Regs[5])
	}
	if c.Regs[6] != 0x1122334455667788 {
		t.Fatalf("full load = %#x", c.Regs[6])
	}
	if c.Regs[7] != 0x88 {
		t.Fatalf("byte store/load = %#x", c.Regs[7])
	}
}

func TestHardwiredZero(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(0, 99) // should be discarded
	b.Add(1, 0, 0)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	if got := m.Core(0).Regs[1]; got != 0 {
		t.Fatalf("r0 not hardwired to zero: r1 = %d", got)
	}
}

func TestMemcpyRepBehaviour(t *testing.T) {
	m := New(noJitter(X86()), 1<<20)
	b := asm.New()
	b.Li(1, 4096) // len
	b.Li(2, 0x8000)
	b.Li(3, 0x4000)
	b.Memcpy(1, 2, 3)
	b.Hlt()
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.Mem().Write(0x4000, src); err != nil {
		t.Fatal(err)
	}
	h := loadProg(t, m, b)
	run(t, m, h)
	got, err := m.Mem().Read(0x8000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], src[i])
		}
	}
	c := m.Core(0)
	if c.Regs[1] != 0 {
		t.Fatalf("length register = %d, want 0", c.Regs[1])
	}
	if c.Regs[2] != 0x8000+4096 || c.Regs[3] != 0x4000+4096 {
		t.Fatalf("cursors did not advance: dst=%#x src=%#x", c.Regs[2], c.Regs[3])
	}
	if c.UserBranches != 0 {
		t.Fatalf("MEMCPY counted branches: %d", c.UserBranches)
	}
	// rep-style: it must take multiple issue slots, not one.
	if c.Instructions < 4096/uint64(m.Profile().MemCopyChunk) {
		t.Fatalf("MEMCPY completed in %d issues, expected >= %d",
			c.Instructions, 4096/m.Profile().MemCopyChunk)
	}
}

func TestMemsetFills(t *testing.T) {
	m := New(noJitter(X86()), 1<<20)
	b := asm.New()
	b.Li(1, 300)
	b.Li(2, 0x9000)
	b.Memset(1, 2, 0xAB)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	got, err := m.Mem().Read(0x9000, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, v)
		}
	}
	after, _ := m.Mem().ReadU(0x9000+300, 1)
	if after != 0 {
		t.Fatalf("memset overran: %#x", after)
	}
}

func TestBreakpointFires(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0)
	b.Label("loop")
	b.Addi(1, 1, 1) // instruction 1 at address 8
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	m.Core(0).Regs[2] = 1000
	m.Core(0).BP = Breakpoint{Addr: 8, Enabled: true}
	run(t, m, h)
	tr := h.traps[0]
	if tr.Kind != TrapBreakpoint || tr.PC != 8 {
		t.Fatalf("trap = %+v, want breakpoint at 8", tr)
	}
	// The breakpoint fires before the instruction executes.
	if m.Core(0).Regs[1] != 0 {
		t.Fatalf("instruction at breakpoint executed: r1 = %d", m.Core(0).Regs[1])
	}
}

// resumeHandler exercises the resume-flag protocol: on breakpoint it sets
// ResumeOnce and continues; it records how many times the BP fired.
type resumeHandler struct {
	bpHits int
	halts  int
}

func (h *resumeHandler) HandleTrap(c *Core, t Trap) {
	switch t.Kind {
	case TrapBreakpoint:
		h.bpHits++
		c.ResumeOnce = true
	case TrapHalt:
		h.halts++
		c.Halt()
	default:
		c.Halt()
	}
}

func TestBreakpointResumeFlagInLoop(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 5)
	b.Label("loop")
	b.Addi(1, 1, 1) // address 16
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	h := &resumeHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	m.Core(0).BP = Breakpoint{Addr: 16, Enabled: true}
	if err := m.RunUntil(func() bool { return h.halts > 0 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if h.bpHits != 5 {
		t.Fatalf("breakpoint hits = %d, want 5 (once per loop iteration)", h.bpHits)
	}
	if m.Core(0).Regs[1] != 5 {
		t.Fatalf("loop result = %d, want 5", m.Core(0).Regs[1])
	}
}

// stepHandler exercises the no-resume-flag (Arm) protocol: disable the
// breakpoint, single-step, re-enable on the single-step exception.
type stepHandler struct {
	bpHits, stepHits, halts int
	bpAddr                  uint64
}

func (h *stepHandler) HandleTrap(c *Core, t Trap) {
	switch t.Kind {
	case TrapBreakpoint:
		h.bpHits++
		c.BP.Enabled = false
		c.SingleStep = true
	case TrapSingleStep:
		h.stepHits++
		c.BP = Breakpoint{Addr: h.bpAddr, Enabled: true}
	case TrapHalt:
		h.halts++
		c.Halt()
	default:
		c.Halt()
	}
}

func TestBreakpointWithoutResumeFlag(t *testing.T) {
	m := New(noJitter(Arm()), 1<<16)
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 3)
	b.Label("loop")
	b.Addi(1, 1, 1) // address 16
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	h := &stepHandler{bpAddr: 16}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	m.Core(0).BP = Breakpoint{Addr: 16, Enabled: true}
	if err := m.RunUntil(func() bool { return h.halts > 0 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if h.bpHits != 3 || h.stepHits != 3 {
		t.Fatalf("bp/step hits = %d/%d, want 3/3 (two debug exceptions per hit)", h.bpHits, h.stepHits)
	}
}

func TestMemFaultOnUnmapped(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li64(1, 1<<40)
	b.Ld(8, 2, 1, 0)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	if h.traps[0].Kind != TrapMemFault {
		t.Fatalf("trap = %v, want mem-fault", h.traps[0].Kind)
	}
	if h.traps[0].Addr != 1<<40 {
		t.Fatalf("fault addr = %#x", h.traps[0].Addr)
	}
}

func TestPermissionFault(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0x100)
	b.St(8, 1, 2, 0)
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	// Text is execute/read only; the store must fault.
	as := &AddrSpace{Segs: []Segment{{VBase: 0, PBase: 0, Size: 1 << 16, Perm: PermR | PermX}}}
	m.StartCore(0, 0, as)
	run(t, m, h)
	if h.traps[0].Kind != TrapMemFault {
		t.Fatalf("trap = %v, want mem-fault on read-only segment", h.traps[0].Kind)
	}
}

func TestDivZeroTraps(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 10)
	b.Div(2, 1, 0)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	if h.traps[0].Kind != TrapDivZero {
		t.Fatalf("trap = %v, want div-zero", h.traps[0].Kind)
	}
}

func TestIllegalInstruction(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	// 0xFF is not a valid opcode.
	if err := m.Mem().Write(0, []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	run(t, m, h)
	if h.traps[0].Kind != TrapIllegal {
		t.Fatalf("trap = %v, want illegal-instruction", h.traps[0].Kind)
	}
}

func TestLLSCSuccess(t *testing.T) {
	m := New(noJitter(Arm()), 1<<16)
	b := asm.New()
	b.Li(1, 0x1000)
	b.LL(2, 1)
	b.Addi(2, 2, 5)
	b.SC(3, 1, 2)
	b.Hlt()
	if err := m.Mem().WriteU(0x1000, 8, 37); err != nil {
		t.Fatal(err)
	}
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[3] != 0 {
		t.Fatalf("SC failed: r3 = %d", c.Regs[3])
	}
	v, _ := m.Mem().ReadU(0x1000, 8)
	if v != 42 {
		t.Fatalf("mem = %d, want 42", v)
	}
}

func TestSCFailsAfterClearReservation(t *testing.T) {
	m := New(noJitter(Arm()), 1<<16)
	b := asm.New()
	b.Li(1, 0x1000)
	b.LL(2, 1)
	b.Syscall(99) // kernel clears reservation (context switch)
	b.SC(3, 1, 2)
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	halts := 0
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		switch tr.Kind {
		case TrapSyscall:
			c.ClearReservation()
		case TrapHalt:
			halts++
			c.Halt()
		default:
			c.Halt()
		}
	}))
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	if err := m.RunUntil(func() bool { return halts > 0 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Core(0).Regs[3]; got != 1 {
		t.Fatalf("SC after cleared reservation: r3 = %d, want 1", got)
	}
}

type handlerFunc func(*Core, Trap)

func (f handlerFunc) HandleTrap(c *Core, t Trap) { f(c, t) }

func TestCasSemantics(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0x1000)
	b.Li(2, 7)  // expected
	b.Li(3, 99) // new
	b.Cas(2, 1, 3)
	b.Li(4, 0) // expected (wrong)
	b.Li(5, 1)
	b.Cas(4, 1, 5)
	b.Hlt()
	if err := m.Mem().WriteU(0x1000, 8, 7); err != nil {
		t.Fatal(err)
	}
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[2] != 7 {
		t.Fatalf("first CAS observed %d, want 7", c.Regs[2])
	}
	v, _ := m.Mem().ReadU(0x1000, 8)
	if v != 99 {
		t.Fatalf("first CAS did not swap: mem = %d", v)
	}
	if c.Regs[4] != 99 {
		t.Fatalf("second CAS observed %d, want 99", c.Regs[4])
	}
}

func TestXadd(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0x1000)
	b.Li(2, 5)
	b.Xadd(3, 1, 2)
	b.Xadd(4, 1, 2)
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[3] != 0 || c.Regs[4] != 5 {
		t.Fatalf("xadd returns = %d,%d want 0,5", c.Regs[3], c.Regs[4])
	}
	v, _ := m.Mem().ReadU(0x1000, 8)
	if v != 10 {
		t.Fatalf("mem = %d, want 10", v)
	}
}

func TestFloatingPoint(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 9)
	b.FcvtIF(2, 1) // 9.0
	b.Fsqrt(3, 2)  // 3.0
	b.FcvtFI(4, 3)
	b.Li(5, 2)
	b.FcvtIF(5, 5)
	b.Fmul(6, 3, 5) // 6.0
	b.Fdiv(7, 6, 5) // 3.0
	b.Feq(8, 7, 3)  // 1
	b.Hlt()
	h := loadProg(t, m, b)
	run(t, m, h)
	c := m.Core(0)
	if c.Regs[4] != 3 {
		t.Fatalf("sqrt(9) = %d, want 3", c.Regs[4])
	}
	if c.Regs[8] != 1 {
		t.Fatalf("feq = %d, want 1", c.Regs[8])
	}
}

func TestMMIO(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	dev := &recordingMMIO{}
	m.MapMMIO(0xF000_0000, 0x100, dev)
	b := asm.New()
	b.Li64(1, 0xF000_0000)
	b.Li(2, 0x55)
	b.St(4, 1, 2, 8)
	b.Ld(4, 3, 1, 16)
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	as := &AddrSpace{Segs: []Segment{
		{VBase: 0, PBase: 0, Size: 1 << 16, Perm: PermR | PermW | PermX},
		{VBase: 0xF000_0000, PBase: 0xF000_0000, Size: 0x100, Perm: PermR | PermW},
	}}
	m.StartCore(0, 0, as)
	run(t, m, h)
	if dev.lastWriteAddr != 0xF000_0008 || dev.lastWriteVal != 0x55 {
		t.Fatalf("MMIO write not seen: %#x = %#x", dev.lastWriteAddr, dev.lastWriteVal)
	}
	if m.Core(0).Regs[3] != 0x1234 {
		t.Fatalf("MMIO read = %#x, want 0x1234", m.Core(0).Regs[3])
	}
}

type recordingMMIO struct {
	lastWriteAddr, lastWriteVal uint64
}

func (d *recordingMMIO) MMIORead(addr uint64, size int) uint64 { return 0x1234 }
func (d *recordingMMIO) MMIOWrite(addr uint64, size int, v uint64) {
	d.lastWriteAddr, d.lastWriteVal = addr, v
}

func TestIRQDeliveryAndRouting(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Label("spin")
	b.J("spin")
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	var got []int
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		if tr.Kind == TrapIRQ {
			got = append(got, c.ID)
			c.AckIRQ(c.PendingIRQ())
			c.Halt()
		}
	}))
	as := flatAS(m.Mem().Size())
	m.StartCore(0, 0, as)
	m.StartCore(1, 0, as)
	m.RouteIRQ(3, 1)
	m.RaiseIRQ(3)
	if err := m.RunUntil(func() bool { return len(got) > 0 }, 100_000); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("IRQ delivered to core %d, want 1", got[0])
	}
}

func TestIPI(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Label("spin")
	b.J("spin")
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	var ipiCore = -1
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		if tr.Kind == TrapIRQ && c.IPIPending() {
			c.AckIPI()
			ipiCore = c.ID
			c.Halt()
		}
	}))
	as := flatAS(m.Mem().Size())
	m.StartCore(0, 0, as)
	m.StartCore(2, 0, as)
	m.SendIPI(2)
	if err := m.RunUntil(func() bool { return ipiCore >= 0 }, 100_000); err != nil {
		t.Fatal(err)
	}
	if ipiCore != 2 {
		t.Fatalf("IPI delivered to core %d, want 2", ipiCore)
	}
}

func TestParkAndResume(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 1)
	b.Hlt()
	h := loadProg(t, m, b)
	c := m.Core(0)
	released := false
	resumed := false
	c.Park(func() bool { return released }, func() { resumed = true }, NoEvent, nil)
	m.Run(100)
	if c.Regs[1] != 0 {
		t.Fatalf("parked core executed instructions")
	}
	before := c.Cycles
	if before == 0 {
		t.Fatalf("parked core's cycle counter should advance (spinning)")
	}
	released = true
	run(t, m, h)
	if !resumed {
		t.Fatalf("park done callback not invoked")
	}
	if c.Regs[1] != 1 {
		t.Fatalf("core did not resume execution")
	}
}

func TestJitterCausesDrift(t *testing.T) {
	m := New(X86(), 1<<16) // jitter enabled
	b := asm.New()
	b.Li(1, 0)
	b.Li64(2, 200000)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Label("spin")
	b.J("spin")
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) { c.Halt() }))
	as := flatAS(m.Mem().Size())
	m.StartCore(0, 0, as)
	m.StartCore(1, 0, as)
	// Run until both finish the loop; they should not be in lock-step.
	finished := func(c *Core) bool { return c.Regs[1] == 200000 }
	drifted := false
	for i := 0; i < 3_000_000; i++ {
		m.Step()
		if m.Core(0).Regs[1] != m.Core(1).Regs[1] {
			drifted = true
		}
		if finished(m.Core(0)) && finished(m.Core(1)) {
			break
		}
	}
	if !finished(m.Core(0)) || !finished(m.Core(1)) {
		t.Fatalf("cores did not finish")
	}
	if !drifted {
		t.Fatalf("identical cores never drifted; replicas would be in lock-step")
	}
}

func TestBusContentionSlowsStreams(t *testing.T) {
	prof := noJitter(X86())
	// Single-core streaming time over a large buffer.
	single := memcpyCycles(t, prof, 1)
	dual := memcpyCycles(t, prof, 2)
	ratio := float64(dual) / float64(single)
	if ratio < 1.6 {
		t.Fatalf("DMR memcpy contention ratio = %.2f, want ~2 (x86 bus saturation)", ratio)
	}
	armProf := noJitter(Arm())
	aSingle := memcpyCycles(t, armProf, 1)
	aDual := memcpyCycles(t, armProf, 2)
	aRatio := float64(aDual) / float64(aSingle)
	if aRatio > 1.4 {
		t.Fatalf("Arm DMR memcpy ratio = %.2f, want ~1 (bus headroom)", aRatio)
	}
}

// memcpyCycles runs n cores each copying a 256 KiB buffer (larger than any
// test cache) and returns the cycles until all finish.
func memcpyCycles(t *testing.T, prof Profile, n int) uint64 {
	t.Helper()
	const size = 4 << 20
	m := New(prof, 16<<20)
	b := asm.New()
	b.Li64(1, size)
	b.Li64(2, 8<<20)
	b.Li64(3, 4<<20)
	b.Memcpy(1, 2, 3)
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	halted := 0
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) { halted++; c.Halt() }))
	as := flatAS(m.Mem().Size())
	for i := 0; i < n; i++ {
		m.StartCore(i, 0, as)
	}
	if err := m.RunUntil(func() bool { return halted == n }, 100_000_000); err != nil {
		t.Fatal(err)
	}
	var maxCycles uint64
	for i := 0; i < n; i++ {
		if c := m.Core(i).Cycles; c > maxCycles {
			maxCycles = c
		}
	}
	return maxCycles
}

func TestFlipBit(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	if err := m.Mem().WriteU(0x100, 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().FlipBit(0x100, 3); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Mem().ReadU(0x100, 8)
	if v != 8 {
		t.Fatalf("after flip = %d, want 8", v)
	}
	if err := m.Mem().FlipBit(1<<40, 0); err == nil {
		t.Fatalf("FlipBit out of range should fail")
	}
}

func TestTranslateStraddleFails(t *testing.T) {
	as := &AddrSpace{Segs: []Segment{
		{VBase: 0, PBase: 0, Size: 0x1000, Perm: PermR | PermW},
		{VBase: 0x1000, PBase: 0x2000, Size: 0x1000, Perm: PermR | PermW},
	}}
	if _, _, ok := as.Translate(0xFFC, 8, PermR); ok {
		t.Fatalf("straddling access should not translate")
	}
	pa, _, ok := as.Translate(0x1004, 4, PermR)
	if !ok || pa != 0x2004 {
		t.Fatalf("translate = %#x,%v", pa, ok)
	}
}

func TestBranchWatchFires(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 0)
	b.Li64(2, 1000)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	var hit *Trap
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		if tr.Kind == TrapBranchWatch && hit == nil {
			cp := tr
			hit = &cp
			c.Halt()
			return
		}
		c.Halt()
	}))
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	c := m.Core(0)
	c.BranchWatch.Target = 50
	c.BranchWatch.Enabled = true
	if err := m.RunUntil(func() bool { return hit != nil }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if c.UserBranches != 50 {
		t.Fatalf("watch fired at %d branches, want 50", c.UserBranches)
	}
	if c.BranchWatch.Enabled {
		t.Fatalf("watch should self-disable")
	}
	// The loop counter shows forward progress happened without per-
	// iteration traps.
	if c.Regs[1] != 50 {
		t.Fatalf("r1 = %d, want 50", c.Regs[1])
	}
}

func TestResumeOnceCoversWholeBlockOp(t *testing.T) {
	// A breakpoint at a rep-style MEMCPY with the resume flag set must be
	// suppressed for the whole instruction, not re-fire per chunk.
	m := New(noJitter(X86()), 1<<20)
	b := asm.New()
	b.Li(1, 1024)
	b.Li(2, 0x8000)
	b.Li(3, 0x4000)
	b.Memcpy(1, 2, 3) // instruction at address 24
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	bpHits, halts := 0, 0
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		switch tr.Kind {
		case TrapBreakpoint:
			bpHits++
			c.ResumeOnce = true
		case TrapHalt:
			halts++
			c.Halt()
		default:
			c.Halt()
		}
	}))
	m.StartCore(0, 0, flatAS(m.Mem().Size()))
	m.Core(0).BP = Breakpoint{Addr: 24, Enabled: true}
	if err := m.RunUntil(func() bool { return halts > 0 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if bpHits != 1 {
		t.Fatalf("breakpoint fired %d times on one MEMCPY, want 1 (RF semantics)", bpHits)
	}
}

func TestParkedCoreConsumesStall(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	b := asm.New()
	b.Li(1, 1)
	b.Hlt()
	h := loadProg(t, m, b)
	c := m.Core(0)
	c.AddStall(100)
	released := false
	c.Park(func() bool { return released }, nil, NoEvent, nil)
	m.Run(150)
	released = true
	run(t, m, h)
	// The stall was absorbed by the park: the core resumed promptly.
	if c.Regs[1] != 1 {
		t.Fatalf("core did not resume after park")
	}
}
