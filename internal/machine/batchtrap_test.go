package machine

import (
	"fmt"
	"strings"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// Trap fuzzing. A batch goes on after a trap whose handler left the other
// cores' promises intact (superblock.go, keeps). A seed expands to a
// four-core machine on which one to four cores loop over register-only
// runs, FP stalls, loads, stores and a syscall, optionally beside parked
// riders (which a solo run carries along) and a device that watches one
// RAM word. The syscall handler does one of trapActions to the trapping
// core, to another core or to memory; the "-self" actions arm on the
// trapping core what makes it issue naively (an interrupt, a breakpoint,
// single-step) or a branch watch on its next branch, so a lone core beside
// a rider runs solo with it armed, and "dma-text-stuck" sticks a bit of the
// trapping core's loop text and has the device rewrite that instruction
// through a Mem.Slice window, de-asserting the bit. The batch engine must
// leave the machine exactly where naive stepping, with every accelerator
// off, does after every Run and RunUntil call, every trap and device event
// must observe the same machine, and the naive reference runs with
// DebugParkShadow set, so a park gate skip that misses a wake fails too. A
// seed's residue modulo len(trapActions) picks the action every syscall
// takes; "mixed" draws one per syscall.

var trapActions = []string{"mixed", "return", "park-self", "park-other", "unpark-other",
	"ipi-other", "irq-other", "patch-other", "bp-other", "branch-watch-other",
	"step-other", "move-other", "flush-other", "remap-other", "stall-other",
	"watched-store", "page-store", "arm-device",
	"irq-self", "ipi-self", "bp-self", "step-self", "dma-text-stuck", "branch-watch-self"}

const (
	trapText   = 0x1000 // core i's loop at trapText + i*0x1000
	trapData   = 0x8000 // core i's private words at trapData + i*0x100
	trapFlag   = 0xC000 // the device-watched word
	trapPark   = 0xD000 // the word parks wait on
	trapMMIO   = 0xF000_0000
	trapIRQ    = 3 // the device's interrupt line
	trapOthIRQ = 5 // the line the handler raises
)

// trapAlt holds the physical page of each core's loop variant.
var trapAlt = [4]uint64{0x5000, 0x6000, 0x7000, 0x9000}

// trapDevice watches one RAM word like the NIC's RX flag: on the first Tick
// after the word is cleared it logs the machine, sets the word and raises
// its interrupt. It does the same at a deadline the handler may arm (due, 0
// when none), and an MMIO access logs the machine too. At another deadline
// (dma.due) it logs the machine and writes dma.ins at dma.at through a
// Mem.Slice window; dma.bit is the bit dma-text-stuck stuck there.
type trapDevice struct {
	sc  *trapScenario
	due uint64
	dma struct {
		due, at uint64
		bit     uint
		ins     [isa.InstrBytes]byte
	}
}

func (d *trapDevice) armed() bool {
	v, _ := d.sc.m.Mem().ReadU(trapFlag, 8)
	return v == 0
}

func (d *trapDevice) Tick(m *Machine) {
	if d.armed() {
		d.sc.observe("dma")
		_ = m.Mem().WriteU(trapFlag, 8, 1)
		m.RaiseIRQ(trapIRQ)
	}
	if d.due != 0 && m.Now() >= d.due {
		d.sc.observe("deadline")
		d.due = 0
		m.RaiseIRQ(trapIRQ)
	}
	if d.dma.due != 0 && m.Now() >= d.dma.due {
		d.sc.observe("dma-text")
		d.dma.due = 0
		win, err := m.Mem().Slice(d.dma.at, isa.InstrBytes)
		if err != nil {
			panic(err)
		}
		copy(win, d.dma.ins[:])
	}
}

func (d *trapDevice) NextEvent(now uint64) uint64 {
	if d.armed() {
		return now + 1
	}
	ne := uint64(NoEvent)
	for _, due := range [...]uint64{d.due, d.dma.due} {
		if due != 0 {
			ne = min(ne, max(due, now+1))
		}
	}
	return ne
}

func (d *trapDevice) WatchedMem() (uint64, uint64) { return trapFlag, trapFlag + 8 }

func (d *trapDevice) MMIORead(addr uint64, size int) uint64 {
	d.sc.observe("mmio-read")
	return 0x42
}

func (d *trapDevice) MMIOWrite(addr uint64, size int, v uint64) { d.sc.observe("mmio-write") }

// trapScenario is one seed expanded onto a machine.
type trapScenario struct {
	m      *Machine
	dev    *trapDevice
	r      idleRand // the handler's draws
	holds  idleRand // park's draws of a condition that already holds
	action string
	as     *AddrSpace
	alt    [4]*AddrSpace // as, with core i's text page mapped to a variant of its loop
	loops  [4]uint64     // each core's loop head, the instruction patch-other rewrites
	log    []string
	// traps counts the handler's calls, rider those made while a core was
	// parked, and soloRider those of them the batch engine took inside a
	// solo run (whose settlement the trap's sync has just made).
	traps, rider, soloRider int
}

// observe logs everything code outside the cores can read.
func (sc *trapScenario) observe(tag string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s now=%d", tag, sc.m.Now())
	for i := 0; i < sc.m.NumCores(); i++ {
		c := sc.m.Core(i)
		fmt.Fprintf(&b, " | %d %v pc=%#x cyc=%d ins=%d st=%d r5=%d", i, c.State, c.PC, c.Cycles, c.Instructions, c.stall, c.Regs[5])
	}
	sc.log = append(sc.log, b.String())
}

// loopProg is core id's program: a register-only run, the patchable
// increment, an optional FP stall, private memory traffic, optional stores
// into the watched word and beside it on its page, into the park word and
// beside it on its page, an optional MMIO load, the syscall, another
// register-only run closed by the loop's one branch. The variant (alt) has
// the same layout and draws, with other immediates in the register-only
// runs.
func loopProg(r *idleRand, id int, alt bool) (*asm.Builder, int) {
	bump := int32(0)
	if alt {
		bump = 100
	}
	b := asm.New()
	b.Li64(3, trapData+uint64(id)*0x100)
	b.Li64(4, trapFlag)
	b.Li64(10, trapPark)
	b.Li64(11, trapMMIO)
	b.Fconst(1, 1.25)
	head := b.Len()
	b.Label("loop")
	b.Addi(5, 5, 1+bump) // patch-other rewrites this immediate
	run := func() {
		for k := r.intn(10); k > 0; k-- {
			switch r.intn(4) {
			case 0:
				b.Addi(12, 12, int32(1+r.intn(9))+bump)
			case 1:
				b.Xor(13, 13, 5)
			case 2:
				b.Mul(14, 5, 5)
			default:
				b.Fadd(2, 2, 1)
			}
		}
	}
	run()
	switch r.intn(3) {
	case 0:
		b.Fsin(6, 1)
	case 1:
		b.Fdiv(6, 6, 1)
	}
	b.St(8, 3, 5, 0)
	if r.intn(2) == 0 {
		b.Ld(8, 8, 3, 8)
	}
	if r.intn(3) == 0 {
		b.St(8, 4, 0, 0) // clears the watched word: the device delivers
	}
	if r.intn(3) == 0 {
		b.St(8, 4, 5, 64) // the watched word's page, another word
	}
	if r.intn(4) == 0 {
		b.St(8, 10, 5, 0) // the park word: wakes a rider that waits on it
	}
	if r.intn(4) == 0 {
		b.St(8, 10, 5, 64) // the park word's page, another word: a rider looks, stays parked
	}
	if r.intn(4) == 0 {
		b.Ld(8, 9, 11, 0) // a device register
	}
	b.Syscall(1)
	run()
	b.J("loop")
	return b, head
}

// newTrapScenario builds seed's machine on the batch engine (sb) or on naive
// stepping and returns it with seed's calls.
func newTrapScenario(t *testing.T, seed uint64, sb bool) (*trapScenario, []idleCall) {
	t.Helper()
	r := idleRand(seed)
	m := New(X86(), 1<<16) // jitter on
	m.SetSuperblock(sb)
	m.SetExecCache(sb) // the reference fetches every instruction from memory
	sc := &trapScenario{m: m, r: idleRand(seed ^ 0x5eed), holds: idleRand(seed ^ 0xb01d),
		action: trapActions[seed%uint64(len(trapActions))]}
	sc.as = &AddrSpace{Segs: []Segment{
		{VBase: 0, PBase: 0, Size: 1 << 16, Perm: PermR | PermW | PermX},
		{VBase: trapMMIO, PBase: trapMMIO, Size: 0x100, Perm: PermR | PermW},
	}}
	dev := &trapDevice{sc: sc}
	sc.dev = dev
	if err := m.Mem().WriteU(trapFlag, 8, 1); err != nil { // nothing to deliver yet
		t.Fatal(err)
	}
	m.AddDevice(dev)
	m.MapMMIO(trapMMIO, 0x100, dev)
	if r.intn(2) == 0 {
		m.AddDevice(&fakeTimer{period: 301 + 2*uint64(r.intn(1500))})
	}
	m.SetHandler(handlerFunc(sc.handle))
	for i := 0; i < m.NumCores(); i++ {
		ra := r
		b, head := loopProg(&r, i, false)
		base := trapText + uint64(i)*0x1000
		mustLoad(t, m, b, base)
		sc.loops[i] = base + uint64(head)*isa.InstrBytes
		alt, _ := loopProg(&ra, i, true)
		pa := trapAlt[i]
		mustLoad(t, m, alt, pa)
		sc.alt[i] = &AddrSpace{Segs: []Segment{
			{VBase: 0, PBase: 0, Size: base, Perm: PermR | PermW | PermX},
			{VBase: base, PBase: pa, Size: 0x1000, Perm: PermR | PermW | PermX},
			{VBase: base + 0x1000, PBase: base + 0x1000, Size: 1<<16 - base - 0x1000, Perm: PermR | PermW | PermX},
			sc.as.Segs[1],
		}}
	}
	running := 1 + r.intn(4)
	for i := 0; i < m.NumCores(); i++ {
		c := m.Core(i)
		switch {
		case i < running:
			m.StartCore(i, trapText+uint64(i)*0x1000, sc.as)
			c.AddStall(r.intn(300))
		case r.intn(2) == 0:
			// A rider: woken by the handler, by time, or never.
			c.PC, c.AS = trapText+uint64(i)*0x1000, sc.as
			sc.park(c, &r)
		}
	}
	m.RouteIRQ(trapIRQ, r.intn(running))
	calls := []idleCall{{n: 2}}
	for k := 4 + r.intn(8); k > 0; k-- {
		n := uint64(1 + r.intn(4000))
		if r.intn(3) == 0 {
			n = uint64(1 + r.intn(8))
		}
		calls = append(calls, idleCall{until: r.intn(3) == 0, n: n})
	}
	return sc, append(calls, idleCall{n: 5000})
}

// park parks c, watching the park word's page, on the park word changing,
// on that or a wake cycle, or on that or an interrupt latched on c. One park
// in eight waits for a park word it has not seen, so its condition already
// holds and the core wakes on its first poll.
func (sc *trapScenario) park(c *Core, r *idleRand) {
	m := sc.m
	seen, _ := m.Mem().ReadU(trapPark, 8)
	if sc.holds.intn(8) == 0 {
		seen++
	}
	changed := func() bool {
		v, _ := m.Mem().ReadU(trapPark, 8)
		return v != seen
	}
	page := m.Mem().PageGen(trapPark, 8)
	switch r.intn(3) {
	case 0:
		c.Park(func() bool { return c.PendingIRQ() != 0 || c.IPIPending() || changed() }, nil, NoEvent, page)
	case 1:
		wake := c.Cycles + 20 + uint64(r.intn(600))
		c.Park(func() bool { return c.Cycles >= wake || changed() }, nil, wake, page)
	default:
		c.Park(changed, nil, NoEvent, page)
	}
}

func (sc *trapScenario) handle(c *Core, tr Trap) {
	m := sc.m
	sc.traps++
	for i := 0; i < m.NumCores(); i++ {
		if m.Core(i).State == CoreParked {
			sc.rider++
			if m.superblock && m.sbSoloFrom == m.Now() {
				sc.soloRider++
			}
			break
		}
	}
	sc.observe(fmt.Sprintf("trap %v core %d", tr.Kind, c.ID))
	switch tr.Kind {
	case TrapIRQ:
		c.AckIRQ(c.PendingIRQ())
		c.AckIPI()
		return
	case TrapBreakpoint:
		c.BP.Enabled = false
		return
	case TrapSyscall:
	default: // branch watch and single-step disarm themselves
		return
	}
	r := &sc.r
	action := sc.action
	if action == "mixed" {
		action = trapActions[1+r.intn(len(trapActions)-1)]
	}
	o := m.Core((c.ID + 1 + r.intn(m.NumCores()-1)) % m.NumCores())
	running := o.State == CoreRunning
	switch action {
	case "return":
	case "park-self":
		sc.park(c, r)
	case "park-other":
		if running {
			sc.park(o, r)
		}
	case "unpark-other":
		o.Unpark()
		_ = m.Mem().WriteU(trapPark, 8, uint64(r.intn(1<<20))) // and wake a watched one
	case "ipi-other":
		m.SendIPI(o.ID)
	case "irq-other":
		m.RouteIRQ(trapOthIRQ, o.ID)
		m.RaiseIRQ(trapOthIRQ)
	case "patch-other":
		p := isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: int32(1 + r.intn(100))})
		_ = m.Mem().Write(sc.loops[o.ID], p[:])
	case "bp-other":
		o.BP = Breakpoint{Addr: sc.loops[o.ID] + uint64(r.intn(4))*isa.InstrBytes, Enabled: true}
	case "branch-watch-other":
		o.BranchWatch.Target, o.BranchWatch.Enabled = o.UserBranches+1+uint64(r.intn(4)), true
	case "step-other":
		o.SingleStep = true
	case "move-other":
		o.PC = sc.loops[o.ID]
	case "flush-other":
		if running {
			m.StartCore(o.ID, o.PC, o.AS) // same place, cold cache
		}
	case "remap-other":
		if running && o.AS == sc.as {
			o.AS = sc.alt[o.ID]
		} else if running {
			o.AS = sc.as
		}
	case "stall-other":
		o.AddStall(1 + r.intn(60))
	case "watched-store":
		_ = m.Mem().WriteU(trapFlag, 8, 0)
	case "page-store":
		_ = m.Mem().WriteU(trapFlag+64, 8, uint64(r.intn(1<<20)))
	case "arm-device":
		sc.dev.due = m.Now() + 1 + uint64(r.intn(200))
	case "irq-self":
		m.RouteIRQ(trapOthIRQ, c.ID)
		m.RaiseIRQ(trapOthIRQ)
	case "ipi-self":
		m.SendIPI(c.ID)
	case "bp-self":
		c.BP = Breakpoint{Addr: sc.loops[c.ID] + uint64(r.intn(4))*isa.InstrBytes, Enabled: true}
	case "step-self":
		c.SingleStep = true
	case "dma-text-stuck":
		// A bit of the low immediate byte of c's loop head sticks at 1, and
		// the device rewrites the instruction with that bit clear, which
		// the next read re-asserts; cleared by the next such trap.
		d := &sc.dev.dma
		if m.Mem().StuckBits() != 0 {
			m.Mem().ClearStuck(d.at+4, d.bit)
			break
		}
		v := r.intn(1 << 20)
		d.bit = uint(v % 7)
		_ = m.Mem().SetStuck(sc.loops[c.ID]+4, d.bit, 1)
		imm := int32(2+v>>3%100) &^ (1 << d.bit)
		d.due, d.at = m.Now()+1+uint64(v>>10%200), sc.loops[c.ID]
		d.ins = isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: imm})
	case "branch-watch-self":
		c.BranchWatch.Target, c.BranchWatch.Enabled = c.UserBranches+1, true
	}
}

func (sc *trapScenario) do(call idleCall) {
	if !call.until {
		sc.m.Run(call.n)
		return
	}
	k := sc.traps
	_ = sc.m.RunUntil(func() bool { return sc.traps > k }, call.n)
}

// render describes the machine and everything observed so far.
func (sc *trapScenario) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\n", sc.m.Now())
	for i := 0; i < sc.m.NumCores(); i++ {
		c := sc.m.Core(i)
		fmt.Fprintf(&b, "core %d: %+v\n", i, idleCoreState{c.Cycles, c.Instructions, c.PC, c.jitter,
			c.pendingIRQ, c.stall, c.State, c.Regs, c.pendingIPI, c.SingleStep, c.BP.Enabled})
	}
	b.WriteString(strings.Join(sc.log, "\n"))
	return b.String()
}

// batchTrapCheck runs seed's scenario on both engines and compares them
// after every call. It returns the fast engine's scenario.
func batchTrapCheck(t *testing.T, seed uint64) *trapScenario {
	fast, calls := newTrapScenario(t, seed, true)
	naive, _ := newTrapScenario(t, seed, false)
	for i, call := range calls {
		fast.do(call)
		parkShadowed(t, func() { naive.do(call) })
		if f, n := fast.render(), naive.render(); f != n {
			t.Fatalf("seed %d (%s): after call %d %+v the engines diverged\n%s", seed, fast.action, i, call, diffLine(f, n))
		}
	}
	return fast
}

// FuzzBatchTrap runs batchTrapCheck on arbitrary seeds. The committed
// corpus holds one seed per handler action.
func FuzzBatchTrap(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) { batchTrapCheck(t, seed) })
}

// TestBatchTrapSurvival is the fuzz target's fixed-seed tier-1 run: three
// seeds per action. Across them traps must have been taken both beside a
// rider and without one, some beside a rider inside a solo run, solo runs
// must have issued naively, and batches must have gone on after most traps.
func TestBatchTrapSurvival(t *testing.T) {
	var traps, rider, soloRider int
	var exits BatchExits
	var solo, soloNaive uint64
	for k := uint64(0); k < 3; k++ {
		for a := range trapActions {
			sc := batchTrapCheck(t, k*uint64(len(trapActions))+uint64(a)+2000)
			traps += sc.traps
			rider += sc.rider
			soloRider += sc.soloRider
			st := sc.m.SuperblockStats()
			solo += st.Solo
			soloNaive += st.SoloNaive
			e := st.Exits
			exits.Trap += e.Trap
			exits.MMIO += e.MMIO
			exits.Watched += e.Watched
			exits.Wake += e.Wake
			exits.Horizon += e.Horizon
			exits.Refused += e.Refused
		}
	}
	t.Logf("%d traps, %d beside a rider, %d of them inside a solo run; %d solo cycles, %d issued naively; batch exits: %+v",
		traps, rider, soloRider, solo, soloNaive, exits)
	if solo == 0 || soloNaive == 0 {
		t.Fatalf("%d cycles ran solo, %d of them issued naively", solo, soloNaive)
	}
	if rider == 0 || rider == traps {
		t.Fatalf("%d of %d traps were taken beside a rider: the generator covers only one side", rider, traps)
	}
	if soloRider == 0 {
		t.Fatal("no trap was taken inside a solo run beside a rider")
	}
	if exits.Trap*2 > uint64(traps) {
		t.Fatalf("%d of %d traps ended their batch", exits.Trap, traps)
	}
}
