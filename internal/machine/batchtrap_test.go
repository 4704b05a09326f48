package machine

import (
	"fmt"
	"hash/crc32"
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
// trapping core what makes it issue naively (an interrupt, single-step), a
// breakpoint anywhere in its loop (disarmed by its trap, or, for
// "bp-resume-self", kept armed and stepped over with ResumeOnce) or a branch
// watch on its next branch, so a lone core beside a rider runs solo with it
// armed, and "dma-text-stuck" sticks a bit of the
// trapping core's loop text and has the device rewrite that instruction
// through a Mem.Slice window, de-asserting the bit. The batch engine must
// leave the machine exactly where naive stepping, with every accelerator
// off, does after every Run and RunUntil call, every trap and device event
// must observe the same machine, and the naive reference runs with
// DebugParkShadow set, so a park gate skip that misses a wake fails too. A
// seed's residue modulo len(trapActions) picks the action every syscall
// takes; "mixed" draws one per syscall.
//
// A seed with bit 33 set adds local kernel entries (LocalTrapper), with
// either layout: the loops also issue syscall 2 at drawn places, whose
// handler touches only its own core and state no core's run reads — it sets
// the core's R1, charges it a stall, bumps a kernel counter one kind of
// rider's condition waits on (a condition that reads kernel state, declared
// through the park epoch) and, in the private layout, writes RAM no address
// space maps — and, one call in 32, halts its own core. The handler's
// LocalTrap calls syscall 2 local in three of every four 64-cycle windows of
// machine time, so a syscall the batch predicted local at a loop top
// (sbRoom) may be non-local when it traps. A local entry must leave the
// other cores' runs ahead and re-derive only its own core's block. Seeds
// without bit 33 expand exactly as before it.

var trapActions = []string{"mixed", "return", "park-self", "park-other", "unpark-other",
	"ipi-other", "irq-other", "patch-other", "bp-other", "branch-watch-other",
	"step-other", "move-other", "flush-other", "remap-other", "stall-other",
	"watched-store", "page-store", "arm-device",
	"irq-self", "ipi-self", "bp-self", "step-self", "dma-text-stuck", "branch-watch-self",
	"bp-resume-self"}

// privActions extend trapActions on a seed with bit 32 set, whose cores
// each run in an address space of their own: a private data page, their own
// text page (writable, so a loop can store into it), and the watched and
// park pages shared. Their loops add what stops or rewinds a run ahead of
// machine time: a load from a line not yet in the cache, a divide whose
// divisor is zero every eighth iteration (its trap skips it), a store that
// rewrites an increment two instructions on in their own text, a MEMCPY
// and a MEMSET inside
// their private page, a store into a device register, a store into a line
// a register picks. The handler actions
// stick a bit of a core's private page (cleared by the next such trap),
// write another core's private page or a register its loop reads, or arm
// another core's block watch at a block op's first chunk. Seeds without bit 32 expand exactly as before the split.
var privActions = []string{"stuck-private", "poke-other-page", "poke-other-reg", "block-watch-other"}

// privCopy holds the lengths of the private-layout loops' block ops, which
// block-watch-other arms a watch on.
var privCopy = [...]int32{40, 100, 150}

const (
	trapText   = 0x1000  // core i's loop at trapText + i*0x1000
	trapData   = 0x8000  // core i's private words at trapData + i*0x100
	trapPriv   = 0x10000 // with bit 32: core i's private page at trapPriv + i*0x1000
	trapPriv2  = 0x18000 // ... and the one its variant maps instead
	trapFlag   = 0xC000  // the device-watched word
	trapPark   = 0xD000  // the word parks wait on
	trapKern   = 0x1F000 // with bits 32 and 33: RAM the local handler writes, mapped by no core
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
	priv   bool          // each core has an address space of its own (privActions)
	local  bool          // syscall 2 is a local kernel entry (bit 33)
	as     [4]*AddrSpace // core i's address space
	alt    [4]*AddrSpace // as, with core i's text page mapped to a variant of its loop
	loops  [4]uint64     // each core's loop head, the instruction patch-other rewrites
	body   [4]int        // each core's loop length in instructions, its closing branch included
	// resume marks the cores whose breakpoint bp-resume-self armed: its
	// handler keeps the breakpoint and steps over it with ResumeOnce.
	resume [4]bool
	log    []string
	// traps counts the handler's calls, rider those made while a core was
	// parked, and soloRider those of them the batch engine took inside a
	// solo run (whose settlement the trap's sync has just made).
	traps, rider, soloRider int
	// bpAt counts the breakpoints that fired by where they stand (bpKinds).
	bpAt [len(bpKinds)]int
	// stuck is the private byte stuck-private stuck, 0 when none is.
	stuck uint64
	// kernel is the kernel state the local handler bumps and a rider may
	// wait on. locals counts the local syscalls' handler calls, and paths
	// counts them by the path the batch engine took (localPaths).
	kernel uint64
	locals int
	paths  [len(localPaths)]int
	// predicted is, per core, the syscall PC and the answer of the last
	// LocalTrap asked ahead of the trap (by sbRoom), pc 0 when none was.
	predicted [4]struct {
		pc    uint64
		local bool
	}
}

// localPaths names the paths a local syscall can take on the batch engine:
// taken locally inside a solo run or in the rotation (a peer's run ahead of
// machine time in either), a handler that halts its own core (the entry
// then finishes as any other), called local while a core is parked (so
// taken as any other), and predicted local at a loop top but non-local when
// it trapped.
var localPaths = [...]string{"solo", "rotation", "halt-self", "beside-rider", "mispredicted"}

// trapLocal is the handler of a seed with bit 33 set.
type trapLocal struct{ sc *trapScenario }

func (h trapLocal) HandleTrap(c *Core, t Trap) { h.sc.handle(c, t) }

func (h trapLocal) LocalTrap(c *Core, t Trap) bool {
	local := t.Kind == TrapSyscall && t.Num == 2 && h.sc.m.Now()>>6&3 != 0
	if c.PC != t.PC { // asked ahead: the core still stands on the syscall
		h.sc.predicted[c.ID].pc, h.sc.predicted[c.ID].local = t.PC, local
	}
	return local
}

// bpKinds names where in its loop a breakpoint can fire: after a
// register-only op of its block, on a block's terminator (the loop's branch
// or the syscall), on a chain target (the loop head or the instruction after
// the syscall), or after a slow op of its block.
var bpKinds = [...]string{"mid-run", "terminator", "chain-target", "after-slow"}

// bpKind classifies a breakpoint that fired at pc in c's loop.
func (sc *trapScenario) bpKind(c *Core, pc uint64) int {
	op := func(va uint64) isa.Opcode {
		var raw [isa.InstrBytes]byte
		pa, _, _ := c.AS.Translate(va, isa.InstrBytes, PermX)
		_ = sc.m.Mem().ReadAt(pa, raw[:])
		ins, _ := isa.Decode(raw[:])
		return ins.Op
	}
	switch {
	case sbEnds(op(pc)):
		return 1
	case pc == sc.loops[c.ID] || sbEnds(op(pc-isa.InstrBytes)):
		return 2
	case sbFast[op(pc-isa.InstrBytes)]:
		return 0
	}
	return 3
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
func loopProg(r *idleRand, id int, alt, priv, local bool) (*asm.Builder, int) {
	bump := int32(0)
	if alt {
		bump = 100
	}
	b := asm.New()
	if priv {
		b.Li64(3, trapPriv+uint64(id)*0x1000)
	} else {
		b.Li64(3, trapData+uint64(id)*0x100)
	}
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
			if local && r.intn(3) == 0 {
				b.Syscall(2)
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
	if priv {
		privPieces(b, r)
	}
	b.Syscall(1)
	run()
	b.J("loop")
	return b, head
}

// privPieces adds a private-layout loop's memory traffic: each piece is
// drawn, so a run ahead meets them in any order.
func privPieces(b *asm.Builder, r *idleRand) {
	for k := 1 + r.intn(4); k > 0; k-- {
		switch r.intn(8) {
		case 0: // a line of the private page not touched for 32 iterations
			b.Andi(16, 5, 31)
			b.Shli(16, 16, 6)
			b.Add(16, 16, 3)
			b.Ld(8, 15, 16, 0x200)
		case 1: // a zero divisor every eighth iteration
			b.Andi(17, 5, 7)
			b.Div(18, 12, 17)
		case 2: // self-modifying code: an increment two instructions on
			smc := fmt.Sprintf("smc%d", b.Len())
			b.LiLabel(19, smc)
			b.Andi(23, 12, 7)
			b.Addi(23, 23, 1)
			b.St(2, 19, 23, 4)
			b.Nop()
			b.Label(smc)
			b.Addi(25, 25, 1)
		case 3:
			b.Li(20, privCopy[r.intn(len(privCopy))])
			b.Addi(21, 3, 0xa00)
			b.Addi(22, 3, 0x10)
			b.Memcpy(20, 21, 22)
		case 4:
			b.Li(20, privCopy[r.intn(len(privCopy))])
			b.Addi(21, 3, 0xc00)
			b.Memset(20, 21, byte(r.intn(256)))
		case 5:
			b.St(8, 11, 5, 8) // a device register
		case 6: // a line picked by a register poke-other-reg may change
			b.Andi(24, 12, 15)
			b.Shli(24, 24, 6)
			b.Add(24, 24, 3)
			b.St(8, 24, 5, 0x400)
		default:
			b.Ld(8, 8, 3, 0x18)
			b.Add(12, 12, 8)
			b.St(8, 3, 12, 0x20)
		}
	}
}

// newTrapScenario builds seed's machine on the batch engine (sb) or on naive
// stepping and returns it with seed's calls.
func newTrapScenario(t *testing.T, seed uint64, sb bool) (*trapScenario, []idleCall) {
	t.Helper()
	r := idleRand(seed)
	priv, local := seed>>32&1 != 0, seed>>33&1 != 0
	size, actions := 1<<16, trapActions
	if priv {
		size, actions = 1<<17, append(trapActions[:len(trapActions):len(trapActions)], privActions...)
	}
	m := New(X86(), size) // jitter on
	m.SetSuperblock(sb)
	m.SetExecCache(sb) // the reference fetches every instruction from memory
	sc := &trapScenario{m: m, r: idleRand(seed ^ 0x5eed), holds: idleRand(seed ^ 0xb01d),
		action: actions[seed%uint64(len(actions))], priv: priv, local: local}
	mmio := Segment{VBase: trapMMIO, PBase: trapMMIO, Size: 0x100, Perm: PermR | PermW}
	flat := &AddrSpace{Segs: []Segment{{VBase: 0, PBase: 0, Size: 1 << 16, Perm: PermR | PermW | PermX}, mmio}}
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
	if local {
		m.SetHandler(trapLocal{sc})
	} else {
		m.SetHandler(handlerFunc(sc.handle))
	}
	for i := 0; i < m.NumCores(); i++ {
		ra := r
		b, head := loopProg(&r, i, false, priv, local)
		base := trapText + uint64(i)*0x1000
		mustLoad(t, m, b, base)
		sc.loops[i] = base + uint64(head)*isa.InstrBytes
		sc.body[i] = b.Len() - head
		alt, _ := loopProg(&ra, i, true, priv, local)
		pa := trapAlt[i]
		mustLoad(t, m, alt, pa)
		if priv {
			// The core's text and private page, and the shared watched and
			// park pages; the variant maps the private page's addresses onto
			// a second private page.
			own := func(text, data uint64) *AddrSpace {
				return &AddrSpace{Segs: []Segment{
					{VBase: base, PBase: text, Size: 0x1000, Perm: PermR | PermW | PermX},
					{VBase: trapPriv + uint64(i)*0x1000, PBase: data, Size: 0x1000, Perm: PermR | PermW},
					{VBase: trapFlag, PBase: trapFlag, Size: 0x1000, Perm: PermR | PermW},
					{VBase: trapPark, PBase: trapPark, Size: 0x1000, Perm: PermR | PermW},
					mmio,
				}}
			}
			sc.as[i], sc.alt[i] = own(base, trapPriv+uint64(i)*0x1000), own(pa, trapPriv2+uint64(i)*0x1000)
			continue
		}
		sc.as[i] = flat
		sc.alt[i] = &AddrSpace{Segs: []Segment{
			{VBase: 0, PBase: 0, Size: base, Perm: PermR | PermW | PermX},
			{VBase: base, PBase: pa, Size: 0x1000, Perm: PermR | PermW | PermX},
			{VBase: base + 0x1000, PBase: base + 0x1000, Size: 1<<16 - base - 0x1000, Perm: PermR | PermW | PermX},
			mmio,
		}}
	}
	running := 1 + r.intn(4)
	for i := 0; i < m.NumCores(); i++ {
		c := m.Core(i)
		switch {
		case i < running:
			m.StartCore(i, trapText+uint64(i)*0x1000, sc.as[i])
			c.AddStall(r.intn(300))
		case r.intn(2) == 0:
			// A rider: woken by the handler, by time, or never.
			c.PC, c.AS = trapText+uint64(i)*0x1000, sc.as[i]
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
	done := func() { sc.observe(fmt.Sprintf("wake core %d", c.ID)) } // kernel code: it sees every core
	if sc.local && r.intn(4) == 0 {
		// Kernel state only the local handler changes, declared through the
		// park epoch, which every trap moves.
		kernel := sc.kernel
		c.Park(func() bool { return sc.kernel != kernel || changed() }, done, NoEvent, page)
		return
	}
	switch r.intn(3) {
	case 0:
		c.Park(func() bool { return c.PendingIRQ() != 0 || c.IPIPending() || changed() }, done, NoEvent, page)
	case 1:
		wake := c.Cycles + 20 + uint64(r.intn(600))
		c.Park(func() bool { return c.Cycles >= wake || changed() }, done, wake, page)
	default:
		c.Park(changed, done, NoEvent, page)
	}
}

func (sc *trapScenario) handle(c *Core, tr Trap) {
	m := sc.m
	if tr.Kind == TrapSyscall && tr.Num == 2 {
		sc.local2(c, tr)
		return
	}
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
		sc.bpAt[sc.bpKind(c, tr.PC)]++
		if sc.resume[c.ID] {
			c.ResumeOnce = true
		} else {
			c.BP.Enabled = false
		}
		return
	case TrapDivZero:
		c.PC += isa.InstrBytes
		return
	case TrapSyscall:
	default: // branch watch and single-step disarm themselves
		return
	}
	r := &sc.r
	action := sc.action
	if action == "mixed" {
		action = trapActions[1+r.intn(len(trapActions)-1)]
		if sc.priv && r.intn(4) == 0 {
			action = privActions[r.intn(len(privActions))]
		}
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
		sc.breakpoint(o, false)
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
		if running && o.AS == sc.as[o.ID] {
			o.AS = sc.alt[o.ID]
		} else if running {
			o.AS = sc.as[o.ID]
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
		sc.breakpoint(c, false)
	case "bp-resume-self":
		sc.breakpoint(c, true)
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
	case "stuck-private":
		at := trapPriv + uint64(o.ID)*0x1000 + uint64(r.intn(0x40))
		if sc.stuck != 0 {
			m.Mem().ClearStuck(sc.stuck, 0)
			sc.stuck = 0
			break
		}
		_ = m.Mem().SetStuck(at, 0, 1)
		sc.stuck = at
	case "poke-other-page":
		_ = m.Mem().WriteU(trapPriv+uint64(o.ID)*0x1000+uint64(8*r.intn(8)), 8, uint64(r.intn(1<<20)))
	case "poke-other-reg":
		o.Regs[12+r.intn(2)] += uint64(1 + r.intn(9))
	case "block-watch-other":
		o.BlockWatch.Rem, o.BlockWatch.Enabled = uint64(privCopy[r.intn(len(privCopy))]), true
	}
}

// local2 is syscall 2's handler: it touches only c and state no core's run
// reads, so it logs c alone. On the batch engine it also counts the path
// the entry took (localPaths).
func (sc *trapScenario) local2(c *Core, tr Trap) {
	m := sc.m
	sc.locals++
	sc.log = append(sc.log, fmt.Sprintf("local core %d now=%d pc=%#x cyc=%d ins=%d st=%d r5=%d",
		c.ID, m.Now(), c.PC, c.Cycles, c.Instructions, c.stall, c.Regs[5]))
	local := trapLocal{sc}.LocalTrap(c, tr)
	if p := &sc.predicted[c.ID]; m.superblock && p.pc == tr.PC {
		if p.local && !local {
			sc.paths[4]++
		}
		p.pc = 0
	}
	r := &sc.r
	c.Regs[1] = uint64(c.ID)<<32 | uint64(sc.locals)
	c.AddStall(r.intn(8))
	sc.kernel++
	if sc.priv {
		_ = m.Mem().WriteU(trapKern+uint64(8*c.ID), 8, uint64(sc.locals))
	}
	halt := r.intn(32) == 0
	if halt {
		c.Halt()
	}
	if !m.superblock || !local {
		return
	}
	switch {
	case m.anyParked():
		sc.paths[3]++
	case halt:
		sc.paths[2]++
	case m.sbExit&sbExitTrap == 0 && sc.peerAhead(c):
		if m.sbSolo != nil {
			sc.paths[0]++
		} else {
			sc.paths[1]++
		}
	}
}

// peerAhead reports whether a core other than c stands ahead of machine
// time in a run.
func (sc *trapScenario) peerAhead(c *Core) bool {
	for i := range sc.m.sbRun {
		if st := &sc.m.sbRun[i]; st.c != c && st.promise != 0 && !st.back {
			return true
		}
	}
	return false
}

// breakpoint arms a breakpoint on c anywhere in its loop — in a
// register-only run, on a block's terminator, on a chain target — which its
// handler disarms, or, with resume, keeps armed and steps over.
func (sc *trapScenario) breakpoint(c *Core, resume bool) {
	at := sc.loops[c.ID] + uint64(sc.r.intn(sc.body[c.ID]))*isa.InstrBytes
	c.BP = Breakpoint{Addr: at, Enabled: true}
	sc.resume[c.ID] = resume
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
	b.WriteString(memState(sc.m))
	b.WriteString(strings.Join(sc.log, "\n"))
	return b.String()
}

// memState digests what a run ahead may change besides registers: every
// byte of RAM and every cache line's tag, valid and dirty bits. Stuck bits
// are asserted first, as any read would: when a read happens may not show.
func memState(m *Machine) string {
	for a, msk := range m.mem.stuck {
		m.mem.applyStuck(a, msk)
	}
	h := crc32.NewIEEE()
	h.Write(m.mem.bytes)
	var b strings.Builder
	fmt.Fprintf(&b, "ram %08x", h.Sum32())
	for _, c := range m.cores {
		h.Reset()
		ch := c.cache
		for i := range ch.tags {
			v := ch.tags[i] << 2
			if ch.valid[i] {
				v |= 2
			}
			if ch.dirty[i] {
				v |= 1
			}
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32)})
		}
		fmt.Fprintf(&b, " cache%d %08x", c.ID, h.Sum32())
	}
	b.WriteString("\n")
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
// corpus holds one seed per handler action, and one per way a stepped
// cycle ends a batch's stretch of cycles (stepped-*: a trap in a later slot
// of the rotation, a rider's wake, a store into watched RAM, an MMIO
// access), each picked from a seed scan as the one that reached it most.
func FuzzBatchTrap(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) { batchTrapCheck(t, seed) })
}

// localSeeds are the corpus seeds named after the path of a local syscall
// they take most (localPaths): local-solo, local-rotation, local-halt-self,
// local-beside-rider and local-mispredicted.
var localSeeds = [len(localPaths)]uint64{12884902044, 12884901928, 12884901934, 12884902046, 12884901910}

// TestBatchTrapSurvival is the fuzz target's fixed-seed tier-1 run: three
// seeds per action, one per action of the private layout, and the local
// seeds. Across them traps must have been taken both beside a rider and
// without one, some beside a rider inside a solo run, solo runs must have
// issued naively, breakpoints must have fired at every kind of place in a
// loop, batches must have gone on after most traps, in the private layout
// cores must have run ahead, been rewound and replayed, and had runs undone
// for good, and local syscalls must have taken every path.
func TestBatchTrapSurvival(t *testing.T) {
	var traps, rider, soloRider int
	var bpAt [len(bpKinds)]int
	var exits BatchExits
	var solo, soloNaive, ahead, replayed, rewound, local uint64
	var paths [len(localPaths)]int
	var seeds []uint64
	for k := uint64(0); k < 3; k++ {
		for a := range trapActions {
			seeds = append(seeds, k*uint64(len(trapActions))+uint64(a)+2000)
		}
	}
	for a := range len(trapActions) + len(privActions) {
		seeds = append(seeds, 1<<32+uint64(len(trapActions)+len(privActions))*70+uint64(a))
	}
	seeds = append(seeds, localSeeds[:]...)
	for _, seed := range seeds {
		sc := batchTrapCheck(t, seed)
		traps += sc.traps
		rider += sc.rider
		soloRider += sc.soloRider
		for i, n := range sc.bpAt {
			bpAt[i] += n
		}
		for i, n := range sc.paths {
			paths[i] += n
		}
		st := sc.m.SuperblockStats()
		local += st.Local
		solo += st.Solo
		soloNaive += st.SoloNaive
		if sc.priv {
			ahead += st.Ahead
			replayed += st.Replayed
			rewound += st.Rewound.Total()
		}
		e := st.Exits
		exits.Trap += e.Trap
		exits.MMIO += e.MMIO
		exits.Watched += e.Watched
		exits.Wake += e.Wake
		exits.Horizon += e.Horizon
		exits.Refused += e.Refused
	}
	t.Logf("%d traps, %d beside a rider, %d of them inside a solo run; %d solo cycles, %d issued naively; breakpoints by place %v: %v; batch exits: %+v; private layout: %d cycles ahead, %d replayed, %d undone; %d local entries, local syscalls by path %v: %v",
		traps, rider, soloRider, solo, soloNaive, bpKinds, bpAt, exits, ahead, replayed, rewound, local, localPaths, paths)
	for i, n := range paths {
		if n == 0 {
			t.Fatalf("no local syscall took the %s path", localPaths[i])
		}
	}
	for i, n := range bpAt {
		if n == 0 {
			t.Fatalf("no breakpoint fired at a %s place", bpKinds[i])
		}
	}
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
	if ahead == 0 || replayed == 0 || rewound == 0 {
		t.Fatalf("private layout: %d cycles ran ahead, %d were replayed, %d undone", ahead, replayed, rewound)
	}
}
