package machine

import (
	"encoding/binary"
	"fmt"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// Deferred execution (superblock.go) lets a core trail the machine's clock
// while nothing can see it, and runs the one core that does not trail alone
// (solo). The tests here put an observer at every place something can see
// a core — the kernel, a device, a park condition, RunUntil's condition,
// the host between Run calls — and require it to see exactly what naive
// stepping shows it.

// coreObs is everything an observer can read off a core.
type coreObs struct {
	pc, cycles, branches, instrs uint64
	state                        CoreState
	regs                         [isa.NumRegs]uint64
}

// obsEntry is one observation of the whole machine.
type obsEntry struct {
	tag   string
	now   uint64
	cores [4]coreObs
}

func observe(m *Machine, tag string) obsEntry {
	e := obsEntry{tag: tag, now: m.Now()}
	for i := range e.cores {
		c := m.Core(i)
		e.cores[i] = coreObs{c.PC, c.Cycles, c.UserBranches, c.Instructions, c.State, c.Regs}
	}
	return e
}

// obsDevice observes from the device side: an MMIO read logs the machine,
// and, like the NIC's DMA mailbox, it delivers (and logs) on the first Tick
// after the guest clears the flag word it declares as watched RAM.
type obsDevice struct {
	m      *Machine
	flagPA uint64
	log    *[]obsEntry
}

func (d *obsDevice) MMIORead(addr uint64, size int) uint64 {
	*d.log = append(*d.log, observe(d.m, "mmio-read"))
	return 0x77
}

func (d *obsDevice) MMIOWrite(addr uint64, size int, v uint64) {
	*d.log = append(*d.log, observe(d.m, "mmio-write"))
}

func (d *obsDevice) armed() bool {
	v, _ := d.m.Mem().ReadU(d.flagPA, 8)
	return v == 0
}

func (d *obsDevice) Tick(m *Machine) {
	if d.armed() {
		*d.log = append(*d.log, observe(m, "dma"))
		_ = m.Mem().WriteU(d.flagPA, 8, 1)
	}
}

func (d *obsDevice) WatchedMem() (uint64, uint64) { return d.flagPA, d.flagPA + 8 }

func (d *obsDevice) NextEvent(now uint64) uint64 {
	if d.armed() {
		return now + 1
	}
	return NoEvent
}

const (
	obsLoop0   = 0x1000  // the first loop: integer and MUL
	obsLoop1   = 0x2000  // the other loops: FP, long stalls
	obsText    = 0x3000  // the observer's program
	obsSpin    = 0x4000  // the spinner's load loop
	obsCold    = 0x5000  // a line the observer has never fetched
	obsFlagPA  = 0x8000  // device-watched RAM
	obsParkPA  = 0x9000  // the word a watched park waits on
	obsSrcPA   = 0xA000  // data nobody has touched: a load from it misses
	obsDstPA   = 0xB000  // the destination of the observer's MEMCPY
	obsPriv    = 0x10000 // with priv: the FP loops' private page, at obsPriv + id*0x1000
	obsMMIO    = 0xF000_0000
	obsPatched = 100                   // the increment the observer patches into loop 0
	obsFill    = 0x5a5a_5a5a_5a5a_5a5a // the last word the MEMCPY moves
)

// obsConfig places the cores of an observation run on the four-core
// machine: loops register-only loops on the lowest cores other than the
// observer's, with rider a park on the word the observer stores into on the
// next free one, and with pageRider a park on another word of that page,
// which the store moves without waking it, on the one after. The observer
// is, whenever the loops are all inside a promise, the one core that holds
// none, so what it does it does solo, beside the riders — unless spinner
// puts a load loop, which can promise at most a cycle at a time, on the
// next free core: then the observer's stores land in the rotation, beside
// promised loops.
type obsConfig struct {
	loops     int
	observer  int
	rider     bool
	pageRider bool
	spinner   bool
	// priv runs the FP loops in address spaces of their own, each with a
	// private page it loads from and stores into, and text no other core
	// maps writable, so they run ahead of machine time.
	priv    bool
	maxNops int // the observer's lead-in is swept from 0 to this many NOPs
}

func mustLoad(t *testing.T, m *Machine, b *asm.Builder, base uint64) {
	t.Helper()
	prog, err := b.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Write(base, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
}

// observationRun boots the register-only loops and the observer, which
// after nops NOPs performs each kind of observation in turn, and returns
// everything the kernel, the device and the host saw.
func observationRun(t *testing.T, sb bool, memHit int, cfg obsConfig, phase, nops int) (log []obsEntry, st SuperblockStats) {
	t.Helper()
	prof := X86() // jitter on
	prof.Costs.MemHit = memHit
	size := 1 << 16
	if cfg.priv {
		size = 1 << 17
	}
	m := New(prof, size)
	m.SetSuperblock(sb)
	dev := &obsDevice{m: m, flagPA: obsFlagPA, log: &log}
	if err := m.Mem().WriteU(obsFlagPA, 8, 1); err != nil { // mailbox occupied
		t.Fatal(err)
	}
	if err := m.Mem().WriteU(obsSrcPA+192, 8, obsFill); err != nil {
		t.Fatal(err)
	}
	m.AddDevice(dev)
	m.MapMMIO(obsMMIO, 0x100, dev)
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		log = append(log, observe(m, fmt.Sprintf("trap %v %d core %d", tr.Kind, tr.Num, c.ID)))
		if tr.Kind != TrapSyscall {
			c.Halt()
		}
	}))

	l0 := asm.New()
	l0.Label("loop")
	l0.Addi(5, 5, 1) // the observer patches this increment
	l0.Mul(6, 5, 5)
	l0.Xor(7, 7, 6)
	l0.Shli(8, 7, 3)
	l0.Sub(9, 8, 5)
	l0.J("loop")
	mustLoad(t, m, l0, obsLoop0)

	l1 := asm.New()
	l1.Fconst(1, 1.5)
	l1.Li64(10, obsPriv)
	l1.Label("loop")
	if cfg.priv {
		l1.Ld(8, 11, 10, 0)
		l1.Add(11, 11, 5)
		l1.St(8, 10, 11, 8)
	}
	l1.Fadd(2, 2, 1)
	l1.Fmul(3, 2, 1)
	l1.Fsin(4, 3)
	l1.Addi(5, 5, 1)
	l1.Fdiv(6, 3, 1)
	l1.Bne(5, 0, "loop")
	mustLoad(t, m, l1, obsLoop1)

	patch := isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: obsPatched})
	ob := asm.New()
	for i := 0; i < nops; i++ {
		ob.Nop()
	}
	ob.Syscall(1) // the kernel looks
	ob.Li64(1, obsMMIO)
	ob.Ld(8, 2, 1, 0) // a device looks
	ob.Li64(3, obsLoop0)
	ob.Li64(4, binary.LittleEndian.Uint64(patch[:]))
	ob.St(8, 3, 4, 0) // a store into the first loop's current text page
	ob.Syscall(2)
	ob.Li64(7, obsSrcPA)
	ob.Ld(8, 8, 7, 0) // a load that misses: the bus is touched
	ob.Li64(9, obsDstPA)
	ob.Li(10, 200)
	ob.Memcpy(10, 9, 7) // a block op: chunks of bus traffic with PC in place
	ob.Syscall(6)
	ob.Li64(4, binary.LittleEndian.Uint64(patch[:]))
	ob.Li64(3, obsText+uint64(ob.Len()+3)*isa.InstrBytes)
	ob.St(8, 3, 4, 0) // a store into its own block, two instructions ahead
	ob.Nop()
	ob.Addi(5, 5, 1) // patched before it is fetched
	ob.Syscall(7)
	ob.Li64(5, obsFlagPA)
	ob.St(8, 5, 0, 0) // a store into device-watched RAM: the DMA looks
	ob.Syscall(3)
	ob.Li64(5, obsParkPA)
	ob.St(8, 5, 5, 0) // a store into a parked core's watched page: its condition looks
	ob.Li64(6, obsCold)
	ob.Jr(6) // a cold-line fetch: the bus is touched
	mustLoad(t, m, ob, obsText)
	cold := asm.New()
	cold.Addi(7, 7, 1)
	cold.Syscall(4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 25; j++ {
			cold.Addi(7, 7, 1)
		}
		cold.Syscall(5)
	}
	cold.Hlt()
	mustLoad(t, m, cold, obsCold)
	spin := asm.New()
	spin.Li64(1, obsSrcPA+64)
	spin.Label("loop")
	spin.Ld(8, 2, 1, 0)
	spin.Addi(3, 3, 1)
	spin.J("loop")
	mustLoad(t, m, spin, obsSpin)

	mmio := Segment{VBase: obsMMIO, PBase: obsMMIO, Size: 0x100, Perm: PermR | PermW}
	as := &AddrSpace{Segs: []Segment{{VBase: 0, PBase: 0, Size: 1 << 16, Perm: PermR | PermW | PermX}, mmio}}
	loop1AS := func(int) *AddrSpace { return as }
	if cfg.priv {
		// Nobody else maps the FP loops' text writable or their pages.
		rwx := PermR | PermW | PermX
		as = &AddrSpace{Segs: []Segment{
			{VBase: 0, PBase: 0, Size: obsLoop1, Perm: rwx},
			{VBase: obsLoop1, PBase: obsLoop1, Size: 0x1000, Perm: PermR | PermX},
			{VBase: obsLoop1 + 0x1000, PBase: obsLoop1 + 0x1000, Size: 1<<16 - obsLoop1 - 0x1000, Perm: rwx},
			mmio,
		}}
		loop1AS = func(id int) *AddrSpace {
			return &AddrSpace{Segs: []Segment{
				{VBase: obsLoop1, PBase: obsLoop1, Size: 0x1000, Perm: PermR | PermX},
				{VBase: obsPriv, PBase: obsPriv + uint64(id)*0x1000, Size: 0x1000, Perm: PermR | PermW},
			}}
		}
	}
	m.Run(uint64(phase)) // every core halted: only the rotation origin moves
	observer := cfg.observer
	var others []int // the cores beside the observer, ascending
	for id := 0; id < m.NumCores(); id++ {
		if id != observer {
			others = append(others, id)
		}
	}
	patched := others[0]
	m.StartCore(patched, obsLoop0, as)
	for _, id := range others[1:cfg.loops] {
		m.StartCore(id, obsLoop1, loop1AS(id))
	}
	m.StartCore(observer, obsText, as)
	free := others[cfg.loops:]
	if cfg.spinner {
		m.StartCore(free[0], obsSpin, as)
		free = free[1:]
	}
	park := func(tag string, word uint64) {
		// Every evaluation of the rider's condition, and its done hook, is
		// an observer.
		rider := m.Core(free[0])
		free = free[1:]
		rider.Park(func() bool {
			log = append(log, observe(m, tag+"-eval"))
			v, _ := m.Mem().ReadU(word, 8)
			return v != 0
		}, func() {
			log = append(log, observe(m, tag+"-wake"))
			rider.Halt()
		}, NoEvent, m.Mem().PageGen(word, 8))
	}
	if cfg.rider {
		park("park", obsParkPA)
	}
	if cfg.pageRider {
		park("page-park", obsParkPA+64)
	}
	for _, n := range []uint64{1, 2, 61, 500, 1, 997, 1500} {
		m.Run(n)
		for i := range m.sbRun {
			if m.sbRun[i].lag != 0 {
				t.Fatalf("core %d lags %d cycles outside a batch", i, m.sbRun[i].lag)
			}
		}
		log = append(log, observe(m, "host")) // the host looks
	}
	if m.Core(observer).State != CoreHalted {
		t.Fatalf("the observer did not finish (pc %#x)", m.Core(observer).PC)
	}
	if got := m.Core(patched).Regs[5]; got < obsPatched {
		t.Fatalf("core %d never executed the patched increment (r5 = %d)", patched, got)
	}
	if got, _ := m.Mem().ReadU(obsDstPA+192, 8); got != obsFill {
		t.Fatalf("the MEMCPY never finished (last word %#x)", got)
	}
	return log, m.SuperblockStats()
}

// TestDeferredObservationExact: the whole observation log is identical
// with the superblock engine on and off, for every rotation phase of the
// start cycle and every alignment of the observations against the loops'
// promises; with two, three and four executing cores, where the observer
// does everything it does solo — a syscall, an MMIO load, a store into
// another core's running loop, a store into device-watched RAM, a load that
// misses, a MEMCPY, a store into the block it is executing, a jump to a
// cold line — with promised cores on both sides of its rotation slot; and
// beside parked riders, one woken by the observer's store into its watched
// word, one whose watched page that store moves while it stays parked; with
// the stock one-cycle cache hit as well as a three-cycle one, which puts a
// stall behind every fetch; beside a spinner that keeps solo rare, so the
// observer's store into the running loop lands in the rotation; and with
// FP loops that load from and store into private pages, in address spaces
// of their own, so they run ahead of machine time and every observation
// rewinds them.
func TestDeferredObservationExact(t *testing.T) {
	for _, memHit := range []int{1, 3} {
		for _, cfg := range []obsConfig{
			{loops: 1, observer: 1, maxNops: 70},
			{loops: 2, observer: 2, rider: true, maxNops: 70},
			{loops: 1, observer: 1, rider: true, pageRider: true, maxNops: 23},
			{loops: 2, observer: 1, maxNops: 23},
			{loops: 3, observer: 2, maxNops: 23},
			{loops: 1, observer: 1, spinner: true, maxNops: 23},
			{loops: 2, observer: 2, rider: true, priv: true, maxNops: 23},
			{loops: 3, observer: 0, priv: true, maxNops: 23},
		} {
			var deferred, promises, solo, soloRider uint64
			for phase := 0; phase < 4; phase++ {
				for nops := 0; nops <= cfg.maxNops; nops++ {
					fast, st := observationRun(t, true, memHit, cfg, phase, nops)
					naive, _ := observationRun(t, false, memHit, cfg, phase, nops)
					where := fmt.Sprintf("hit %d %+v phase %d nops %d", memHit, cfg, phase, nops)
					if len(fast) != len(naive) {
						t.Fatalf("%s: %d observations batched, %d naive", where, len(fast), len(naive))
					}
					for i := range fast {
						if fast[i] != naive[i] {
							t.Fatalf("%s: observation %d (%s) diverged\nbatched: %+v\nnaive:   %+v",
								where, i, naive[i].tag, fast[i], naive[i])
						}
					}
					deferred += st.Ahead
					promises += st.Promises
					solo += st.Solo
					soloRider += st.SoloRider
				}
			}
			if deferred == 0 || promises == 0 {
				t.Fatalf("hit %d %+v: nothing ran ahead (%d cycles, %d promises): the test observes nothing",
					memHit, cfg, deferred, promises)
			}
			if solo == 0 || (soloRider != 0) != (cfg.rider || cfg.pageRider) {
				t.Fatalf("hit %d %+v: %d cycles ran solo, %d beside a rider", memHit, cfg, solo, soloRider)
			}
		}
	}
}

// TestSoloRidesWithRider: a memory loop beside an FP loop's long stalls
// runs solo, and goes on doing so beside a parked rider that never wakes:
// the rider is credited its cycles, and every evaluation of its condition
// sees, and the run ends in, exactly the machine naive stepping shows. In
// the third variant the loop stores into the rider's watched page, beside
// the word its condition reads: each store ends the solo run and the rider
// evaluates on the first poll after it.
func TestSoloRidesWithRider(t *testing.T) {
	const (
		noRider = iota
		rider
		riderPageStored
	)
	scenario := func(sb bool, kind int) ([]obsEntry, SuperblockStats) {
		var log []obsEntry
		m := New(X86(), 1<<16)
		m.SetSuperblock(sb)
		fp := asm.New()
		fp.Fconst(1, 1.5)
		fp.Label("loop")
		fp.Fdiv(2, 2, 1)
		fp.Fsin(3, 2)
		fp.J("loop")
		mustLoad(t, m, fp, obsLoop1)
		mem := asm.New()
		mem.Li64(1, obsSrcPA)
		mem.Label("loop")
		mem.Ld(8, 2, 1, 0)
		mem.Addi(2, 2, 1)
		mem.St(8, 1, 2, 0)
		mem.J("loop")
		mustLoad(t, m, mem, obsText)
		as := flatAS(m.Mem().Size())
		m.StartCore(0, obsLoop1, as)
		m.StartCore(1, obsText, as)
		if kind != noRider {
			word := uint64(obsParkPA)
			if kind == riderPageStored {
				word = obsSrcPA + 64 // the loop stores into obsSrcPA
			}
			r := m.Core(2)
			r.Park(func() bool {
				log = append(log, observe(m, "park-eval"))
				v, _ := m.Mem().ReadU(word, 8)
				return v != 0
			}, nil, NoEvent, m.Mem().PageGen(word, 8))
		}
		m.Run(5000)
		return append(log, observe(m, "end")), m.SuperblockStats()
	}
	for kind, name := range []string{"no rider", "rider", "rider's page stored"} {
		fast, st := scenario(true, kind)
		naive, _ := scenario(false, kind)
		if len(fast) != len(naive) {
			t.Fatalf("%s: %d observations batched, %d naive", name, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("%s: observation %d (%s) diverged\nbatched: %+v\nnaive:   %+v", name, i, naive[i].tag, fast[i], naive[i])
			}
		}
		if st.Batched == 0 || st.Solo == 0 || (st.SoloRider != 0) != (kind != noRider) {
			t.Fatalf("%s: of %d batched cycles %d ran solo, %d beside a rider", name, st.Batched, st.Solo, st.SoloRider)
		}
		if evals := len(fast) - 1; kind == riderPageStored && evals < 10 {
			t.Fatalf("%s: the rider evaluated %d times: the loop's stores were not seen", name, evals)
		}
	}
}

// TestDeferredCondShadowReportsViolation hands RunUntil a condition on a
// running core's register — outside its contract — and checks that
// DebugCondShadow reports the cycle naive stepping would have stopped on,
// and nothing for a condition inside the contract.
func TestDeferredCondShadowReportsViolation(t *testing.T) {
	var reported []uint64
	DebugCondShadow = func(now uint64) { reported = append(reported, now) }
	defer func() { DebugCondShadow = nil }()
	boot := func(sb bool) (*Machine, *flagHandler) {
		m := New(noJitter(X86()), 1<<16)
		m.SetSuperblock(sb)
		mustLoad(t, m, spinThen(300, func(b *asm.Builder) { b.Syscall(1) }), 0)
		h := &flagHandler{}
		m.SetHandler(h)
		m.StartCore(0, 0, flatAS(m.Mem().Size()))
		return m, h
	}

	m, _ := boot(false)
	if err := m.RunUntil(func() bool { return m.Core(0).Regs[5] >= 100 }, 10_000); err != nil {
		t.Fatal(err)
	}
	want := m.Now()
	m, _ = boot(true)
	_ = m.RunUntil(func() bool { return m.Core(0).Regs[5] >= 100 }, 10_000)
	if len(reported) == 0 || reported[0] != want {
		t.Fatalf("shadow reported %v, want first report at cycle %d", reported, want)
	}

	reported = nil
	m, h := boot(false)
	if err := m.RunUntil(func() bool { return h.flag }, 10_000); err != nil {
		t.Fatal(err)
	}
	want = m.Now()
	m, h = boot(true)
	if err := m.RunUntil(func() bool { return h.flag }, 10_000); err != nil {
		t.Fatal(err)
	}
	if m.Now() != want || len(reported) != 0 {
		t.Fatalf("kernel-flag condition: stopped at %d (naive %d), shadow reported %v", m.Now(), want, reported)
	}
}

// TestSuperblockFastSet pins the one definition of the fast set: for every
// opcode, defined or not, sbFast — what a run ahead executes without a
// check — says what execFast does.
func TestSuperblockFastSet(t *testing.T) {
	cost := X86().Costs
	fast := 0
	for op := 0; op < 256; op++ {
		c := &Core{}
		ins := &isa.Instr{Op: isa.Opcode(op), Rd: 1, Rs1: 2, Rs2: 3}
		got := execFast(c, ins, &cost)
		if got != sbFast[ins.Op] {
			t.Errorf("%v: execFast = %v, sbFast = %v", ins.Op, got, sbFast[ins.Op])
		}
		if !got && (c.PC != 0 || c.Regs != [isa.NumRegs]uint64{} || c.stall != 0 || c.UserBranches != 0) {
			t.Errorf("%v: execFast refused the op but changed the core", ins.Op)
		}
		if got {
			fast++
			if ins.Op.IsMemAccess() || !ins.Op.Valid() {
				t.Errorf("%v is in the fast set", ins.Op)
			}
		}
	}
	if fast < 40 {
		t.Fatalf("only %d opcodes in the fast set", fast)
	}
}
