package machine

import (
	"fmt"
	"strings"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// The superblock engine is a host-side accelerator: every test here runs
// the same scenario with the engine on and off and requires bit-identical
// simulated outcomes. The scenarios target the precision edges the batch
// must fall back on — DMA and bit-flips into cached block text, hard
// faults arming mid-run, park conditions flipping at batch entry, and
// device schedules that depend on RAM the batched cores write.

// sbDifferential runs trial twice — superblock on, then off — and
// requires identical snapshots. It returns the accelerated-run snapshot
// for scenario-specific assertions.
func sbDifferential(t *testing.T, trial func(t *testing.T, m *Machine) coreSnapshot) coreSnapshot {
	t.Helper()
	run := func(on bool) coreSnapshot {
		m := New(X86(), 1<<16) // jitter on: the PRNG must advance identically
		m.SetSuperblock(on)
		return trial(t, m)
	}
	fast, naive := run(true), run(false)
	assertSameSnapshot(t, fast, naive)
	return fast
}

// loadProgAt assembles b at base and boots core 0 there; the identity
// address space keeps physical and virtual addresses equal so tests can
// patch text through physical-memory handles.
func loadProgAt(t *testing.T, m *Machine, b *asm.Builder, base uint64) *testHandler {
	t.Helper()
	prog, err := b.Assemble(base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.Mem().Write(base, isa.EncodeProgram(prog)); err != nil {
		t.Fatalf("load: %v", err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	m.StartCore(0, base, flatAS(m.Mem().Size()))
	return h
}

// TestSuperblockHotLoopEquivalence runs a mixed arithmetic/memory/branch
// loop under jitter and requires every architectural counter identical to
// naive stepping, with the batched path actually carrying the run.
func TestSuperblockHotLoopEquivalence(t *testing.T) {
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 2000)
	b.Li(3, 0x8000)
	b.Label("loop")
	b.St(8, 3, 1, 0)
	b.Ld(8, 4, 3, 0)
	b.Add(5, 5, 4)
	b.Mul(6, 5, 4)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Hlt()
	got := sbDifferential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProg(t, m, b)
		run(t, m, h)
		if m.SuperblockEnabled() {
			if hr := m.SuperblockStats().HitRate(); hr < 0.9 {
				t.Fatalf("block hit rate %.3f, want >= 0.9", hr)
			}
		}
		return takeSnapshot(m, h)
	})
	if got.regs[1] != 2000 {
		t.Fatalf("r1 = %d, want 2000", got.regs[1])
	}
}

// TestRunAdvancesExactly is the off-by-one property test for the Run
// accelerator window (runBlocks(limit-1)): Run(n) must advance Now() by
// exactly n for adversarial n under every {exec-cache × superblock}
// combination, with a schedule that keeps every kind of credit live — an
// executing core with long FP stalls, a parked core with a declared odd
// wake, and a device with an odd period.
func TestRunAdvancesExactly(t *testing.T) {
	prog := asm.New()
	prog.Label("loop")
	prog.Fsin(5, 1) // FPTrans stall: mostly-idle cycles between issues
	prog.Addi(1, 1, 1)
	prog.J("loop")
	for variant := 0; variant < 4; variant++ {
		ec, sb := variant&1 == 0, variant&2 == 0
		t.Run(fmt.Sprintf("ec=%v,sb=%v", ec, sb), func(t *testing.T) {
			m := New(X86(), 1<<16)
			m.SetExecCache(ec)
			m.SetSuperblock(sb)
			m.AddDevice(&fakeTimer{period: 997})
			loadProg(t, m, prog)
			c1 := m.Core(1)
			c1.Park(func() bool { return c1.Cycles >= 100_003 }, nil, 100_003, nil)
			want := m.Now()
			for _, n := range []uint64{1, 2, 3, 7, 127, 997, 1023, 1024, 1025, 9973, 50_000} {
				m.Run(n)
				want += n
				if m.Now() != want {
					t.Fatalf("after Run(%d): now = %d, want exactly %d", n, m.Now(), want)
				}
			}
		})
	}
}

// TestSuperblockDMAStraddlesPageBoundary places a hot loop across a 4 KiB
// page boundary, warms the block cache, then DMA-writes a patch through a
// Mem.Slice window that straddles the same boundary. The whole-window
// generation touch must invalidate the cached block on both pages: the
// patched instruction executes, never the stale predecode.
func TestSuperblockDMAStraddlesPageBoundary(t *testing.T) {
	// Two instructions before the boundary, the patch target just after:
	// the block spans both pages.
	const base = 0x1000 - 2*isa.InstrBytes
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1)     // 0xFF0, page 0
	b.Addi(7, 7, 1)     // 0xFF8, page 0: the loop counter
	b.Addi(6, 6, 1)     // 0x1000, page 1: the patch target
	b.Li(8, 4000)       // page 1
	b.Blt(7, 8, "loop") // page 1
	b.Hlt()
	got := sbDifferential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProgAt(t, m, b, base)
		m.Run(400) // warm the block cache some iterations in
		if len(h.traps) != 0 {
			t.Fatalf("unexpected trap during warmup: %+v", h.traps)
		}
		// One DMA burst covering the last pre-boundary instruction and the
		// patch target: the window starts on page 0 and ends on page 1.
		win, err := m.Mem().Slice(0x1000-isa.InstrBytes, 2*isa.InstrBytes)
		if err != nil {
			t.Fatal(err)
		}
		patched := isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 6, Rs1: 6, Imm: 100})
		copy(win[isa.InstrBytes:], patched[:])
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	// 4000 iterations, +1 per iteration before the patch and +100 after:
	// any r6 above 4000 proves the DMA-written instruction executed.
	if got.regs[6] <= 4000 {
		t.Fatalf("r6 = %d, want > 4000 (DMA-patched increment must execute)", got.regs[6])
	}
}

// TestSuperblockBitFlipInBlockText flips one bit of a hot block's text
// mid-run — the fault-injection shape — and requires the corrupted
// instruction to execute (or trap) on the identical cycle batched and
// naive.
func TestSuperblockBitFlipInBlockText(t *testing.T) {
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1) // the flip target: imm 1 becomes imm 3
	b.Addi(6, 6, 1)
	b.Li(7, 3000)
	b.Blt(6, 7, "loop")
	b.Hlt()
	got := sbDifferential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProg(t, m, b)
		m.Run(300)
		if len(h.traps) != 0 {
			t.Fatalf("unexpected trap during warmup: %+v", h.traps)
		}
		// Flip bit 1 of the Addi immediate in place (imm 1 -> 3): the
		// immediate's low byte sits at offset 4 of the 8-byte encoding.
		if err := m.Mem().FlipBit(4, 1); err != nil {
			t.Fatal(err)
		}
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.regs[5] <= got.regs[6] {
		t.Fatalf("r5 = %d, r6 = %d: flipped increment never executed", got.regs[5], got.regs[6])
	}
}

// TestSuperblockIntermittentFaultMidBlock arms an intermittent stuck-at
// fault on a byte the hot loop keeps loading. Stuck bits keep no core off
// its blocks — a block's text is exact under them, as the execution cache's
// is — so the batched path must retire instructions during ON phases as
// well as OFF ones, with outcomes identical to naive stepping across
// several phase flips.
func TestSuperblockIntermittentFaultMidBlock(t *testing.T) {
	const dataPA = 0x8000
	b := asm.New()
	b.Li(3, dataPA)
	b.Li(2, 6000)
	b.Label("loop")
	b.Ld(8, 4, 3, 0) // reads the faulted byte's word
	b.Add(5, 5, 4)
	b.St(8, 3, 5, 8)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Hlt()
	sbDifferential(t, func(t *testing.T, m *Machine) coreSnapshot {
		if err := m.Mem().WriteU(dataPA, 8, 0x5A5A); err != nil {
			t.Fatal(err)
		}
		f := &IntermittentFault{Addr: dataPA, Bit: 2, Value: 1, OnCycles: 700, OffCycles: 900, Seed: 3}
		m.AddDevice(f)
		h := loadProg(t, m, b)
		_ = m.RunUntil(f.On, 1_000_000)
		before := m.SuperblockStats().BlockInstrs
		_ = m.RunUntil(func() bool { return !f.On() }, 1_000_000)
		if m.SuperblockEnabled() && m.SuperblockStats().BlockInstrs == before {
			t.Fatal("no block instruction retired during the first ON phase")
		}
		run(t, m, h)
		return takeSnapshot(m, h)
	})
}

// TestSuperblockParkReleaseAtBatchEntry is the regression test for a
// batch-entry credit racing a park release: a trap late in one cycle's
// rotation flips a parked core's condition, and the batch that starts
// immediately afterwards must not bulk-charge the executing core's long
// stall before re-evaluating the rider's condition — naive stepping wakes
// the rider on the very next cycle, and the batch must too. The handler
// releases the rider through its watched page (a store), or through a
// kernel-side flag, which only the trap's park-epoch bump announces.
func TestSuperblockParkReleaseAtBatchEntry(t *testing.T) {
	const flagPA = 0x9000
	type outcome struct {
		wakeCycles, wakeNow uint64
		final               coreSnapshot
	}
	// The race only bites when the rider's rotation slot in the trap cycle
	// comes before the trapping core's, so its condition is first
	// re-evaluated the cycle after — pad the lead-in to sweep every
	// rotation phase for the trap cycle.
	scenario := func(on, page bool, pad int) outcome {
		b := asm.New()
		for i := 0; i < pad; i++ {
			b.Addi(6, 6, 1)
		}
		b.Fsin(5, 1) // long FPTrans stall so the block is batch-friendly
		b.Syscall(1) // the release: the handler sets the rider's flag
		b.Fsin(5, 5) // long stall immediately after the trap: jump bait
		b.Fsin(5, 5)
		b.Hlt()
		m := New(noJitter(X86()), 1<<16)
		m.SetSuperblock(on)
		var out outcome
		released := false // the kernel-side flag
		h := &testHandler{}
		prog, err := b.Assemble(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
			t.Fatal(err)
		}
		m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
			if tr.Kind == TrapSyscall {
				// Kernel work: publish the release flag the rider spins on,
				// charge the syscall cost, and resume user code.
				if err := m.Mem().WriteU(flagPA, 8, 1); err != nil {
					t.Fatal(err)
				}
				released = true
				c.AddStall(m.Profile().Costs.KernelEntry)
				return
			}
			h.HandleTrap(c, tr)
		}))
		m.StartCore(0, 0, flatAS(m.Mem().Size()))
		rider := m.Core(1)
		cond, watch := func() bool { return released }, (*uint64)(nil)
		if page {
			cond = func() bool {
				v, _ := m.Mem().ReadU(flagPA, 8)
				return v != 0
			}
			watch = m.Mem().PageGen(flagPA, 8)
		}
		rider.Park(cond, func() {
			out.wakeCycles, out.wakeNow = rider.Cycles, m.Now()
			rider.Halt()
		}, 1<<40, watch) // far time bound; the real wake is the flag
		run(t, m, h)
		out.final = takeSnapshot(m, h)
		return out
	}
	for _, page := range []bool{true, false} {
		for pad := 0; pad < 4; pad++ {
			fast := scenario(true, page, pad)
			var naive outcome
			parkShadowed(t, func() { naive = scenario(false, page, pad) })
			if fast.wakeCycles != naive.wakeCycles || fast.wakeNow != naive.wakeNow {
				t.Fatalf("page %v, pad %d: rider wake diverged: batched=(%d,%d) naive=(%d,%d)",
					page, pad, fast.wakeCycles, fast.wakeNow, naive.wakeCycles, naive.wakeNow)
			}
			assertSameSnapshot(t, fast.final, naive.final)
		}
	}
}

// mailboxDevice models the NIC's DMA handshake: it delivers a payload
// into RAM whenever the flag word reads zero, so its NextEvent answer
// depends on memory the guest writes with plain stores. WatchedMem
// declares the dependence; without it the batch would run past the
// guest's flag-clearing store on a stale horizon.
type mailboxDevice struct {
	mem            *Mem
	flagPA, dataPA uint64
	pending        int
	deliveries     []uint64 // cycle of each delivery
}

func (d *mailboxDevice) Tick(m *Machine) {
	if d.pending == 0 {
		return
	}
	if v, _ := d.mem.ReadU(d.flagPA, 8); v == 0 {
		_ = d.mem.WriteU(d.dataPA, 8, uint64(100+d.pending))
		_ = d.mem.WriteU(d.flagPA, 8, 1)
		d.pending--
		d.deliveries = append(d.deliveries, m.Now())
	}
}

func (d *mailboxDevice) WatchedMem() (uint64, uint64) { return d.flagPA, d.flagPA + 8 }

func (d *mailboxDevice) NextEvent(now uint64) uint64 {
	if d.pending == 0 {
		return NoEvent
	}
	if v, _ := d.mem.ReadU(d.flagPA, 8); v != 0 {
		// Mailbox occupied: delivery waits on the guest clearing the
		// flag, which WatchedMem declares.
		return NoEvent
	}
	return now + 1
}

// TestSuperblockMemWatcherStore is the regression test for device
// horizons that depend on guest-written RAM: the hot loop clears the
// mailbox flag with a plain store mid-batch, and the device must deliver
// on exactly the cycle naive stepping would — the store makes the batch
// re-derive its device horizon so the next Tick observes it on schedule.
func TestSuperblockMemWatcherStore(t *testing.T) {
	const flagPA, dataPA = 0x9000, 0x9008
	b := asm.New()
	b.Li(3, flagPA)
	b.Li(2, 5000)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Mul(6, 1, 1)
	b.Li(7, 2500)
	b.Bne(1, 7, "skip")
	b.St(8, 3, 0, 0) // clear the flag mid-run: the device delivers next tick
	b.Label("skip")
	b.Blt(1, 2, "loop")
	b.Ld(8, 9, 3, 8) // read the delivered payload
	b.Hlt()
	type outcome struct {
		snap       coreSnapshot
		deliveries []uint64
	}
	scenario := func(on bool) outcome {
		m := New(X86(), 1<<16)
		m.SetSuperblock(on)
		// Mailbox occupied at boot: NextEvent answers NoEvent until the
		// guest's store clears the flag.
		if err := m.Mem().WriteU(flagPA, 8, 1); err != nil {
			t.Fatal(err)
		}
		dev := &mailboxDevice{mem: m.Mem(), flagPA: flagPA, dataPA: dataPA, pending: 1}
		m.AddDevice(dev)
		h := loadProg(t, m, b)
		run(t, m, h)
		return outcome{snap: takeSnapshot(m, h), deliveries: dev.deliveries}
	}
	fast, naive := scenario(true), scenario(false)
	assertSameSnapshot(t, fast.snap, naive.snap)
	if len(naive.deliveries) != 1 {
		t.Fatalf("naive run delivered %d times, want 1", len(naive.deliveries))
	}
	if len(fast.deliveries) != 1 || fast.deliveries[0] != naive.deliveries[0] {
		t.Fatalf("delivery cycles diverged: batched=%v naive=%v",
			fast.deliveries, naive.deliveries)
	}
	if fast.snap.regs[9] == 0 {
		t.Fatal("payload never read back")
	}
}

// TestSuperblockBranchWatchChase: the trailing replica of a closely-coupled
// pair chases the leader with a PMU branch watch while the leader spins
// parked. The chasing core keeps its blocks, runs solo beside the parked
// rider, and traps on the cycle, at the branch count and in the state naive
// stepping shows, for every distance to the target and with the firing
// branch alone in its block (the core stands on the terminator) or closing
// a register-only run (the promise before it is cut).
func TestSuperblockBranchWatchChase(t *testing.T) {
	scenario := func(sb bool, body, dist int) (obsEntry, SuperblockStats) {
		m := New(X86(), 1<<16)
		m.SetSuperblock(sb)
		b := asm.New()
		b.Li(5, 0)
		b.Label("loop")
		for i := 0; i < body; i++ {
			b.Addi(6, 6, int32(i+1))
		}
		b.Addi(5, 5, 1)
		b.J("loop")
		mustLoad(t, m, b, 0)
		var hit obsEntry
		m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
			if tr.Kind == TrapBranchWatch {
				hit = observe(m, "branch-watch")
			}
			c.Halt()
		}))
		as := flatAS(m.Mem().Size())
		m.StartCore(0, 0, as)
		c := m.Core(0)
		m.Run(uint64(37 * body)) // some way into the loop
		c.BranchWatch.Target, c.BranchWatch.Enabled = c.UserBranches+uint64(dist), true
		m.Core(1).Park(func() bool { return false }, nil, NoEvent, nil)
		_ = m.RunUntil(func() bool { return c.State == CoreHalted }, 100_000)
		return hit, m.SuperblockStats()
	}
	for _, body := range []int{0, 5} {
		var blockInstrs, soloRider uint64
		for dist := 1; dist <= 40; dist++ {
			fast, st := scenario(true, body, dist)
			naive, _ := scenario(false, body, dist)
			if fast != naive || fast.tag == "" {
				t.Fatalf("body %d, distance %d: batched %+v, naive %+v", body, dist, fast, naive)
			}
			blockInstrs += st.BlockInstrs
			soloRider += st.SoloRider
		}
		if blockInstrs == 0 || soloRider == 0 {
			t.Fatalf("body %d: %d block instructions, %d solo cycles beside the rider: the chase ran naively", body, blockInstrs, soloRider)
		}
	}
}

// TestSuperblockStallRunOnePromise runs an FP-stall run (fdiv, fmul, fadd,
// then a load from the core's private page) on two cores, each in an
// address space of its own. A promise is the run a core executed ahead, its
// stalls included, so each core covers its run with one promise, stopping
// before the load's miss, and one more after the miss; and after Run(n), for
// every n up to the program's end, the machine is where naive stepping
// leaves it.
func TestSuperblockStallRunOnePromise(t *testing.T) {
	b := asm.New()
	b.Nop() // core 0's first fetch misses here, core 1's on the fdiv
	b.Fdiv(6, 6, 1)
	b.Fmul(7, 6, 1)
	b.Fadd(8, 7, 1)
	b.Ld(8, 9, 0, 0x4000)
	b.Hlt()
	boot := func(prof Profile, sb bool) *Machine {
		m := New(prof, 1<<16)
		m.SetSuperblock(sb)
		loadProg(t, m, b)
		// Read-only text, and a private data page each.
		for i := range 2 {
			m.StartCore(i, uint64(i)*isa.InstrBytes, &AddrSpace{Segs: []Segment{
				{VBase: 0, PBase: 0, Size: 0x1000, Perm: PermR | PermX},
				{VBase: 0x4000, PBase: 0x4000 + uint64(i)*0x1000, Size: 0x1000, Perm: PermR | PermW},
			}})
		}
		return m
	}
	for _, prof := range []Profile{noJitter(X86()), X86()} {
		m := boot(prof, true)
		if err := m.RunUntil(m.AllHalted, 10_000); err != nil {
			t.Fatal(err)
		}
		end := m.Now()
		if p := m.SuperblockStats().Promises; prof.JitterShift == 63 && p != 4 {
			t.Fatalf("%d promises for two cores, want one per run and one per load miss: 4", p)
		}
		for n := uint64(1); n <= end; n++ {
			fast, naive := boot(prof, true), boot(prof, false)
			fast.Run(n)
			naive.Run(n)
			if f, g := (&idleScenario{m: fast}).render(), (&idleScenario{m: naive}).render(); f != g {
				t.Fatalf("jitter shift %d, after Run(%d) the engines diverged\n%s", prof.JitterShift, n, diffLine(f, g))
			}
		}
	}
}

// TestSuperblockSlotIndex runs a loop whose two blocks lie 2 KiB apart, so
// the PC bits just above the instruction offset alone would put them in one
// slot: folding the higher bits into the index, each is built once.
func TestSuperblockSlotIndex(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	a := asm.New()
	a.Addi(1, 1, 1)
	a.Raw(isa.Instr{Op: isa.OpJ, Imm: 0x1800})
	mustLoad(t, m, a, 0x1000)
	b := asm.New()
	b.Raw(isa.Instr{Op: isa.OpBlt, Rs1: 1, Rs2: 2, Imm: 0x1000})
	b.Hlt()
	mustLoad(t, m, b, 0x1800)
	h := &testHandler{}
	m.SetHandler(h)
	m.StartCore(0, 0x1000, flatAS(m.Mem().Size()))
	c := m.Core(0)
	c.Regs[2] = 1000
	run(t, m, h)
	if c.Regs[1] != 1000 {
		t.Fatalf("r1 = %d, want 1000", c.Regs[1])
	}
	if st := m.SuperblockStats(); st.Blocks != 3 {
		t.Fatalf("%d blocks built for the loop's two and the exit's one", st.Blocks)
	}
}

// TestRunAheadPrivacyMap pins which pages a run ahead of machine time may
// touch: data pages one core's address space alone maps, not executable,
// not device-watched, under no MMIO window; and text no other core maps
// writable. It also pins the rebuild when an address space changes.
func TestRunAheadPrivacyMap(t *testing.T) {
	m := New(noJitter(X86()), 1<<17)
	const rw, rx, rwx = PermR | PermW, PermR | PermX, PermR | PermW | PermX
	as0 := &AddrSpace{Segs: []Segment{
		{VBase: 0x1000, PBase: 0x1000, Size: 0x1000, Perm: rx},   // text, read-only
		{VBase: 0x2000, PBase: 0x2000, Size: 0x2000, Perm: rw},   // private data
		{VBase: 0x4000, PBase: 0x4000, Size: 0x1000, Perm: rw},   // shared with core 1
		{VBase: 0x5000, PBase: 0x5000, Size: 0x1000, Perm: rwx},  // own writable text
		{VBase: 0x6000, PBase: 0x6000, Size: 0x1000, Perm: rw},   // device-watched
		{VBase: 0x7000, PBase: 0x7000, Size: 0x1000, Perm: rw},   // an MMIO window
		{VBase: 0x8000, PBase: 0x1_0000, Size: 0x1000, Perm: rw}, // private, remapped
	}}
	as1 := &AddrSpace{Segs: []Segment{
		{VBase: 0x1000, PBase: 0x1000, Size: 0x1000, Perm: rx},
		{VBase: 0x4000, PBase: 0x4000, Size: 0x1000, Perm: rw},
		{VBase: 0x9000, PBase: 0x9000, Size: 0x1000, Perm: rwx}, // core 1's text, writable by it
	}}
	m.AddDevice(&watchOnly{lo: 0x6000, hi: 0x6008})
	m.MapMMIO(0x7000, 0x100, nopMMIO{})
	m.StartCore(0, 0x1000, as0)
	m.StartCore(1, 0x1000, as1)
	m.privRefresh()
	for _, tc := range []struct {
		pa           uint64
		data, writer uint8
	}{
		{0x1000, pgShared, 0},        // read-only text: runs of both fetch it, none stores
		{0x2000, 1, 1},               // core 0's private data
		{0x3000, 1, 1},               // ... its second page
		{0x4000, pgShared, pgShared}, // shared
		{0x5000, pgShared, 1},        // executable: no run stores there; core 0 may fetch it
		{0x6000, pgShared, 1},        // watched
		{0x7000, pgShared, 1},        // under an MMIO window
		{0x1_0000, 1, 1},             // physical pages count, not virtual ones
		{0x9000, pgShared, 2},        // core 1's writable text: core 0 may not fetch it ahead
		{0xa000, 0, 0},               // mapped by nobody
	} {
		p := tc.pa >> pageShift
		if m.pgData[p] != tc.data || m.pgWriter[p] != tc.writer {
			t.Errorf("page %#x: pgData %d pgWriter %d, want %d %d", tc.pa, m.pgData[p], m.pgWriter[p], tc.data, tc.writer)
		}
	}
	gen := m.privGen
	m.privRefresh()
	if m.privGen != gen {
		t.Fatal("the map was rebuilt with no address space changed")
	}
	as1.Map(Segment{VBase: 0xa000, PBase: 0x2000, Size: 0x1000, Perm: PermR})
	m.privRefresh()
	if m.privGen == gen || m.pgData[0x2] != pgShared || m.pgData[0x3] != 1 {
		t.Fatalf("after core 1 mapped core 0's page: gen %d → %d, pgData %d %d", gen, m.privGen, m.pgData[0x2], m.pgData[0x3])
	}
}

// watchOnly is a device that only watches RAM.
type watchOnly struct{ lo, hi uint64 }

func (watchOnly) Tick(*Machine)                  {}
func (watchOnly) NextEvent(uint64) uint64        { return NoEvent }
func (w watchOnly) WatchedMem() (uint64, uint64) { return w.lo, w.hi }

type nopMMIO struct{}

func (nopMMIO) MMIORead(uint64, int) uint64   { return 0 }
func (nopMMIO) MMIOWrite(uint64, int, uint64) {}

// TestRunAheadStuckBit pins the stuck-bit condition of a run ahead of
// machine time: core 1 keeps storing into its private page while core 0's
// syscalls stick a bit of that page and later clear it, which changes no
// byte and so no page generation. A store made ahead while the bit is stuck
// would be forced, and kept by a resumed run, where naive stepping stores
// after the clear; so no run may touch a page while a bit in it is stuck.
func TestRunAheadStuckBit(t *testing.T) {
	const data1 = 0x11000
	scenario := func(sb bool) string {
		m := New(noJitter(X86()), 1<<17)
		m.SetSuperblock(sb)
		m.SetExecCache(sb)
		calls := 0
		m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
			switch calls++; calls % 3 {
			case 1:
				_ = m.Mem().SetStuck(data1, 0, 1)
			case 2:
				m.Mem().ClearStuck(data1, 0)
			}
		}))
		a := asm.New()
		a.Label("loop")
		for i := 0; i < 40; i++ {
			a.Addi(4, 4, 3)
		}
		a.Syscall(1)
		a.J("loop")
		mustLoad(t, m, a, 0x1000)
		b := asm.New()
		b.Li64(3, data1)
		b.Label("loop")
		b.Addi(5, 5, 1)
		b.St(8, 3, 5, 0)
		b.Ld(8, 6, 3, 0)
		b.Add(7, 7, 6)
		b.J("loop")
		mustLoad(t, m, b, 0x2000)
		text := func(pa uint64) Segment { return Segment{VBase: pa, PBase: pa, Size: 0x1000, Perm: PermR | PermX} }
		m.StartCore(0, 0x1000, &AddrSpace{Segs: []Segment{text(0x1000)}})
		m.StartCore(1, 0x2000, &AddrSpace{Segs: []Segment{text(0x2000),
			{VBase: data1, PBase: data1, Size: 0x1000, Perm: PermR | PermW}}})
		var out strings.Builder
		for _, n := range []uint64{700, 1, 333, 2000, 57, 4000} {
			m.Run(n)
			for i := 0; i < 2; i++ {
				c := m.Core(i)
				fmt.Fprintf(&out, "%d: %d %d %#x %v\n", i, c.Cycles, c.Instructions, c.PC, c.Regs)
			}
			out.WriteString(memState(m))
		}
		return out.String()
	}
	if f, n := scenario(true), scenario(false); f != n {
		t.Fatalf("the engines diverged\n%s", diffLine(f, n))
	}
}

// TestRunAheadDirtyUndo pins the dirty bits in a run's undo log: core 1
// stores into a resident clean line only once its counter reaches 150, which
// a run ahead of machine time reaches and machine time never does, since
// every syscall of core 0 resets the counter. The handler's register write
// drops the run, and with it the dirty bit that store set.
func TestRunAheadDirtyUndo(t *testing.T) {
	const data1 = 0x11000
	scenario := func(sb bool) string {
		m := New(noJitter(X86()), 1<<17)
		m.SetSuperblock(sb)
		m.SetExecCache(sb)
		m.SetHandler(handlerFunc(func(c *Core, tr Trap) { m.Core(1).Regs[5] = 0 }))
		a := asm.New()
		a.Label("loop")
		for i := 0; i < 40; i++ {
			a.Addi(4, 4, 3)
		}
		a.Syscall(1)
		a.J("loop")
		mustLoad(t, m, a, 0x1000)
		b := asm.New()
		b.Li64(3, data1)
		b.Li(10, 150)
		b.Ld(8, 6, 3, 0x100) // the line the store would dirty, resident and clean
		b.Label("loop")
		b.Addi(5, 5, 1)
		b.Bne(5, 10, "loop")
		b.St(8, 3, 5, 0x100)
		b.J("loop")
		mustLoad(t, m, b, 0x2000)
		text := func(pa uint64) Segment { return Segment{VBase: pa, PBase: pa, Size: 0x1000, Perm: PermR | PermX} }
		m.StartCore(0, 0x1000, &AddrSpace{Segs: []Segment{text(0x1000)}})
		m.StartCore(1, 0x2000, &AddrSpace{Segs: []Segment{text(0x2000),
			{VBase: data1, PBase: data1, Size: 0x1000, Perm: PermR | PermW}}})
		var out strings.Builder
		for _, n := range []uint64{700, 1, 333, 2000, 57, 4000} {
			m.Run(n)
			for i := 0; i < 2; i++ {
				c := m.Core(i)
				fmt.Fprintf(&out, "%d: %d %d %#x %v\n", i, c.Cycles, c.Instructions, c.PC, c.Regs)
			}
			out.WriteString(memState(m))
		}
		if st := m.SuperblockStats(); sb && (st.Ahead == 0 || st.Rewound.Trap == 0) {
			t.Fatalf("no run ahead was dropped at a trap: %+v", st)
		}
		return out.String()
	}
	if f, n := scenario(true), scenario(false); f != n {
		t.Fatalf("the engines diverged\n%s", diffLine(f, n))
	}
}

// TestRunAheadRemapDropsRun pins the address-space key in resume. Core 0
// traps on a zero divisor, which nothing predicts, so core 1's run is ahead
// when it does, and RunUntil ends the batch there: the run is rewound. The
// host then swaps the virtual addresses of core 1's two private data pages
// in place and calls Invalidate. The same physical pages stay private to
// core 1 the same way, so the privacy map is not rebuilt and the pages the
// run touched keep their generations; only the address space's key tells
// that the run loaded through translations that no longer hold. The run
// must be dropped, and the machine must go on as naive stepping does.
func TestRunAheadRemapDropsRun(t *testing.T) {
	const dataA, dataB = 0x11000, 0x12000
	scenario := func(sb bool) string {
		m := New(noJitter(X86()), 1<<17)
		m.SetSuperblock(sb)
		m.SetExecCache(sb)
		traps := 0
		m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
			traps++
			if tr.Kind == TrapDivZero {
				c.PC += isa.InstrBytes
			}
		}))
		a := asm.New()
		a.Label("loop")
		for i := 0; i < 40; i++ {
			a.Addi(4, 4, 3)
		}
		a.Div(5, 4, 0)
		a.J("loop")
		mustLoad(t, m, a, 0x1000)
		b := asm.New()
		b.Li64(3, dataA)
		b.Label("loop")
		b.Ld(8, 6, 3, 0)
		b.Add(7, 7, 6)
		b.St(8, 3, 7, 8)
		b.J("loop")
		mustLoad(t, m, b, 0x2000)
		for pa, v := range map[uint64]uint64{dataA: 5, dataB: 9} {
			if err := m.Mem().WriteU(pa, 8, v); err != nil {
				t.Fatal(err)
			}
		}
		text := func(pa uint64) Segment { return Segment{VBase: pa, PBase: pa, Size: 0x1000, Perm: PermR | PermX} }
		as1 := &AddrSpace{Segs: []Segment{text(0x2000),
			{VBase: dataA, PBase: dataA, Size: 0x1000, Perm: PermR | PermW},
			{VBase: dataB, PBase: dataB, Size: 0x1000, Perm: PermR | PermW}}}
		m.StartCore(0, 0x1000, &AddrSpace{Segs: []Segment{text(0x1000)}})
		m.StartCore(1, 0x2000, as1)
		var out strings.Builder
		render := func() {
			fmt.Fprintf(&out, "now=%d traps=%d\n", m.Now(), traps)
			for i := 0; i < 2; i++ {
				c := m.Core(i)
				fmt.Fprintf(&out, "%d: %d %d %#x %v\n", i, c.Cycles, c.Instructions, c.PC, c.Regs)
			}
			out.WriteString(memState(m))
		}
		m.Run(300)
		k := traps
		_ = m.RunUntil(func() bool { return traps > k }, 1000)
		render()
		if sb {
			st := &m.sbRun[1]
			if !st.back || st.promise == 0 {
				t.Fatalf("core 1 holds no rewound run after the trap: back %v, promise %d", st.back, st.promise)
			}
			promise, gen := st.promise, m.privGen
			as1.Segs[1].VBase, as1.Segs[2].VBase = dataB, dataA
			as1.Invalidate()
			before := m.SuperblockStats().Rewound.Exit
			m.Run(1000)
			if m.privGen != gen {
				t.Fatal("a virtual remap rebuilt the privacy map")
			}
			if got := m.SuperblockStats().Rewound.Exit - before; got != promise {
				t.Fatalf("%d cycles of the remapped core's %d-cycle run were undone for good: it resumed", got, promise)
			}
		} else {
			as1.Segs[1].VBase, as1.Segs[2].VBase = dataB, dataA
			as1.Invalidate()
			m.Run(1000)
		}
		render()
		for _, n := range []uint64{333, 2000, 57, 4000} {
			m.Run(n)
			render()
		}
		return out.String()
	}
	if f, n := scenario(true), scenario(false); f != n {
		t.Fatalf("the engines diverged\n%s", diffLine(f, n))
	}
}
