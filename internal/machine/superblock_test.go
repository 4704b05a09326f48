package machine

import (
	"fmt"
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
