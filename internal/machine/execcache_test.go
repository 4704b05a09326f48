package machine

import (
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// The execution cache is a host-side memoisation: every test here runs
// the same scenario with the cache on and off and requires bit-identical
// simulated outcomes. Each scenario targets one invalidation path —
// guest stores into text (self-modifying code), host bit-flips (fault
// injection), DMA windows, and address-space remaps.

// coreSnapshot captures everything architecturally observable about a
// finished single-core run.
type coreSnapshot struct {
	regs         [32]uint64
	pc           uint64
	cycles       uint64
	instructions uint64
	traps        []Trap
}

func takeSnapshot(m *Machine, h *testHandler) coreSnapshot {
	c := m.Core(0)
	return coreSnapshot{
		regs:         c.Regs,
		pc:           c.PC,
		cycles:       c.Cycles,
		instructions: c.Instructions,
		traps:        h.traps,
	}
}

func assertSameSnapshot(t *testing.T, cached, naive coreSnapshot) {
	t.Helper()
	if cached.regs != naive.regs {
		t.Fatalf("registers diverged:\ncached: %v\nnaive:  %v", cached.regs, naive.regs)
	}
	if cached.pc != naive.pc || cached.cycles != naive.cycles || cached.instructions != naive.instructions {
		t.Fatalf("counters diverged:\ncached: pc=%#x cycles=%d instr=%d\nnaive:  pc=%#x cycles=%d instr=%d",
			cached.pc, cached.cycles, cached.instructions, naive.pc, naive.cycles, naive.instructions)
	}
	if len(cached.traps) != len(naive.traps) {
		t.Fatalf("trap counts diverged: cached=%d naive=%d", len(cached.traps), len(naive.traps))
	}
	for i := range cached.traps {
		if cached.traps[i] != naive.traps[i] {
			t.Fatalf("trap %d diverged:\ncached: %+v\nnaive:  %+v", i, cached.traps[i], naive.traps[i])
		}
	}
}

// differential runs trial twice — execution cache on, then off — and
// requires identical snapshots. It returns the cached-run snapshot for
// scenario-specific assertions.
func differential(t *testing.T, trial func(t *testing.T, m *Machine) coreSnapshot) coreSnapshot {
	t.Helper()
	run := func(on bool) coreSnapshot {
		m := New(noJitter(X86()), 1<<16)
		m.SetExecCache(on)
		return trial(t, m)
	}
	cached, naive := run(true), run(false)
	assertSameSnapshot(t, cached, naive)
	return cached
}

// TestExecCacheSelfModifyingCode executes an instruction, overwrites its
// bytes with a guest store, and executes it again: the second execution
// must see the new instruction even though the old one is predecoded.
func TestExecCacheSelfModifyingCode(t *testing.T) {
	patched := isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: 100})
	var raw uint64
	for i := 7; i >= 0; i-- {
		raw = raw<<8 | uint64(patched[i])
	}
	b := asm.New()
	b.Li(1, 0) // pass counter
	b.Li64(2, raw)
	b.LiLabel(3, "patch")
	b.Label("loop")
	b.Label("patch")
	b.Addi(5, 5, 1) // the patch site: first pass +1, second pass +100
	b.Li(6, 1)
	b.Beq(1, 6, "done")
	b.Li(1, 1)
	b.St(8, 3, 2, 0) // overwrite the patch site
	b.J("loop")
	b.Label("done")
	b.Hlt()

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProg(t, m, b)
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.regs[5] != 101 {
		t.Fatalf("r5 = %d, want 101 (second pass must execute the patched instruction)", got.regs[5])
	}
}

// TestExecCacheBitFlipInText predecodes a loop body, then injects a
// bit-flip into the opcode byte of a live instruction (the fault
// injector's Mem.FlipBit path). The flip lands mid-run, exactly as the
// campaigns do it, and must trap identically with the cache on and off.
func TestExecCacheBitFlipInText(t *testing.T) {
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1)
	b.J("loop")

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProg(t, m, b)
		m.Run(1000) // warm the predecode cache on both loop instructions
		if len(h.traps) != 0 {
			t.Fatalf("unexpected trap during warmup: %+v", h.traps)
		}
		// Flip a high bit of the Addi opcode byte at address 0: the
		// resulting opcode is out of range, so decode must now fail.
		if err := m.Mem().FlipBit(0, 7); err != nil {
			t.Fatal(err)
		}
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.traps[0].Kind != TrapIllegal {
		t.Fatalf("trap = %v, want illegal instruction", got.traps[0].Kind)
	}
	if got.traps[0].PC != 0 {
		t.Fatalf("trap pc = %#x, want 0 (the flipped instruction)", got.traps[0].PC)
	}
}

// TestExecCacheDMAInvalidation overwrites a predecoded instruction
// through a Mem.Slice window — the zero-copy DMA path that bypasses
// Write — and checks the next execution decodes the new bytes.
func TestExecCacheDMAInvalidation(t *testing.T) {
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1) // the patch target: +1 becomes +100 mid-run
	b.Addi(6, 6, 1) // iteration counter, bounds the loop
	b.Li(7, 100)
	b.Blt(6, 7, "loop")
	b.Hlt()

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		h := loadProg(t, m, b)
		m.Run(200) // warm the cache some iterations in
		if len(h.traps) != 0 {
			t.Fatalf("unexpected trap during warmup: %+v", h.traps)
		}
		// DMA new bytes over the loop increment through a Slice window.
		win, err := m.Mem().Slice(0, isa.InstrBytes)
		if err != nil {
			t.Fatal(err)
		}
		enc := isa.Encode(isa.Instr{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: 100})
		copy(win, enc[:])
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.traps[0].Kind != TrapHalt {
		t.Fatalf("trap = %v, want halt", got.traps[0].Kind)
	}
	// 100 iterations, +1 each before the patch and +100 each after: any
	// value above 100 proves the DMA-written increment executed.
	if got.regs[5] <= 100 {
		t.Fatalf("r5 = %d, want > 100 (DMA-patched increment must execute)", got.regs[5])
	}
}

// TestExecCacheRemapInvalidation retargets a segment mid-run (the
// downgrade/re-integration remap shape) and checks the translation memo
// drops the stale mapping: loads after the remap must read through the
// new physical base with identical results cache on and off.
func TestExecCacheRemapInvalidation(t *testing.T) {
	const dataVA = 0x8000
	b := asm.New()
	b.Li(1, dataVA)
	b.Label("loop")
	b.Ld(8, 5, 1, 0) // r5 = mem[dataVA]
	b.Addi(6, 6, 1)
	b.Li(7, 200)
	b.Blt(6, 7, "loop")
	b.Hlt()

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		prog, err := b.Assemble(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
			t.Fatal(err)
		}
		// Two physical copies of the data word; the segment starts on A.
		if err := m.Mem().WriteU(0xA000, 8, 111); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().WriteU(0xB000, 8, 222); err != nil {
			t.Fatal(err)
		}
		as := &AddrSpace{Segs: []Segment{
			{VBase: 0, PBase: 0, Size: 0x4000, Perm: PermR | PermX},
			{VBase: dataVA, PBase: 0xA000, Size: 0x1000, Perm: PermR | PermW},
		}}
		h := &testHandler{}
		m.SetHandler(h)
		m.StartCore(0, 0, as)
		m.Run(300) // some loop iterations against physical copy A
		if len(h.traps) != 0 {
			t.Fatalf("unexpected trap during warmup: %+v", h.traps)
		}
		as.Segs[1].PBase = 0xB000
		as.Invalidate()
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.regs[5] != 222 {
		t.Fatalf("r5 = %d, want 222 (loads after remap must read copy B)", got.regs[5])
	}
}

// TestExecCacheOverlapFallback puts two overlapping segments in the
// address space — first-match order decides the translation — and checks
// the memo never short-circuits to the wrong segment.
func TestExecCacheOverlapFallback(t *testing.T) {
	const dataVA = 0x8000
	b := asm.New()
	b.Li(1, dataVA)
	b.Label("loop")
	b.Ld(8, 5, 1, 0)
	b.Addi(6, 6, 1)
	b.Li(7, 40)
	b.Bne(6, 7, "loop")
	b.Hlt()

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		prog, err := b.Assemble(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().WriteU(0xA000, 8, 111); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem().WriteU(0xB000, 8, 222); err != nil {
			t.Fatal(err)
		}
		// The data VA is covered by both segments; Translate's ordered
		// scan must win (copy A), with or without memoisation.
		as := &AddrSpace{Segs: []Segment{
			{VBase: 0, PBase: 0, Size: 0x4000, Perm: PermR | PermX},
			{VBase: dataVA, PBase: 0xA000, Size: 0x1000, Perm: PermR | PermW},
			{VBase: dataVA, PBase: 0xB000, Size: 0x1000, Perm: PermR | PermW},
		}}
		h := &testHandler{}
		m.SetHandler(h)
		m.StartCore(0, 0, as)
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.regs[5] != 111 {
		t.Fatalf("r5 = %d, want 111 (first matching segment must win)", got.regs[5])
	}
}

// TestExecCacheHitPathAllocFree verifies that a warm hot loop executes
// with zero host allocations per instruction, and that with the superblock
// engine off a fresh core's first Run allocates nothing: the translation
// memo is part of the core.
func TestExecCacheHitPathAllocFree(t *testing.T) {
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1)
	b.St(8, 2, 5, 0x4000) // keep a store in the loop: WriteU is on the hit path too
	b.Ld(8, 6, 2, 0x4000)
	b.J("loop")

	m := New(noJitter(X86()), 1<<16)
	m.SetExecCache(true)
	h := loadProg(t, m, b)
	m.Run(10_000) // warm up: memo fills, lazy allocations done
	if len(h.traps) != 0 {
		t.Fatalf("unexpected trap during warmup: %+v", h.traps)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Run(5_000) }); allocs != 0 {
		t.Fatalf("warm hot loop allocates: %v allocs per 5k cycles, want 0", allocs)
	}

	t.Run("first-run-naive", func(t *testing.T) {
		// Each measured run starts on a core that has never executed.
		var ms []*Machine
		for i := 0; i < 11; i++ {
			m := New(noJitter(X86()), 1<<16)
			m.SetExecCache(true)
			m.SetSuperblock(false)
			loadProg(t, m, b)
			ms = append(ms, m)
		}
		next := 0
		if allocs := testing.AllocsPerRun(10, func() { ms[next].Run(1_000); next++ }); allocs != 0 {
			t.Fatalf("a fresh core's first Run allocates: %v allocs, want 0", allocs)
		}
	})
}

// TestExecCacheStatsCount sanity-checks the host-side counters: a warm
// loop's data translations should be overwhelmingly memo hits, and no
// fetch is counted as a decode hit or miss, since fetch has no memo.
func TestExecCacheStatsCount(t *testing.T) {
	m := New(noJitter(X86()), 1<<16)
	m.SetExecCache(true)
	m.SetSuperblock(false)
	b := asm.New()
	b.Label("loop")
	b.Addi(5, 5, 1)
	b.St(8, 2, 5, 0x4000) // data access: exercises the dTLB memo
	b.J("loop")
	h := loadProg(t, m, b)
	m.Run(50_000)
	if len(h.traps) != 0 {
		t.Fatalf("unexpected trap: %+v", h.traps)
	}
	s := m.ExecCacheStats()
	if s.TLBHits.Value() == 0 {
		t.Fatalf("no memo hits recorded: %+v", s)
	}
	if rate := s.TLBHitRate(); rate < 0.99 {
		t.Fatalf("tlb hit rate %.4f, want ≈1 for a tight loop", rate)
	}
	if s.DecodeHits.Value() != 0 || s.DecodeMisses.Value() != 0 {
		t.Fatalf("decode counters read %d/%d, want 0/0: fetch has no memo",
			s.DecodeHits.Value(), s.DecodeMisses.Value())
	}
}

// TestAddrSpaceKeyGeneration edits segments in place and calls Invalidate,
// which moves only the address space's generation: identity and segment
// count stay. A memo keyed on the space must still miss. A block decoded
// from the old text mapping must not run after the text segment moves to
// another physical copy, and the translation memo must not keep a data
// segment that an edit has put behind an earlier, overlapping one.
func TestAddrSpaceKeyGeneration(t *testing.T) {
	const dataVA = 0x9000
	t.Run("text-remap", func(t *testing.T) {
		body := func(imm int32) []byte {
			b := asm.New()
			b.Label("loop")
			b.Addi(5, 5, imm)
			b.Addi(6, 6, 1)
			b.Li(7, 400)
			b.Blt(6, 7, "loop")
			b.Hlt()
			prog, err := b.Assemble(0)
			if err != nil {
				t.Fatal(err)
			}
			return isa.EncodeProgram(prog)
		}
		got := sbDifferential(t, func(t *testing.T, m *Machine) coreSnapshot {
			// Two physical copies of the loop that differ in one immediate.
			if err := m.Mem().Write(0, body(1)); err != nil {
				t.Fatal(err)
			}
			if err := m.Mem().Write(0x2000, body(100)); err != nil {
				t.Fatal(err)
			}
			as := &AddrSpace{Segs: []Segment{{VBase: 0, PBase: 0, Size: 0x1000, Perm: PermR | PermX}}}
			h := &testHandler{}
			m.SetHandler(h)
			m.StartCore(0, 0, as)
			m.Run(300)
			if len(h.traps) != 0 {
				t.Fatalf("unexpected trap during warmup: %+v", h.traps)
			}
			as.Segs[0].PBase = 0x2000
			as.Invalidate()
			run(t, m, h)
			return takeSnapshot(m, h)
		})
		if got.regs[5] == 400 {
			t.Fatalf("r5 = %d after 400 iterations: the loop never ran the remapped copy", got.regs[5])
		}
	})
	t.Run("overlap-remap", func(t *testing.T) {
		b := asm.New()
		b.Li(1, dataVA)
		b.Label("loop")
		b.Ld(8, 5, 1, 0) // r5 = mem[dataVA]
		b.Addi(6, 6, 1)
		b.Li(7, 200)
		b.Blt(6, 7, "loop")
		b.Hlt()
		got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
			prog, err := b.Assemble(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
				t.Fatal(err)
			}
			if err := m.Mem().WriteU(0xA000, 8, 111); err != nil {
				t.Fatal(err)
			}
			if err := m.Mem().WriteU(0xB000, 8, 222); err != nil {
				t.Fatal(err)
			}
			as := &AddrSpace{Segs: []Segment{
				{VBase: 0, PBase: 0, Size: 0x4000, Perm: PermR | PermX},
				{VBase: dataVA - 0x1000, PBase: 0xA000, Size: 0x1000, Perm: PermR | PermW},
				{VBase: dataVA, PBase: 0xB000, Size: 0x1000, Perm: PermR | PermW},
			}}
			h := &testHandler{}
			m.SetHandler(h)
			m.StartCore(0, 0, as)
			m.Run(300) // loads resolve through the third segment: copy B
			if len(h.traps) != 0 {
				t.Fatalf("unexpected trap during warmup: %+v", h.traps)
			}
			as.Segs[1].VBase = dataVA // the second segment now covers dataVA first
			as.Invalidate()
			run(t, m, h)
			return takeSnapshot(m, h)
		})
		if got.regs[5] != 111 {
			t.Fatalf("r5 = %d, want 111 (the first matching segment wins after the edit)", got.regs[5])
		}
	})
}
