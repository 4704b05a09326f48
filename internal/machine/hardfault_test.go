package machine

import (
	"bytes"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/snapshot"
)

// TestStuckBitSurvivesMutation pins the hard-fault invariant: a stuck-at
// bit is re-asserted after every mutation path, so no overwrite — plain
// writes, fills, moves, flips, or DMA through a Slice window — can clear
// it, and every read path observes the asserted value.
func TestStuckBitSurvivesMutation(t *testing.T) {
	m := NewMem(1 << 16)
	const addr = 0x1008
	if err := m.SetStuck(addr, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStuck(addr, 0, 0); err != nil {
		t.Fatal(err)
	}
	want := func(written byte) byte { return (written | 0x08) &^ 0x01 }

	check := func(step string, written byte) {
		t.Helper()
		v, err := m.ReadU(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if byte(v) != want(written) {
			t.Fatalf("%s: byte = %#02x, want %#02x", step, v, want(written))
		}
	}

	if err := m.Write(addr, []byte{0xF7}); err != nil {
		t.Fatal(err)
	}
	check("Write", 0xF7)
	if err := m.WriteU(addr, 8, 0); err != nil {
		t.Fatal(err)
	}
	check("WriteU", 0x00)
	if err := m.Fill(addr-8, 32, 0xFF); err != nil {
		t.Fatal(err)
	}
	check("Fill", 0xFF)
	if err := m.Write(addr+0x100, []byte{0x55}); err != nil {
		t.Fatal(err)
	}
	if err := m.Move(addr, addr+0x100, 1); err != nil {
		t.Fatal(err)
	}
	check("Move", 0x55)
	if err := m.FlipBit(addr, 3); err != nil {
		t.Fatal(err)
	}
	check("FlipBit", want(0x55)^0x08)
	// DMA bypass: write zero through a Slice window, then read back — the
	// read path must re-assert the stuck bits the window write cleared.
	win, err := m.Slice(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	win[0] = 0
	check("Slice", 0x00)

	// Repair: after ClearStuck the byte behaves normally again.
	m.ClearStuck(addr, 3)
	m.ClearStuck(addr, 0)
	if m.StuckBits() != 0 {
		t.Fatalf("StuckBits = %d after clearing both", m.StuckBits())
	}
	if err := m.Write(addr, []byte{0x01}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU(addr, 1); v != 0x01 {
		t.Fatalf("after ClearStuck: byte = %#02x, want 0x01", v)
	}
}

// TestStuckBitReadTimingInvisible: after a Slice window write clears a stuck
// bit, whether a read re-asserted it before a snapshot save or ClearStuck
// must not show — the superblock engine reads text ahead of naive fetches.
func TestStuckBitReadTimingInvisible(t *testing.T) {
	var saved [2][]byte
	var after [2]uint64
	for i := range saved {
		m := New(X86(), 1<<16)
		_ = m.Mem().SetStuck(0x100, 2, 1)
		win, _ := m.Mem().Slice(0x100, 1)
		win[0] = 0
		if i == 1 {
			_, _ = m.Mem().ReadU(0x100, 1)
		}
		saved[i], _ = snapshot.Save(m)
		m.Mem().ClearStuck(0x100, 2)
		after[i], _ = m.Mem().ReadU(0x100, 1)
	}
	if !bytes.Equal(saved[0], saved[1]) || after != [2]uint64{4, 4} {
		t.Fatalf("read timing shows: saves equal %v, bytes after ClearStuck %v, want [4 4]",
			bytes.Equal(saved[0], saved[1]), after)
	}
}

// TestStuckBitExecCache is the invisibility test for hard faults: a stuck
// bit planted mid-run in the opcode byte of a predecoded instruction must
// trap identically with the execution cache on and off. SetStuck bumps
// the page generation, so the predecoded entry is dropped and the
// re-decode reads the asserted (corrupt) byte.
func TestStuckBitExecCache(t *testing.T) {
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
		// Stick the high bit of the Addi opcode byte at 1: the opcode
		// leaves the valid range and decode must fail — persistently.
		if err := m.Mem().SetStuck(0, 7, 1); err != nil {
			t.Fatal(err)
		}
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.traps[0].Kind != TrapIllegal {
		t.Fatalf("trap = %v, want illegal instruction", got.traps[0].Kind)
	}
	if got.traps[0].PC != 0 {
		t.Fatalf("trap pc = %#x, want 0 (the stuck instruction)", got.traps[0].PC)
	}
}

// TestStuckBitGuestStoreCannotClear runs a guest that stores a clean value
// over a stuck byte and loads it back: the load must observe the stuck
// bit, because the store's re-assertion happens before any consumer reads.
func TestStuckBitGuestStoreCannotClear(t *testing.T) {
	const dataAddr = 0x8000
	b := asm.New()
	b.Li(1, dataAddr)
	b.Li(2, 0) // the "clean" value the guest writes
	b.St(8, 1, 2, 0)
	b.Ld(8, 3, 1, 0) // must read back the stuck bits, not zero
	b.Hlt()

	got := differential(t, func(t *testing.T, m *Machine) coreSnapshot {
		if err := m.Mem().SetStuck(dataAddr, 5, 1); err != nil {
			t.Fatal(err)
		}
		h := loadProg(t, m, b)
		run(t, m, h)
		return takeSnapshot(m, h)
	})
	if got.regs[3] != 1<<5 {
		t.Fatalf("loaded %#x, want %#x (stuck bit asserted through the store)", got.regs[3], uint64(1)<<5)
	}
}

// TestIntermittentFaultDeterministic runs the duty-cycled fault twice on
// identical machines and requires the identical toggle trace — the
// campaigns depend on seeded reproducibility — and that it actually
// toggles both ways within its default phase lengths.
func TestIntermittentFaultDeterministic(t *testing.T) {
	trace := func() []bool {
		m := New(noJitter(X86()), 1<<16)
		f := &IntermittentFault{Addr: 0x2000, Bit: 2, Value: 1, Seed: 42}
		m.AddDevice(f)
		b := asm.New()
		b.Label("loop")
		b.Addi(5, 5, 1)
		b.J("loop")
		loadProg(t, m, b)
		var states []bool
		for i := 0; i < 300; i++ {
			m.Run(1000)
			states = append(states, f.On())
		}
		return states
	}
	a, b := trace(), trace()
	var ons, offs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("toggle trace diverged at sample %d", i)
		}
		if a[i] {
			ons++
		} else {
			offs++
		}
	}
	if ons == 0 || offs == 0 {
		t.Fatalf("fault never toggled: on=%d off=%d samples", ons, offs)
	}
}

// TestBusStarvation pins the arbiter-fault model: the starved core is
// denied every grant without ever head-blocking the FIFO, so its peers
// keep their full bandwidth.
func TestBusStarvation(t *testing.T) {
	b := newBus(8)
	b.starve = 1
	var grants [2]int
	for cyc := 0; cyc < 10_000; cyc++ {
		b.tick()
		for core := 0; core < 2; core++ {
			if b.take(core, 64) {
				grants[core]++
			}
		}
	}
	if grants[1] != 0 {
		t.Fatalf("starved core received %d grants", grants[1])
	}
	if grants[0] == 0 {
		t.Fatal("healthy core starved alongside the faulty one")
	}
	b.starve = -1
	for cyc := 0; cyc < 1_000; cyc++ {
		b.tick()
		if b.take(1, 64) {
			grants[1]++
		}
	}
	if grants[1] == 0 {
		t.Fatal("core still starved after clearing the fault")
	}
}
