package machine

import (
	"bytes"
	"errors"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	snap "rcoe/internal/snapshot"
)

// buildStateMachine assembles a long two-core loop with a store stream,
// arms hard faults and an intermittent-fault device, and runs it to
// cycle `warm`. Both the saved and the restoring machine are built
// through this one path, which is the snapshot restore contract.
func buildStateMachine(t *testing.T, warm uint64) *Machine {
	t.Helper()
	m := New(X86(), 1<<16) // jitter enabled: exercises the PRNG state
	b := asm.New()
	b.Li(1, 0)
	b.Li64(2, 5_000_000)
	b.Li(3, 0x8000)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.St(8, 3, 1, 0) // store stream keeps cache + bus state nontrivial
	b.Addi(3, 3, 8)
	b.Andi(3, 3, 0x8FF8)
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) { c.Halt() }))
	as := flatAS(m.Mem().Size())
	m.StartCore(0, 0, as)
	m.StartCore(1, 0, as)
	m.RouteIRQ(5, 1)
	if err := m.Mem().SetStuck(0x9000, 3, 1); err != nil {
		t.Fatal(err)
	}
	m.AddDevice(&IntermittentFault{Addr: 0x9100, Bit: 1, Value: 1,
		OnCycles: 500, OffCycles: 700, Seed: 42})
	m.Run(warm)
	return m
}

// TestMachineStateRoundTrip pins the machine-layer snapshot contract:
// save → restore into a fresh structurally identical machine is exact
// (re-serializing yields byte-identical data), and both machines then
// evolve bit-identically.
func TestMachineStateRoundTrip(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh machine built through the same path but
	// stopped at a different cycle, so every restored field matters.
	b := buildStateMachine(t, 3_333)
	if b.SuperblockEnabled() && b.SuperblockStats().Batched == 0 {
		t.Fatal("no batch ran before the restore: the reset below shows nothing")
	}
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}
	// Every engine diagnostic restarts on a load; only the instruction
	// total, summed from the restored cores, is not one.
	if st := b.SuperblockStats(); st != (SuperblockStats{Instrs: st.Instrs}) {
		t.Fatalf("engine diagnostics survived the restore: %+v", st)
	}

	// Round-trip byte identity: nothing lost, nothing invented.
	data2, err := snap.Save(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		sa, _ := snap.Parse(data)
		sb, _ := snap.Parse(data2)
		t.Fatalf("re-serialized snapshot differs: %v", snap.Diff(sa, sb))
	}

	// Continuation determinism: both machines step onward identically.
	a.Run(7_500)
	b.Run(7_500)
	da, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := snap.Save(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		sa, _ := snap.Parse(da)
		sb, _ := snap.Parse(db)
		t.Fatalf("continuation diverged after restore: %v", snap.Diff(sa, sb))
	}
	if a.Now() != b.Now() || a.Now() != 17_500 {
		t.Fatalf("now: a=%d b=%d", a.Now(), b.Now())
	}
}

// TestMachineStateAccelPortability saves under one accelerator combo and
// restores under another: the simulated state must evolve identically
// (the superblock engine and the exec cache are host-side derived state,
// excluded from the snapshot boundary).
func TestMachineStateAccelPortability(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	a.SetSuperblock(true)
	a.SetExecCache(true)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(20_000)

	b := buildStateMachine(t, 0)
	b.SetSuperblock(false)
	b.SetExecCache(false)
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}
	b.Run(20_000)

	if a.Now() != b.Now() {
		t.Fatalf("now diverged: %d vs %d", a.Now(), b.Now())
	}
	for i := 0; i < a.NumCores(); i++ {
		ca, cb := a.Core(i), b.Core(i)
		if ca.Regs != cb.Regs || ca.PC != cb.PC || ca.Cycles != cb.Cycles ||
			ca.Instructions != cb.Instructions {
			t.Fatalf("core %d diverged across accel combos:\n a: pc=%#x cyc=%d %v\n b: pc=%#x cyc=%d %v",
				i, ca.PC, ca.Cycles, ca.Regs, cb.PC, cb.Cycles, cb.Regs)
		}
	}
	ma, _ := a.Mem().Read(0x8000, 0x1000)
	mb, _ := b.Mem().Read(0x8000, 0x1000)
	if !bytes.Equal(ma, mb) {
		t.Fatal("data memory diverged across accel combos")
	}
}

// TestMachineStateIncompatible rejects structurally mismatched targets.
func TestMachineStateIncompatible(t *testing.T) {
	a := buildStateMachine(t, 1_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	// Different memory size.
	small := New(X86(), 1<<15)
	if err := snap.Restore(small, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("mem-size mismatch: got %v, want ErrIncompatible", err)
	}
	// Different core count / profile.
	arm := New(Arm(), 1<<16)
	if err := snap.Restore(arm, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("profile mismatch: got %v, want ErrIncompatible", err)
	}
	// Missing stateful device.
	bare := New(X86(), 1<<16)
	if err := snap.Restore(bare, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("device mismatch: got %v, want ErrIncompatible", err)
	}
}

// TestMachineStateHardFaults verifies stuck bits and the intermittent
// fault's phase machine survive a round trip: the restored machine keeps
// asserting the fault exactly as the original does.
func TestMachineStateHardFaults(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	b := buildStateMachine(t, 0)
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}
	if b.Mem().StuckBits() != a.Mem().StuckBits() {
		t.Fatalf("stuck set lost: %d vs %d", b.Mem().StuckBits(), a.Mem().StuckBits())
	}
	// Writing 0 to a stuck-at-1 bit must re-assert on both machines.
	for _, m := range []*Machine{a, b} {
		if err := m.Mem().WriteU(0x9000, 1, 0); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Mem().ReadU(0x9000, 1)
		if v != 1<<3 {
			t.Fatalf("stuck bit not asserted after restore: %#x", v)
		}
	}
}

// memImage builds a bare 16-page machine whose pages 2 and 5 hold data
// (everything else zero) and returns it with its parsed snapshot.
func memImage(t *testing.T, fill byte) (*Machine, *snap.Snapshot, []byte) {
	t.Helper()
	m := New(X86(), 16<<pageShift)
	for _, p := range []uint64{2, 5} {
		if err := m.Mem().Fill(p<<pageShift, 1<<pageShift, fill); err != nil {
			t.Fatal(err)
		}
	}
	data, err := snap.Save(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return m, s, data
}

// dirty mutates an image page, a zero page and a third page through a
// stuck bit, and returns the pages it touched.
func dirty(t *testing.T, mm *Mem) map[uint64]bool {
	t.Helper()
	if err := mm.FlipBit(5<<pageShift+17, 3); err != nil {
		t.Fatal(err)
	}
	if err := mm.WriteU(7<<pageShift+8, 8, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if err := mm.SetStuck(9<<pageShift, 0, 1); err != nil {
		t.Fatal(err)
	}
	return map[uint64]bool{5: true, 7: true, 9: true}
}

func gens(mm *Mem) []uint64 { return append([]uint64(nil), mm.pageGen...) }

// mustMatch fails unless m re-serializes to exactly want.
func mustMatch(t *testing.T, m *Machine, want []byte) {
	t.Helper()
	got, err := snap.Save(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		sa, _ := snap.Parse(want)
		sb, _ := snap.Parse(got)
		t.Fatalf("state differs from the image: %v", snap.Diff(sa, sb))
	}
}

// TestMemReloadSameImageIsDelta pins the rewind: a reload of the parsed
// snapshot the memory already holds restores exactly the dirtied pages —
// image pages from the image, others to zero — drops the stuck set, and
// leaves every clean page's generation alone.
func TestMemReloadSameImageIsDelta(t *testing.T) {
	m, img, data := memImage(t, 0xA5)
	if err := m.LoadState(img); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // the base survives a rewind
		before := gens(m.Mem())
		touched := dirty(t, m.Mem())
		if err := m.LoadState(img); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, m, data)
		if n := m.Mem().StuckBits(); n != 0 {
			t.Fatalf("round %d: %d stuck bytes survived the rewind", round, n)
		}
		for p, g := range gens(m.Mem()) {
			switch {
			case touched[uint64(p)] && g == before[p]:
				t.Fatalf("round %d: dirtied page %d kept generation %d", round, p, g)
			case !touched[uint64(p)] && g != before[p]:
				t.Fatalf("round %d: clean page %d moved %d -> %d", round, p, before[p], g)
			}
		}
	}
}

// TestMemReloadOtherImageIsFull: a different image — same length, same
// page set, other bytes — must rewrite every page, dirtied or not.
func TestMemReloadOtherImageIsFull(t *testing.T) {
	m, img, _ := memImage(t, 0xA5)
	_, other, otherData := memImage(t, 0x5A)
	if len(img.Sections()) != len(other.Sections()) {
		t.Fatal("images differ in shape")
	}
	if err := m.LoadState(img); err != nil {
		t.Fatal(err)
	}
	before := gens(m.Mem())
	if err := m.LoadState(other); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, m, otherData)
	for p, g := range gens(m.Mem()) {
		if g == before[p] {
			t.Fatalf("page %d was skipped loading a different image", p)
		}
	}
}

// TestMemReloadAfterFailedLoadIsFull: a load that fails part-way leaves
// memory holding no image, so the next load of the old base is a full one.
func TestMemReloadAfterFailedLoadIsFull(t *testing.T) {
	m, img, data := memImage(t, 0xA5)
	if err := m.LoadState(img); err != nil {
		t.Fatal(err)
	}
	// The same image with its mem section claiming one page more than it
	// carries: the decoder runs off the section after rewriting the pages.
	bad, err := snap.Parse(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range bad.Sections() {
		if sec.Name == "mem" {
			sec.Data[8]++ // page count, after the size word
		}
	}
	if err := m.LoadState(bad); !errors.Is(err, snap.ErrBadSnapshot) {
		t.Fatalf("truncated mem section: got %v, want ErrBadSnapshot", err)
	}
	before := gens(m.Mem())
	if err := m.LoadState(img); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, m, data)
	for p, g := range gens(m.Mem()) {
		if g == before[p] {
			t.Fatalf("page %d was skipped after a failed load", p)
		}
	}
}

// TestMachineStateHostileCounts: a bus-waiter count far beyond the
// section's bytes is a named decode error, not a host allocation panic.
func TestMachineStateHostileCounts(t *testing.T) {
	m := buildStateMachine(t, 0)
	w := snap.NewWriter()
	e := w.Section("bus")
	e.Int(m.bus.rate)
	e.Int(m.bus.burst)
	for i := 0; i < 3; i++ { // tokens, now, starve
		e.U64(0)
	}
	e.U64(1 << 60)
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	img, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	err = img.Walk(func(c *snap.Codec) { c.Section("bus", m.bus.state) })
	if !errors.Is(err, snap.ErrBadSnapshot) {
		t.Fatalf("waiter count 1<<60: got %v, want ErrBadSnapshot", err)
	}
}
