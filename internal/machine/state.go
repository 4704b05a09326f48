package machine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rcoe/internal/snapshot"
)

// This file implements the machine layer of the checkpoint/restore
// subsystem (internal/snapshot). The serialized boundary is exactly the
// simulated state: cycle counters, register files, physical memory,
// the bus arbiter, pending hard faults, and debug/watch registers.
//
// Host-side acceleration state is deliberately excluded and re-derived on
// restore, which is what makes a snapshot portable across accelerator
// switch combinations (fast-forward and exec-cache on either side):
//
//   - Mem.pageGen, Core.ec and Core.sb: the predecoded-instruction,
//     translation and superblock caches revalidate against page
//     generations, so restore bumps the generation of every page it
//     rewrites (all of them, except on a rewind — see Mem.loadState) and
//     the caches need no flush (see Core.loadState).
//   - Machine.rr: the round-robin start index advances in lockstep with
//     now (rr == now % cores, see Step and skipIdle), so it is recomputed.
//   - Machine.stepIdle: Run/RunUntil clear it before stepping, and the
//     fast/naive differential contract makes any mix bit-identical.
//   - Machine.parkEpoch and Core.parkGp/parkSeen*: the park gate's memo.
//     Park clears the per-core half, so a re-armed park evaluates its
//     condition on its first poll.
//
// Park closures (parkCond/parkDone) cannot be serialized; the machine
// layer clears them and the owning layer (internal/core) re-arms them
// from its own serialized park descriptors after LoadState returns.
// parkWake is serialized here and must be restored by the re-arming
// layer after its installers run (Park resets it to 0).

// StatefulDevice is the optional interface a Device implements to
// participate in snapshots. Devices that do not implement it are assumed
// stateless (or are re-armed externally) and are skipped; the count and
// registration order of stateful devices must match between the saved
// and restoring machine.
type StatefulDevice interface {
	Device
	SaveState(e *snapshot.Enc)
	LoadState(d *snapshot.Dec) error
}

// SaveState serializes the machine's simulated state. It implements
// snapshot.Snapshotter so a bare machine can be snapshotted directly;
// higher layers (internal/core.System) call it and add their own
// sections to the same writer.
func (m *Machine) SaveState(w *snapshot.Writer) error {
	e := w.Section("machine")
	e.U64(m.now)
	e.Int(len(m.cores))
	for _, r := range m.irqRoute {
		e.Int(r)
	}
	e.Int(m.countStatefulDevices())

	m.mem.saveState(w.Section("mem"))
	m.bus.saveState(w.Section("bus"))
	for i, c := range m.cores {
		c.saveState(w.Section(fmt.Sprintf("core.%d", i)))
	}
	k := 0
	for _, d := range m.devices {
		if sd, ok := d.(StatefulDevice); ok {
			sd.SaveState(w.Section(fmt.Sprintf("dev.%d", k)))
			k++
		}
	}
	return w.Err()
}

// LoadState restores the machine's simulated state from a snapshot. The
// target must be structurally identical to the machine that was saved:
// same profile (core count, cache geometry, bus rate), same memory size,
// and the same stateful devices registered in the same order. Structural
// mismatches return snapshot.ErrIncompatible.
//
// irqRoute is restored directly without firing the OnIRQRoute hook: the
// routing events were already recorded (and serialized) by whoever owns
// the hook.
func (m *Machine) LoadState(s *snapshot.Snapshot) error {
	d, err := s.Section("machine")
	if err != nil {
		return err
	}
	now := d.U64()
	if n := d.Int(); n != len(m.cores) {
		return fmt.Errorf("%w: snapshot has %d cores, machine has %d",
			snapshot.ErrIncompatible, n, len(m.cores))
	}
	var route [64]int
	for i := range route {
		route[i] = d.Int()
	}
	if n := d.Int(); n != m.countStatefulDevices() {
		return fmt.Errorf("%w: snapshot has %d stateful devices, machine has %d",
			snapshot.ErrIncompatible, n, m.countStatefulDevices())
	}
	if err := d.Close(); err != nil {
		return err
	}

	if err := loadSection(s, "mem", func(d *snapshot.Dec) error { return m.mem.loadState(d, s) }); err != nil {
		return err
	}
	if err := loadSection(s, "bus", m.bus.loadState); err != nil {
		return err
	}
	for i, c := range m.cores {
		if err := loadSection(s, fmt.Sprintf("core.%d", i), c.loadState); err != nil {
			return err
		}
	}
	k := 0
	for _, dev := range m.devices {
		if sd, ok := dev.(StatefulDevice); ok {
			if err := loadSection(s, fmt.Sprintf("dev.%d", k), sd.LoadState); err != nil {
				return err
			}
			k++
		}
	}

	// ffSkipped is host-side diagnostics for the idle-skip accelerator —
	// outside the snapshot boundary, like the accelerator switches
	// themselves — so a restore resets it.
	m.now = now
	m.ffSkipped = 0
	m.sbJumped = 0
	m.sbHold = 0 // host-only cooldown; now may have moved backwards
	m.irqRoute = route
	// Derived scheduler state: the rotation index advances in lockstep
	// with now (and skipIdle re-derives it the same way), and stepIdle
	// must be false until a naive step re-establishes quiescence.
	if n := len(m.cores); n > 0 {
		m.rr = int(now % uint64(n))
	}
	m.stepIdle = false
	return nil
}

// loadSection decodes one section through fn and verifies it was fully
// consumed.
func loadSection(s *snapshot.Snapshot, name string, fn func(*snapshot.Dec) error) error {
	d, err := s.Section(name)
	if err != nil {
		return err
	}
	if err := fn(d); err != nil {
		return fmt.Errorf("section %s: %w", name, err)
	}
	if err := d.Close(); err != nil {
		return err
	}
	return nil
}

func (m *Machine) countStatefulDevices() int {
	n := 0
	for _, d := range m.devices {
		if _, ok := d.(StatefulDevice); ok {
			n++
		}
	}
	return n
}

// saveState serializes physical memory sparsely: only pages with at
// least one nonzero byte are written, plus the stuck-at fault set. A
// fresh machine's memory is zeroed, so the sparse image restores exactly
// while keeping snapshots proportional to the touched working set.
func (mm *Mem) saveState(e *snapshot.Enc) {
	e.U64(uint64(len(mm.bytes)))
	const pageSize = 1 << pageShift
	var pages []uint64
	for off := 0; off < len(mm.bytes); off += pageSize {
		end := off + pageSize
		if end > len(mm.bytes) {
			end = len(mm.bytes)
		}
		if !allZero(mm.bytes[off:end]) {
			pages = append(pages, uint64(off)>>pageShift)
		}
	}
	e.Int(len(pages))
	e.Grow(len(pages) * (16 + pageSize))
	for _, p := range pages {
		off := p << pageShift
		end := off + pageSize
		if end > uint64(len(mm.bytes)) {
			end = uint64(len(mm.bytes))
		}
		e.U64(p)
		e.Bytes(mm.bytes[off:end])
	}
	addrs := make([]uint64, 0, len(mm.stuck))
	for a := range mm.stuck {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.Int(len(addrs))
	for _, a := range addrs {
		msk := mm.stuck[a]
		e.U64(a)
		e.U64(uint64(msk.or))
		e.U64(uint64(msk.andNot))
	}
}

// loadState restores physical memory from the mem section of img. A first
// load, and any load of an image other than the one the memory holds,
// rewrites every page. A reload of the same parsed snapshot is a rewind:
// the image is immutable (snapshot.Snapshot) and every path that mutates
// RAM bumps the page's generation, so a page whose generation has not
// moved since the last full load of img still holds img's bytes and is
// skipped — the walk is the same, only the dirtied pages are rewritten and
// only their generations bumped. A load that fails part-way leaves the
// memory with no base, so the next load is a full one.
func (mm *Mem) loadState(d *snapshot.Dec, img *snapshot.Snapshot) error {
	if size := d.U64(); size != uint64(len(mm.bytes)) {
		return fmt.Errorf("%w: snapshot memory is %d bytes, machine has %d",
			snapshot.ErrIncompatible, size, len(mm.bytes))
	}
	delta := mm.base != nil && mm.base == img
	mm.base = nil
	npages := d.Int()
	// Pages are written in ascending order, so the regions between (and
	// after) them are exactly what must be zeroed; restored pages are
	// overwritten in full. This keeps restore cost proportional to memory
	// size with no second pass.
	cursor := uint64(0)
	for i := 0; i < npages && d.Err() == nil; i++ {
		p := d.U64()
		b := d.BytesView()
		off := p << pageShift
		if off+uint64(len(b)) > uint64(len(mm.bytes)) || off+uint64(len(b)) < off {
			return fmt.Errorf("%w: page %d out of range", snapshot.ErrBadSnapshot, p)
		}
		if off < cursor {
			return fmt.Errorf("%w: page %d out of order", snapshot.ErrBadSnapshot, p)
		}
		mm.restore(cursor, off, nil, delta)
		cursor = off + uint64(len(b))
		mm.restore(off, cursor, b, delta)
	}
	if d.Err() == nil {
		mm.restore(cursor, uint64(len(mm.bytes)), nil, delta)
	}
	mm.stuck = nil
	nstuck := d.Int()
	for i := 0; i < nstuck && d.Err() == nil; i++ {
		a := d.U64()
		or := byte(d.U64())
		andNot := byte(d.U64())
		if mm.stuck == nil {
			mm.stuck = make(map[uint64]stuckMask)
		}
		mm.stuck[a] = stuckMask{or: or, andNot: andNot}
	}
	if d.Err() == nil && d.Remaining() == 0 {
		mm.base = img
		mm.baseGen = append(mm.baseGen[:0], mm.pageGen...)
	}
	return d.Err()
}

// restore makes [lo, hi) equal to src, or zero when src is nil, one page
// at a time; with delta set it leaves the pages still at their base
// generation alone. Every page it rewrites changed from the restorer's
// perspective, so its mutation generation is bumped and any live
// predecode/translation cache entry revalidates (pageGen itself is
// derived state, never serialized).
func (mm *Mem) restore(lo, hi uint64, src []byte, delta bool) {
	for start := lo; lo < hi; {
		p := lo >> pageShift
		end := min((p+1)<<pageShift, hi)
		if !delta || mm.pageGen[p] != mm.baseGen[p] {
			if src == nil {
				clear(mm.bytes[lo:end])
			} else {
				copy(mm.bytes[lo:end], src[lo-start:])
			}
			mm.pageGen[p]++
		}
		lo = end
	}
}

func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func (b *bus) saveState(e *snapshot.Enc) {
	e.Int(b.rate)
	e.Int(b.burst)
	e.I64(int64(b.tokens))
	e.U64(b.now)
	e.Int(b.starve)
	e.Int(len(b.q))
	for _, wtr := range b.q {
		e.Int(wtr.core)
		e.U64(wtr.seen)
	}
}

func (b *bus) loadState(d *snapshot.Dec) error {
	rate, burst := d.Int(), d.Int()
	if rate != b.rate || burst != b.burst {
		return fmt.Errorf("%w: snapshot bus rate/burst %d/%d, machine has %d/%d",
			snapshot.ErrIncompatible, rate, burst, b.rate, b.burst)
	}
	b.tokens = int(d.I64())
	b.now = d.U64()
	b.starve = d.Int()
	n := d.Int()
	b.q = b.q[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		core := d.Int()
		seen := d.U64()
		b.q = append(b.q, busWaiter{core: core, seen: seen})
	}
	return d.Err()
}

func (c *Core) saveState(e *snapshot.Enc) {
	e.Int(int(c.State))
	e.U64(c.PC)
	e.U64s(c.Regs[:])
	e.U64(c.Cycles)
	e.U64(c.Instructions)
	e.U64(c.UserBranches)
	e.U64(c.BP.Addr)
	e.Bool(c.BP.Enabled)
	e.Bool(c.ResumeOnce)
	e.Bool(c.SingleStep)
	e.U64(c.BranchWatch.Target)
	e.Bool(c.BranchWatch.Enabled)
	e.U64(c.BlockWatch.Rem)
	e.Bool(c.BlockWatch.Enabled)
	e.Bool(c.IntEnabled)
	e.U64(c.parkWake)
	e.U64(c.pendingIRQ)
	e.Bool(c.pendingIPI)
	e.Int(c.stall)
	e.U64(c.jitter)
	e.U64(c.llAddr)
	e.Bool(c.llValid)
	e.U64s(c.cache.tags)
	e.Bools(c.cache.valid)
	e.Bools(c.cache.dirty)
}

func (c *Core) loadState(d *snapshot.Dec) error {
	c.State = CoreState(d.Int())
	c.PC = d.U64()
	if n := d.U64sInto(c.Regs[:]); d.Err() == nil && n != len(c.Regs) {
		return fmt.Errorf("%w: snapshot has %d registers, want %d",
			snapshot.ErrIncompatible, n, len(c.Regs))
	}
	c.Cycles = d.U64()
	c.Instructions = d.U64()
	c.UserBranches = d.U64()
	c.BP.Addr = d.U64()
	c.BP.Enabled = d.Bool()
	c.ResumeOnce = d.Bool()
	c.SingleStep = d.Bool()
	c.BranchWatch.Target = d.U64()
	c.BranchWatch.Enabled = d.Bool()
	c.BlockWatch.Rem = d.U64()
	c.BlockWatch.Enabled = d.Bool()
	c.IntEnabled = d.Bool()
	c.parkWake = d.U64()
	c.pendingIRQ = d.U64()
	c.pendingIPI = d.Bool()
	c.stall = d.Int()
	c.jitter = d.U64()
	c.llAddr = d.U64()
	c.llValid = d.Bool()
	// The cache arrays decode straight into place: one length check each,
	// no intermediate slice.
	tags := d.U64sInto(c.cache.tags)
	valid := d.BoolsInto(c.cache.valid)
	dirty := d.BoolsInto(c.cache.dirty)
	if d.Err() != nil {
		return d.Err()
	}
	if n := len(c.cache.tags); tags != n || valid != n || dirty != n {
		return fmt.Errorf("%w: snapshot cache has %d lines, machine has %d",
			snapshot.ErrIncompatible, tags, n)
	}
	// Park closures cannot cross a snapshot; the owning layer re-arms
	// them (and then restores parkWake, which Park resets).
	c.parkCond = nil
	c.parkDone = nil
	// The exec and superblock caches are host-derived and stay allocated.
	// Every entry is keyed on its address space's identity and generation
	// and on its text pages' mutation generations; those only count up,
	// and a restore bumps them for everything it rewrites (Mem.loadState
	// per page, the kernel's LoadState for the address space), so an entry
	// filled before the restore can only hit on state that is still what
	// it was filled from. Their diagnostic counters restart, like ffSkipped.
	if c.ec != nil {
		c.ec.decodeHits, c.ec.decodeMisses, c.ec.tlbHits, c.ec.tlbMisses = 0, 0, 0, 0
	}
	if c.sb != nil {
		c.sb.built, c.sb.instrs = 0, 0
	}
	return nil
}

// ParkWake returns the core's current fast-forward wake hint. The
// re-arming layer uses it to restore a serialized hint after its park
// installer runs (Park resets the hint to 0).
func (c *Core) ParkWake() uint64 { return c.parkWake }

// SaveState implements StatefulDevice: the duty-cycle phase machine is
// serialized in full so a restored fault resumes mid-phase.
func (f *IntermittentFault) SaveState(e *snapshot.Enc) {
	e.U64(f.Addr)
	e.U64(uint64(f.Bit))
	e.U64(uint64(f.Value))
	e.U64(f.OnCycles)
	e.U64(f.OffCycles)
	e.U64(f.Seed)
	e.Bool(f.on)
	e.U64(f.next)
	e.Bool(f.seeded)
	e.U64(f.rng)
}

// LoadState implements StatefulDevice. The stuck bit the fault may
// currently assert lives in Mem and is restored with the memory image;
// only the phase machine is restored here.
func (f *IntermittentFault) LoadState(d *snapshot.Dec) error {
	f.Addr = d.U64()
	f.Bit = uint(d.U64())
	f.Value = uint(d.U64())
	f.OnCycles = d.U64()
	f.OffCycles = d.U64()
	f.Seed = d.U64()
	f.on = d.Bool()
	f.next = d.U64()
	f.seeded = d.Bool()
	f.rng = d.U64()
	return d.Err()
}
