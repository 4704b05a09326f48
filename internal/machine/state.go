package machine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rcoe/internal/snapshot"
)

// This file is the machine layer of the checkpoint/restore subsystem
// (internal/snapshot): one state walk per type, naming every field inside
// the snapshot boundary once. The boundary is exactly the simulated state:
// cycle counters, register files, physical memory, the bus arbiter,
// pending hard faults, and debug/watch registers. Everything else —
// accelerator caches and their counters, page generations, the rewind
// base, park closures and the park gate's memo — is host-derived; the
// list, with the reason for each field, is the table in
// internal/snapshot/boundary_test.go, which fails when a field of a
// snapshotted struct is in neither place.
//
// Park closures (parkCond/parkDone) cannot be serialized; the machine
// layer clears them and the owning layer (internal/core) re-arms them
// from its own serialized park descriptors after the load, declaring the
// wake cycle again from restored state. parkWake is still walked, because
// RCOESNP v1 carries it.

// StatefulDevice is the optional interface a Device implements to
// participate in snapshots: its state walk. Devices that do not implement
// it are assumed stateless (or are re-armed externally) and are skipped;
// the count and registration order of stateful devices must match between
// the saved and restoring machine.
type StatefulDevice interface {
	Device
	State(c *snapshot.Codec)
}

// SaveState implements snapshot.Snapshotter so a bare machine can be
// snapshotted directly; higher layers (internal/core.System) walk State
// inside their own.
func (m *Machine) SaveState(w *snapshot.Writer) error { return w.Walk(m.State) }

// LoadState implements snapshot.Snapshotter. The target must be
// structurally identical to the machine that was saved: same profile (core
// count, cache geometry, bus rate), same memory size, and the same stateful
// devices registered in the same order. Structural mismatches return
// snapshot.ErrIncompatible.
func (m *Machine) LoadState(s *snapshot.Snapshot) error { return s.Walk(m.State) }

// State walks the machine's sections: header, memory, bus, cores, and the
// stateful devices in registration order.
func (m *Machine) State(c *snapshot.Codec) {
	c.Section("machine", m.header)
	c.RawSection("mem", m.mem.saveState, m.mem.loadState)
	c.Section("bus", m.bus.state)
	for i, core := range m.cores {
		c.Section(fmt.Sprintf("core.%d", i), core.state)
	}
	k := 0
	for _, d := range m.devices {
		if sd, ok := d.(StatefulDevice); ok {
			c.Section(fmt.Sprintf("dev.%d", k), sd.State)
			k++
		}
	}
	if c.Loading() && c.Err() == nil {
		// Host-side diagnostics restart (now may have moved backwards), and
		// the scheduler's derived state is re-established: the rotation
		// index advances in lockstep with now (a batch's bulk credit
		// re-derives it the same way).
		m.ffSkipped, m.sbJumped = 0, 0
		if n := len(m.cores); n > 0 {
			m.rr = int(m.now % uint64(n))
		}
	}
}

// header walks the "machine" section. irqRoute is restored directly,
// without firing the OnIRQRoute hook: the routing events were already
// recorded (and serialized) by whoever owns the hook.
func (m *Machine) header(c *snapshot.Codec) {
	c.U64(&m.now)
	c.Check("cores", len(m.cores))
	for i := range m.irqRoute {
		c.Int(&m.irqRoute[i])
	}
	c.Check("stateful-devices", m.countStatefulDevices())
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
// while keeping snapshots proportional to the touched working set. A page
// still at generation 0 is zero without a look (Mem), so a save never
// reads, and never makes the host commit, RAM the guest left untouched.
func (mm *Mem) saveState(e *snapshot.Enc) {
	for a, msk := range mm.stuck { // a save reads every byte (hardfault.go)
		mm.applyStuck(a, msk)
	}
	e.U64(uint64(len(mm.bytes)))
	const pageSize = 1 << pageShift
	var pages []uint64
	for off := 0; off < len(mm.bytes); off += pageSize {
		end := off + pageSize
		if end > len(mm.bytes) {
			end = len(mm.bytes)
		}
		if mm.pageGen[off>>pageShift] != 0 && !allZero(mm.bytes[off:end]) {
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
// generation alone. Every page it restores changed from the restorer's
// perspective, so its mutation generation is bumped and any live
// superblock over it revalidates (pageGen itself is derived state, never
// serialized). A page that is to be zero and already is stays unwritten —
// without a look when its generation is still 0 — so loading a sparse
// image onto a fresh machine commits only the image's pages on the host.
func (mm *Mem) restore(lo, hi uint64, src []byte, delta bool) {
	for start := lo; lo < hi; {
		p := lo >> pageShift
		end := min((p+1)<<pageShift, hi)
		if !delta || mm.pageGen[p] != mm.baseGen[p] {
			if src != nil {
				copy(mm.bytes[lo:end], src[lo-start:])
			} else if mm.pageGen[p] != 0 && !allZero(mm.bytes[lo:end]) {
				clear(mm.bytes[lo:end])
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

func (b *bus) state(c *snapshot.Codec) {
	c.Check("rate", b.rate)
	c.Check("burst", b.burst)
	c.Int(&b.tokens)
	c.U64(&b.now)
	c.Int(&b.starve)
	snapshot.List(c, &b.q, func(w *busWaiter) {
		c.Int(&w.core)
		c.U64(&w.seen)
	})
}

func (co *Core) state(c *snapshot.Codec) {
	snapshot.Word(c, &co.State)
	c.U64(&co.PC)
	c.U64s(co.Regs[:])
	c.U64(&co.Cycles)
	c.U64(&co.Instructions)
	c.U64(&co.UserBranches)
	c.U64(&co.BP.Addr)
	c.Bool(&co.BP.Enabled)
	c.Bool(&co.ResumeOnce)
	c.Bool(&co.SingleStep)
	c.U64(&co.BranchWatch.Target)
	c.Bool(&co.BranchWatch.Enabled)
	c.U64(&co.BlockWatch.Rem)
	c.Bool(&co.BlockWatch.Enabled)
	c.Bool(&co.IntEnabled)
	c.U64(&co.parkWake)
	c.U64(&co.pendingIRQ)
	c.Bool(&co.pendingIPI)
	c.Int(&co.stall)
	c.U64(&co.jitter)
	c.U64(&co.llAddr)
	c.Bool(&co.llValid)
	c.Raw(co.cache.save, co.cache.load)
	if !c.Loading() || c.Err() != nil {
		return
	}
	// Park closures cannot cross a snapshot; the owning layer re-arms
	// them, with their declarations.
	co.parkCond = nil
	co.parkDone = nil
	// The translation memo and the superblock cache are host-derived and
	// stay as they are. Every entry is keyed on its address space's
	// identity and generation (and a block on its text pages' mutation
	// generations); those only count up, and a restore bumps them for
	// everything it rewrites (Mem.loadState per page, the kernel's state
	// walk for the address space), so an entry filled before the restore
	// can only hit on state that is still what it was filled from. Their
	// diagnostic counters restart, like ffSkipped.
	co.ec.tlbHits, co.ec.tlbMisses = 0, 0
	if co.sb != nil {
		co.sb.built, co.sb.instrs = 0, 0
	}
}

// save writes the cache arrays as three length-prefixed slices — tags as
// words, the valid and dirty bits a byte each — emitting a chunk still at
// generation 0 as zeros without reading it, so a save never makes the host
// commit a chunk the guest left untouched.
func (ch *cache) save(e *snapshot.Enc) {
	n := len(ch.tags)
	e.Grow(3*8 + 10*n)
	e.U64(uint64(n))
	for k, g := range ch.chunkGen {
		if lo, hi := ch.chunk(k); g == 0 {
			e.Zeros(8 * (hi - lo))
		} else {
			e.Words(ch.tags[lo:hi])
		}
	}
	for _, bits := range [][]bool{ch.valid, ch.dirty} {
		e.U64(uint64(n))
		for k, g := range ch.chunkGen {
			if lo, hi := ch.chunk(k); g == 0 {
				e.Zeros(hi - lo)
			} else {
				e.Flags(bits[lo:hi])
			}
		}
	}
}

// load restores the cache arrays as Mem.loadState restores RAM, one chunk
// at a time. A reload of the image the arrays were last loaded from skips
// the chunks still at their base generation; every other chunk is
// rewritten and its generation bumped, except one that is to be zero and
// is still at generation 0, which stays unwritten. cache.gen moves when any
// line was rewritten. The three slices are checked in full before any is
// stored, so a load that fails stores nothing. img is nil for a transfer
// image, which is never kept as a base.
func (ch *cache) load(d *snapshot.Dec, img *snapshot.Snapshot) error {
	n := len(ch.tags)
	tags, valid, dirty := d.WordsView(n), d.FlagsView(n), d.FlagsView(n)
	delta := img != nil && ch.base == img
	ch.base = nil
	if d.Err() != nil {
		return d.Err()
	}
	moved := false
	for k := range ch.chunkGen {
		if delta && ch.chunkGen[k] == ch.baseGen[k] {
			continue
		}
		lo, hi := ch.chunk(k)
		t, v, dt := tags[8*lo:8*hi], valid[lo:hi], dirty[lo:hi]
		switch {
		case !allZero(t) || !allZero(v) || !allZero(dt):
			for i := range ch.tags[lo:hi] {
				ch.tags[lo+i] = binary.LittleEndian.Uint64(t[8*i:])
			}
			for i, b := range v {
				ch.valid[lo+i] = b != 0
			}
			for i, b := range dt {
				ch.dirty[lo+i] = b != 0
			}
		case ch.chunkGen[k] == 0: // zero, and to stay zero
			continue
		default:
			clear(ch.tags[lo:hi])
			clear(ch.valid[lo:hi])
			clear(ch.dirty[lo:hi])
		}
		ch.chunkGen[k]++
		moved = true
	}
	if moved {
		ch.gen++
	}
	if img != nil {
		ch.base = img
		ch.baseGen = append(ch.baseGen[:0], ch.chunkGen...)
	}
	return nil
}

// State implements StatefulDevice: the duty-cycle phase machine is walked
// in full so a restored fault resumes mid-phase. The stuck bit the fault
// may currently assert lives in Mem and is restored with the memory image.
func (f *IntermittentFault) State(c *snapshot.Codec) {
	c.U64(&f.Addr)
	snapshot.Word(c, &f.Bit)
	snapshot.Word(c, &f.Value)
	c.U64(&f.OnCycles)
	c.U64(&f.OffCycles)
	c.U64(&f.Seed)
	c.Bool(&f.on)
	c.U64(&f.next)
	c.Bool(&f.seeded)
	c.U64(&f.rng)
}
