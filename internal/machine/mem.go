package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync/atomic"
	"unsafe"

	"rcoe/internal/snapshot"
)

// ErrBadPhysAddr is returned for physical accesses outside RAM that hit no
// MMIO window.
var ErrBadPhysAddr = errors.New("machine: physical address out of range")

// pageShift sets the granularity of the mutation-generation tracking that
// invalidates decoded superblocks: one counter per 4 KiB physical page.
const pageShift = 12

// Mem is the machine's physical memory. Reads and writes are raw; cache
// and bus accounting happen in the core stepping path, not here, so
// devices (DMA) and fault injectors can touch memory without disturbing
// the cost model.
//
// Every mutation path — Write, WriteU, Fill, Move, FlipBit, and Slice
// window grants — bumps a per-page generation counter. The per-core
// superblock caches (superblock.go) validate their decoded blocks against
// these counters, which is what makes self-modifying code, injected
// bit-flips in text, DMA, and re-integration partition copies behave
// bit-identically with and without the engine. It also makes a page whose
// generation is still 0 a witness that the page is zero: it was never
// written since NewMem, so a save or a restore need not read it
// (state.go).
type Mem struct {
	bytes []byte
	// pageGen counts mutations per physical page. Monotonic, 64-bit, so
	// it never wraps into a false cache hit.
	pageGen []uint64
	// writes counts the mutation paths' calls (touch): while it stands
	// still no page generation moved, so the superblock batch skips its
	// store checks after an op that wrote nothing. Host-derived. It stands
	// still while uncounted is set, which runBlocks does while runs of
	// several cores execute ahead of machine time at once: nothing reads
	// the count until they have all returned, and a plain counter shared by
	// two host threads would be a data race.
	writes    uint64
	uncounted bool
	// stuck holds the persistent stuck-at faults (hardfault.go), keyed by
	// physical byte address. nil when no hard fault is registered, which
	// keeps the access paths at a single len check.
	stuck map[uint64]stuckMask
	// base is the snapshot whose image loadState last restored in full and
	// baseGen the page generations right after that load (state.go): a
	// page still at its baseGen still holds base's bytes, so a reload of
	// base rewrites only the others. nil until a load succeeds.
	base    *snapshot.Snapshot
	baseGen []uint64
	// serial names this Mem as a CopyFrom source; copySerial is the serial
	// of the source the last CopyFrom copied from (0: none), copySrcGen
	// that source's page generations right after the copy and copyGen this
	// memory's own. All host-derived (CopyFrom).
	serial     uint64
	copySerial uint64
	copySrcGen []uint64
	copyGen    []uint64
}

// memSerials hands out Mem serial numbers, from 1.
var memSerials atomic.Uint64

// NewMem allocates size bytes of demand-zero physical memory: every byte
// reads zero, and on unix hosts the RAM is an anonymous mapping
// (ram_unix.go), so the host commits a page only when something writes it
// and a machine costs what its guest touches. The mapping is released when
// the Mem becomes unreachable. On other hosts, and in race builds, the RAM
// is an ordinary heap allocation (ram_other.go).
func NewMem(size int) *Mem {
	m := &Mem{
		bytes:   mapRAM(size),
		pageGen: make([]uint64, (size+(1<<pageShift)-1)>>pageShift),
		serial:  memSerials.Add(1),
	}
	if m.bytes == nil {
		m.bytes = make([]byte, size)
	} else {
		runtime.SetFinalizer(m, func(m *Mem) { unmapRAM(m.bytes) })
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Mem) Size() uint64 { return uint64(len(m.bytes)) }

func (m *Mem) check(addr uint64, n int) error {
	if !m.inRange(addr, n) {
		return badPhysAddr(addr, n)
	}
	return nil
}

// inRange reports whether [addr, addr+n) lies in RAM. ReadU and WriteU, the
// accessors on every kernel word access, test it inline and build check's
// error only when it fails.
func (m *Mem) inRange(addr uint64, n int) bool {
	end := addr + uint64(n)
	return end <= uint64(len(m.bytes)) && end >= addr
}

func badPhysAddr(addr uint64, n int) error {
	return fmt.Errorf("%w: [%#x,+%d)", ErrBadPhysAddr, addr, n)
}

// touch bumps the mutation generation of every page overlapping
// [addr, addr+n). Callers must have bounds-checked the range.
func (m *Mem) touch(addr uint64, n int) {
	if n <= 0 {
		return
	}
	if !m.uncounted {
		m.writes++
	}
	for p := addr >> pageShift; p <= (addr+uint64(n)-1)>>pageShift; p++ {
		m.pageGen[p]++
	}
}

// PageGen returns the mutation generation of the one physical page holding
// [addr, addr+n), for Core.Park's watch. It returns nil when the range
// spans pages or leaves RAM: no watch covers it, so a park that reads it
// must declare a wake of 0 (every poll evaluates). pageGen is allocated
// once and never moved, so the pointer stays valid for the machine's
// lifetime.
func (m *Mem) PageGen(addr uint64, n int) *uint64 {
	if n <= 0 || m.check(addr, n) != nil || addr>>pageShift != (addr+uint64(n)-1)>>pageShift {
		return nil
	}
	return &m.pageGen[addr>>pageShift]
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Mem) Read(addr uint64, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	return out, m.ReadAt(addr, out)
}

// ReadAt copies len(dst) bytes starting at addr into dst — the
// allocation-free variant of Read for hot paths that own a buffer.
func (m *Mem) ReadAt(addr uint64, dst []byte) error {
	if err := m.check(addr, len(dst)); err != nil {
		return err
	}
	if len(m.stuck) != 0 {
		m.assertStuck(addr, len(dst))
	}
	copy(dst, m.bytes[addr:])
	return nil
}

// Write copies b into memory at addr.
func (m *Mem) Write(addr uint64, b []byte) error {
	if err := m.check(addr, len(b)); err != nil {
		return err
	}
	copy(m.bytes[addr:], b)
	m.touch(addr, len(b))
	if len(m.stuck) != 0 {
		m.assertStuck(addr, len(b))
	}
	return nil
}

// Move copies n bytes from src to dst within physical memory without
// allocating. Overlapping ranges behave as if staged through an
// intermediate buffer (memmove semantics), identical to Read followed by
// Write.
func (m *Mem) Move(dst, src uint64, n int) error {
	if err := m.check(src, n); err != nil {
		return err
	}
	if err := m.check(dst, n); err != nil {
		return err
	}
	if len(m.stuck) != 0 {
		m.assertStuck(src, n)
	}
	copy(m.bytes[dst:dst+uint64(n)], m.bytes[src:src+uint64(n)])
	m.touch(dst, n)
	if len(m.stuck) != 0 {
		m.assertStuck(dst, n)
	}
	return nil
}

// Fill sets n bytes at addr to v without allocating.
func (m *Mem) Fill(addr uint64, n int, v byte) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	s := m.bytes[addr : addr+uint64(n)]
	for i := range s {
		s[i] = v
	}
	m.touch(addr, n)
	if len(m.stuck) != 0 {
		m.assertStuck(addr, n)
	}
	return nil
}

// ReadU reads an unsigned little-endian value of size 1, 2, 4 or 8.
func (m *Mem) ReadU(addr uint64, size int) (uint64, error) {
	if !m.inRange(addr, size) {
		return 0, badPhysAddr(addr, size)
	}
	if len(m.stuck) != 0 {
		m.assertStuck(addr, size)
	}
	b := m.bytes[addr:]
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU writes an unsigned little-endian value of size 1, 2, 4 or 8.
func (m *Mem) WriteU(addr uint64, size int, v uint64) error {
	if !m.inRange(addr, size) {
		return badPhysAddr(addr, size)
	}
	b := m.bytes[addr:]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		for i := 0; i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
	m.touch(addr, size)
	if len(m.stuck) != 0 {
		m.assertStuck(addr, size)
	}
	return nil
}

// FlipBit inverts a single bit, used by the fault injector. bit is the
// absolute bit index within the byte at addr.
func (m *Mem) FlipBit(addr uint64, bit uint) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.bytes[addr] ^= 1 << (bit % 8)
	m.touch(addr, 1)
	if len(m.stuck) != 0 {
		m.assertStuck(addr, 1)
	}
	return nil
}

// Slice returns a window into physical memory for zero-copy device DMA.
// The window is valid only while the memory's Machine is reachable — the
// RAM may be a mapping that is released with the Mem — and only until the
// next core instruction executes: complete any writes through it before
// then, and re-acquire the window for each DMA burst. The grant
// conservatively marks the whole window mutated, which is what keeps
// decoded superblocks coherent with DMA into text pages.
func (m *Mem) Slice(addr uint64, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	m.touch(addr, n)
	if len(m.stuck) != 0 {
		m.assertStuck(addr, n)
	}
	return m.bytes[addr : addr+uint64(n)], nil
}

// CopyFrom makes m's bytes and stuck-at set equal to src's, as a save of
// src loaded into m would, without an image in between. It rewrites only
// the pages that may differ: after a copy from src, a page counts as
// current while both src's generation and m's own are where that copy
// left them — every mutation path bumps a page's generation, so a page
// neither side touched still holds the same bytes on both. The first copy
// from a source, and every copy after one from another, rewrites every
// page src ever wrote and zeroes the pages of the rest that m wrote, so a
// fresh target commits on the host only the pages src wrote. Each page the
// copy rewrites has its generation bumped, so m's superblocks revalidate
// as they do after a restore, and m's rewind base is dropped.
//
// The source is known by its serial number, never by a pointer: a
// pointer from one Mem to another would chain their finalizers, and each
// link would take one more GC cycle to unmap its RAM. src's stuck bits
// are asserted first, as a save does. A size mismatch is
// snapshot.ErrIncompatible and leaves m untouched.
func (m *Mem) CopyFrom(src *Mem) error {
	if len(src.bytes) != len(m.bytes) {
		return fmt.Errorf("%w: source memory is %d bytes, target has %d",
			snapshot.ErrIncompatible, len(src.bytes), len(m.bytes))
	}
	for a, msk := range src.stuck {
		src.applyStuck(a, msk)
	}
	delta := m.copySerial == src.serial
	if !delta {
		m.copySrcGen = make([]uint64, len(m.pageGen))
		m.copyGen = make([]uint64, len(m.pageGen))
	}
	m.base = nil
	for p, g := range src.pageGen {
		if delta && g == m.copySrcGen[p] && m.pageGen[p] == m.copyGen[p] {
			continue
		}
		lo, hi := p<<pageShift, min((p+1)<<pageShift, len(m.bytes))
		switch {
		case g != 0:
			copy(m.bytes[lo:hi], src.bytes[lo:hi])
			m.pageGen[p]++
		case m.pageGen[p] != 0: // src's page is zero, without a look at generation 0
			clear(m.bytes[lo:hi])
			m.pageGen[p]++
		}
		m.copySrcGen[p], m.copyGen[p] = g, m.pageGen[p]
	}
	m.copySerial = src.serial
	m.stuck = maps.Clone(src.stuck)
	return nil
}

// cache is a direct-mapped write-back cache keyed on line tags. It tracks
// only tags, not data: physical memory is always current for reads, and
// the cache exists purely for the cycle cost model.
//
// Its arrays are tracked the way RAM is (Mem): every path that changes a
// line — a fill or eviction, a line turning dirty, a flush, a rewind's
// undo or redo of dirty bits, a load — bumps the generation of the line's
// chunk, and a plain hit bumps nothing. A chunk still at generation 0 is
// zero in all three arrays, so a flush or a save need not read it, and a
// reload of the same image rewrites only the chunks that moved (state.go).
type cache struct {
	tags      []uint64
	valid     []bool
	dirty     []bool
	lineShift uint
	nlines    uint64
	// pow2 selects masking over modulo for the line-index fold. Every
	// shipped profile has a power-of-two line count; the modulo path is
	// the fallback for exotic hand-built profiles.
	pow2     bool
	lineMask uint64
	// gen counts line replacements (fills, flushes and loads that rewrite
	// lines). Host-derived: the superblock fetch memo keys on it to prove a
	// line probed present is still present without re-probing.
	gen uint64
	// The fields above are the ones the access paths read. Their offsets
	// stay under 128, so each load of them encodes a one-byte
	// displacement. Placed after the fields below, they needed four, and
	// the code between ahead and execFast grew by 96 bytes: a distance
	// cpu-dense's run time is sensitive to (EXPERIMENTS, "Demand-zero cache
	// state").

	// chunkGen counts mutations per chunk of 1<<cacheChunkShift lines.
	// Host-derived.
	chunkGen []uint64
	// base is the snapshot the last load restored the arrays from and
	// baseGen the chunk generations right after it, as for Mem: a chunk
	// still at its baseGen holds base's lines. nil until a load succeeds.
	base    *snapshot.Snapshot
	baseGen []uint64
	// ram keeps the mapping the arrays live in (newCaches) alive for as
	// long as the cache is; nil when they are on the heap.
	ram *cacheRAM
}

// cacheChunkShift sets the granularity of the cache's generations: 512
// lines, so a chunk of tags is one 4 KiB host page.
const cacheChunkShift = 9

// cacheRAM is the one mapping a machine's cache arrays share, unmapped by
// a finalizer once no cache refers to it.
type cacheRAM struct{ b []byte }

// newCaches builds one cache per core, of capacity bytes in lines of
// lineSize.
// On unix hosts outside race builds their arrays are carved from one
// demand-zero mapping (mapRAM), so a machine's caches cost the host only
// the chunks its guest touches; elsewhere they are heap slices, as RAM is.
func newCaches(cores, capacity, lineSize int) []*cache {
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	n := max(capacity/lineSize, 1)
	// Each array starts on a page of its own: 8 bytes a line for the tags,
	// one each for the valid and dirty bits.
	span := func(bytes int) int { return (bytes + 1<<pageShift - 1) &^ (1<<pageShift - 1) }
	per := span(8*n) + 2*span(n)
	var ram *cacheRAM
	if b := mapRAM(cores * per); b != nil {
		ram = &cacheRAM{b}
		runtime.SetFinalizer(ram, func(r *cacheRAM) { unmapRAM(r.b) })
	}
	caches := make([]*cache, cores)
	for i := range caches {
		c := &cache{
			chunkGen:  make([]uint64, (n+1<<cacheChunkShift-1)>>cacheChunkShift),
			ram:       ram,
			lineShift: shift,
			nlines:    uint64(n),
			pow2:      n&(n-1) == 0,
			lineMask:  uint64(n - 1),
		}
		if ram == nil {
			c.tags, c.valid, c.dirty = make([]uint64, n), make([]bool, n), make([]bool, n)
		} else {
			b := ram.b[i*per:]
			c.tags = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
			b = b[span(8*n):]
			c.valid = unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), n)
			b = b[span(n):]
			c.dirty = unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), n)
		}
		caches[i] = c
	}
	return caches
}

// index folds a line number onto a cache slot: a mask when the line count
// is a power of two (always, for the shipped profiles), modulo otherwise.
func (c *cache) index(line uint64) uint64 {
	if c.pow2 {
		return line & c.lineMask
	}
	return line % c.nlines
}

// chunk returns the slots of chunk k.
func (c *cache) chunk(k int) (lo, hi int) {
	return k << cacheChunkShift, min((k+1)<<cacheChunkShift, len(c.tags))
}

// fill puts line into slot idx, dirty or clean: a miss, evicting whatever
// the slot held. It and flipDirty stay out of line, so the access paths'
// hits carry no more code than before the chunks were tracked.
//
//go:noinline
func (c *cache) fill(idx, line uint64, dirty bool) {
	c.tags[idx] = line
	c.valid[idx] = true
	c.dirty[idx] = dirty
	c.gen++
	c.chunkGen[idx>>cacheChunkShift]++
}

// setDirty sets slot idx's dirty bit to dirty; only a change counts.
func (c *cache) setDirty(idx uint64, dirty bool) {
	if c.dirty[idx] != dirty {
		c.flipDirty(idx)
	}
}

//go:noinline
func (c *cache) flipDirty(idx uint64) {
	c.dirty[idx] = !c.dirty[idx]
	c.chunkGen[idx>>cacheChunkShift]++
}

// peek counts the line misses and dirty evictions an access of
// [addr, addr+size) would cause, without changing cache state.
func (c *cache) peek(addr uint64, size int) (misses, evictions int) {
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		idx := c.index(line)
		if !c.valid[idx] || c.tags[idx] != line {
			misses++
			if c.valid[idx] && c.dirty[idx] {
				evictions++
			}
		}
	}
	return misses, evictions
}

// access commits the cache-state change for touching [addr, addr+size).
func (c *cache) access(addr uint64, size int, write bool) {
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		idx := c.index(line)
		if !c.valid[idx] || c.tags[idx] != line {
			c.fill(idx, line, write)
		} else if write {
			c.setDirty(idx, true)
		}
	}
}

// flush invalidates the whole cache (used at replica boot). A chunk still
// at generation 0 holds no line, so it is left unread.
func (c *cache) flush() {
	for k, g := range c.chunkGen {
		if g != 0 {
			lo, hi := c.chunk(k)
			clear(c.valid[lo:hi])
			clear(c.dirty[lo:hi])
			c.chunkGen[k]++
		}
	}
	c.gen++
}

// bus models the shared memory bus as a token bucket refilled every global
// cycle. Cores consume tokens for line fills and writebacks; when the
// bucket is empty they stall, which is how replica contention halves
// memcpy throughput under DMR on the x86 profile.
type bus struct {
	rate   int // tokens (bytes) added per cycle
	burst  int // bucket capacity
	tokens int // may go negative: a granted request leaves debt
	now    uint64
	q      []busWaiter // FIFO of requesters denied while the bucket drains
	// starve is the core denied every grant (arbiter fault, hardfault.go),
	// or -1. A starved core is refused outright, not enqueued, so it never
	// head-blocks the FIFO for its healthy peers.
	starve int
}

// busWaiter is one denied requester; seen is the bus cycle of its most
// recent retry, so requesters that stopped retrying (trapped, parked) can
// be dropped from the grant queue instead of blocking it.
type busWaiter struct {
	core int
	seen uint64
}

func newBus(rate int) *bus {
	return &bus{rate: rate, burst: rate * 4, tokens: rate * 4, starve: -1}
}

func (b *bus) tick() {
	b.now++
	b.tokens += b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// skip refills the bucket as k ticks would have, without iterating.
// Refilling saturates at burst, so only the ticks needed to get there
// matter; computing them first keeps the arithmetic overflow-free for
// arbitrarily large k.
func (b *bus) skip(k uint64) {
	b.now += k
	if b.rate <= 0 || b.tokens >= b.burst {
		return
	}
	need := uint64((b.burst-b.tokens-1)/b.rate) + 1
	if k >= need {
		b.tokens = b.burst
		return
	}
	b.tokens += int(k) * b.rate
}

// take grants core's request of n bytes when the bucket is non-negative,
// leaving debt that must drain before the next grant. Debt (rather than a
// hard capacity check) lets single requests exceed the per-cycle rate
// while still enforcing the average bandwidth.
//
// Grants go to denied requesters in FIFO order: without the queue, two
// cores streaming back-to-back block requests phase-lock with the token
// refill, and whichever core's retry lands first when the bucket recovers
// wins every grant — a persistent unfair split (observed 2:1 on Table V's
// full-scale membench) that no real memory controller exhibits. A waiter
// that stops retrying for two bus cycles has left for a trap or a park
// and is dropped so it cannot block the queue.
func (b *bus) take(core, n int) bool {
	if core == b.starve {
		return false
	}
	if b.tokens <= 0 {
		b.wait(core)
		return false
	}
	for len(b.q) > 0 && b.q[0].core != core && b.now-b.q[0].seen > 1 {
		b.q = b.q[1:]
	}
	if len(b.q) > 0 && b.q[0].core != core {
		b.wait(core)
		return false
	}
	if len(b.q) > 0 {
		b.q = b.q[1:]
	}
	b.tokens -= n
	return true
}

// wait enqueues core as a denied requester, or refreshes its retry stamp.
func (b *bus) wait(core int) {
	for i := range b.q {
		if b.q[i].core == core {
			b.q[i].seen = b.now
			return
		}
	}
	b.q = append(b.q, busWaiter{core: core, seen: b.now})
}
