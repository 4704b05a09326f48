package machine

import (
	"rcoe/internal/isa"
	"rcoe/internal/metrics"
)

// This file implements the host-side execution cache for the busy hot
// loop: a per-core predecoded instruction cache plus a data translation
// memo (a software dTLB over AddrSpace.Segs). Both are memoisations of
// pure functions of simulated state and are provably invisible to it:
//
//   - The predecode cache is keyed on the virtual fetch address and folds
//     the whole fetch pipeline into one entry: the translation (validated
//     by address-space identity and generation — memoising the exact scan
//     result for the exact same inputs, so it is sound even for
//     overlapping layouts) and the decoded instruction (validated against
//     Mem's per-page mutation generations, so any write reaching
//     instruction bytes — a store from self-modifying code, an injected
//     bit-flip, a DMA burst, the re-integration partition copy — forces a
//     re-read and re-decode exactly as the naive loop performs on every
//     fetch).
//   - The data translation memo remembers the last matching segment per
//     access class and re-validates it (bounds, permission, address-space
//     generation) on every hit. Because data VAs vary, a memoised segment
//     only short-circuits the ordered scan when the layout is
//     overlap-free, in which case at most one segment can match any
//     virtual address and the memo result is identical to the scan's
//     first match by construction. Overlapping or wrapping layouts
//     disable the data memo and always scan.
//
// The cost model is untouched: cache/bus accounting (Core.memAccess) runs
// on the cached path at exactly the same points as on the naive path, so
// simulated cycles, stalls, and bus tokens are bit-identical — a contract
// enforced by the differential determinism suite at the repo root, which
// runs every {exec-cache × superblock} combination.

// icacheBits sizes the direct-mapped predecode cache: 1<<icacheBits
// entries, indexed by bits of the virtual fetch address. 4096 entries
// cover 32 KiB of straight-line text per core, beyond every shipped
// workload; collisions merely re-translate and re-decode.
const icacheBits = 12

// icacheEntry is one predecoded instruction with its memoised fetch
// translation. A hit requires (a) the same virtual PC under the same
// address space at the same generation — which pins the translation,
// since Translate is a pure function of (va, Segs) — and (b) unchanged
// mutation generations on the page(s) the instruction bytes span — which
// pins the decode.
type icacheEntry struct {
	pc    uint64 // virtual fetch address
	pa    uint64 // memoised translation of pc
	as    *AddrSpace
	asGen uint64
	nsegs int
	gen1  uint64 // pageGen of the first byte's page at fill time
	gen2  uint64 // pageGen of the last byte's page (== gen1 unless straddling)
	ins   isa.Instr
	valid bool
}

// tlbSlot memoises one segment lookup: "address space as, at generation
// gen with nsegs segments, resolved this access class through segment
// idx". A hit re-validates bounds and permission against the live
// segment, so the memo can never return a translation the scan would not.
type tlbSlot struct {
	as    *AddrSpace
	gen   uint64
	nsegs int
	idx   int
}

// valid reports whether the slot was filled from the current state of as.
func (s *tlbSlot) valid(as *AddrSpace) bool {
	return s.as == as && s.gen == as.gen && s.nsegs == len(as.Segs) && s.idx < len(as.Segs)
}

// dataSlots is the dTLB size. Slots are selected by hashing the virtual
// page so the text/data/stack/shared regions of the kernel layout land in
// distinct slots; a collision costs a re-scan, never correctness.
const dataSlots = 4

// execCache bundles a core's execution-cache state. It is allocated
// lazily on the first cached fetch, so halted cores (and machines running
// with the cache disabled) carry only a nil pointer.
type execCache struct {
	entries [1 << icacheBits]icacheEntry

	dataSlot [dataSlots]tlbSlot

	// overlap caches the overlap-free decision for the current address
	// space generation; see AddrSpace.overlapFree.
	overlap struct {
		as    *AddrSpace
		gen   uint64
		nsegs int
		free  bool
	}

	// Host-side diagnostics (see Machine.ExecCacheStats).
	decodeHits, decodeMisses uint64
	tlbHits, tlbMisses       uint64
}

// ecLazy returns the core's execution cache, allocating it on first use.
func (c *Core) ecLazy() *execCache {
	if c.ec == nil {
		c.ec = &execCache{}
	}
	return c.ec
}

// memoOK reports whether translation memoisation is sound for as (the
// segment layout is overlap-free), recomputing the cached decision when
// the address space changed.
func (ec *execCache) memoOK(as *AddrSpace) bool {
	o := &ec.overlap
	if o.as != as || o.gen != as.gen || o.nsegs != len(as.Segs) {
		o.as, o.gen, o.nsegs = as, as.gen, len(as.Segs)
		o.free = as.overlapFree()
	}
	return o.free
}

// translate resolves va for an n-byte access needing perm, through the
// given memo slot. The result — physical address and success — is
// bit-identical to AddrSpace.Translate: hits are taken only when the
// memoised segment still covers the access under an overlap-free layout,
// and every other case falls back to the ordered scan (refilling the
// slot on success).
func (ec *execCache) translate(as *AddrSpace, slot *tlbSlot, va uint64, n int, need Perm) (uint64, bool) {
	if !ec.memoOK(as) {
		ec.tlbMisses++
		pa, _, ok := as.Translate(va, n, need)
		return pa, ok
	}
	if slot.valid(as) {
		s := &as.Segs[slot.idx]
		end := va + uint64(n)
		if va >= s.VBase && end <= s.VBase+s.Size && end >= va {
			ec.tlbHits++
			if s.Perm&need != need {
				// Sole covering segment lacks the permission: the scan
				// would fault on it too.
				return 0, false
			}
			return s.PBase + (va - s.VBase), true
		}
	}
	ec.tlbMisses++
	pa, idx, ok := as.Translate(va, n, need)
	if ok {
		slot.as, slot.gen, slot.nsegs, slot.idx = as, as.gen, len(as.Segs), idx
	}
	return pa, ok
}

// dslot picks the dTLB slot for a data virtual address. Bits 20+ separate
// the loader's text/data/stack regions.
func (ec *execCache) dslot(va uint64) *tlbSlot {
	return &ec.dataSlot[(va>>20)&(dataSlots-1)]
}

// islot returns the direct-mapped predecode slot for a virtual PC.
func (ec *execCache) islot(pc uint64) *icacheEntry {
	return &ec.entries[(pc>>3)&(1<<icacheBits-1)]
}

// fetchHit returns pc's predecode entry when it hits under as against the
// current memory state, else nil. Small enough to inline into the
// execution loop's fast path.
func (ec *execCache) fetchHit(pc uint64, as *AddrSpace, mem *Mem) *icacheEntry {
	e := &ec.entries[(pc>>3)&(1<<icacheBits-1)]
	if e.hit(pc, as, mem) {
		return e
	}
	return nil
}

// hit reports whether e memoises fetching pc under as against the
// current memory state: translation pinned by address-space identity and
// generation, instruction bytes pinned by page mutation generations.
func (e *icacheEntry) hit(pc uint64, as *AddrSpace, mem *Mem) bool {
	if !e.valid || e.pc != pc || e.as != as || e.asGen != as.gen || e.nsegs != len(as.Segs) {
		return false
	}
	p1 := e.pa >> pageShift
	p2 := (e.pa + isa.InstrBytes - 1) >> pageShift
	return mem.pageGen[p1] == e.gen1 && (p1 == p2 || mem.pageGen[p2] == e.gen2)
}

// fill memoises a successful translate+read+decode of pc.
func (e *icacheEntry) fill(pc, pa uint64, as *AddrSpace, mem *Mem, ins isa.Instr) {
	p1 := pa >> pageShift
	p2 := (pa + isa.InstrBytes - 1) >> pageShift
	*e = icacheEntry{
		pc: pc, pa: pa,
		as: as, asGen: as.gen, nsegs: len(as.Segs),
		gen1: mem.pageGen[p1], gen2: mem.pageGen[p2],
		ins: ins, valid: true,
	}
}

// ExecCacheStats aggregates the execution cache's hit/miss counters
// across all cores of a machine, as internal/metrics counters. These are
// host-side diagnostics: they measure host work saved, necessarily differ
// between cache-on and cache-off runs, and are therefore deliberately not
// part of the replication layer's metric snapshot (which the differential
// determinism fingerprints compare bit-for-bit across modes).
type ExecCacheStats struct {
	// DecodeHits/DecodeMisses count fetches served by the predecode
	// cache (translation and decode both memoised) vs refilled.
	DecodeHits   metrics.Counter
	DecodeMisses metrics.Counter
	// TLBHits/TLBMisses count data translations served by the memo vs
	// resolved by the ordered segment scan.
	TLBHits   metrics.Counter
	TLBMisses metrics.Counter
}

// DecodeHitRate returns predecode hits over all fetches (0 when idle).
func (s *ExecCacheStats) DecodeHitRate() float64 {
	total := s.DecodeHits.Value() + s.DecodeMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.DecodeHits.Value()) / float64(total)
}

// TLBHitRate returns translation-memo hits over all translations.
func (s *ExecCacheStats) TLBHitRate() float64 {
	total := s.TLBHits.Value() + s.TLBMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.TLBHits.Value()) / float64(total)
}

// ExecCacheStats returns the machine-wide execution-cache counters.
func (m *Machine) ExecCacheStats() ExecCacheStats {
	var s ExecCacheStats
	for _, c := range m.cores {
		if c.ec == nil {
			continue
		}
		s.DecodeHits.Add(c.ec.decodeHits)
		s.DecodeMisses.Add(c.ec.decodeMisses)
		s.TLBHits.Add(c.ec.tlbHits)
		s.TLBMisses.Add(c.ec.tlbMisses)
	}
	return s
}
