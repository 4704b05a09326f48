package machine

import "rcoe/internal/metrics"

// This file implements the host-side execution cache: a per-core data
// translation memo (a software dTLB over AddrSpace.Segs). It memoises a
// pure function of simulated state and is provably invisible to it. The
// memo remembers the last matching segment per access class and
// re-validates it (bounds, permission, address-space key) on every hit.
// Because data VAs vary, a memoised segment only short-circuits the
// ordered scan when the layout is overlap-free, in which case at most one
// segment can match any virtual address and the memo result is identical
// to the scan's first match by construction. Overlapping or wrapping
// layouts disable the memo and always scan.
//
// Instruction fetch has no memo here: the superblock engine serves
// straight-line text from its decoded blocks, and every naive issue
// fetches through Machine.fetch, the reference path.
//
// The cost model is untouched: cache/bus accounting (Core.memAccess) runs
// after the translation exactly as on the scan path, so simulated cycles,
// stalls, and bus tokens are bit-identical — a contract enforced by the
// differential determinism suite at the repo root, which runs every
// {exec-cache × superblock} combination.

// tlbSlot memoises one segment lookup: "under layout key, this access
// class resolved through segment idx". A hit re-validates bounds and
// permission against the live segment, so the memo can never return a
// translation the scan would not.
type tlbSlot struct {
	key asKey
	idx int
}

// dataSlots is the dTLB size. Slots are selected by hashing the virtual
// page so the text/data/stack/shared regions of the kernel layout land in
// distinct slots; a collision costs a re-scan, never correctness.
const dataSlots = 4

// execCache is a core's data translation memo.
type execCache struct {
	dataSlot [dataSlots]tlbSlot

	// overlap caches the overlap-free decision for the layout under
	// overlapKey; see AddrSpace.overlapFree.
	overlapKey asKey
	overlap    bool

	// Host-side diagnostics (see Machine.ExecCacheStats).
	tlbHits, tlbMisses uint64
}

// translate resolves va for an n-byte access needing perm. The result —
// physical address and success — is bit-identical to AddrSpace.Translate:
// hits are taken only when the memoised segment still covers the access
// under an overlap-free layout, and every other case falls back to the
// ordered scan (refilling the slot on success).
func (ec *execCache) translate(as *AddrSpace, va uint64, n int, need Perm) (uint64, bool) {
	key := as.key()
	if ec.overlapKey != key {
		ec.overlapKey, ec.overlap = key, as.overlapFree()
	}
	if !ec.overlap {
		ec.tlbMisses++
		pa, _, ok := as.Translate(va, n, need)
		return pa, ok
	}
	// Bits 20+ of a data address separate the loader's text/data/stack
	// regions.
	slot := &ec.dataSlot[(va>>20)&(dataSlots-1)]
	if slot.key == key && slot.idx < len(as.Segs) {
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
		*slot = tlbSlot{key, idx}
	}
	return pa, ok
}

// ExecCacheStats aggregates the execution cache's hit/miss counters
// across all cores of a machine, as internal/metrics counters. These are
// host-side diagnostics: they measure host work saved, necessarily differ
// between cache-on and cache-off runs, and are therefore deliberately not
// part of the replication layer's metric snapshot (which the differential
// determinism fingerprints compare bit-for-bit across modes).
type ExecCacheStats struct {
	// DecodeHits/DecodeMisses always read 0: instruction fetch has no
	// memo. They stay until the benchmark stops reading them.
	DecodeHits   metrics.Counter
	DecodeMisses metrics.Counter
	// TLBHits/TLBMisses count data translations served by the memo vs
	// resolved by the ordered segment scan.
	TLBHits   metrics.Counter
	TLBMisses metrics.Counter
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
		s.TLBHits.Add(c.ec.tlbHits)
		s.TLBMisses.Add(c.ec.tlbMisses)
	}
	return s
}
