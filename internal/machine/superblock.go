package machine

import (
	"math"
	"runtime"
	"slices"

	"rcoe/internal/forkjoin"
	"rcoe/internal/isa"
)

// Superblock execution: a host-side accelerator that executes hot
// straight-line instruction runs (branch-to-branch) in a dedicated batched
// loop instead of paying the full Step/advance/execOne dispatch per guest
// instruction. Like the execution cache it is provably invisible to
// simulated state: every cycle in the batch performs exactly the work the
// naive loop would — same rotation order, same bus ticks, same jitter
// draws, same cost-model calls, same traps on the same cycles — except
// that the cores are not interleaved where nothing can tell. A core may run
// ahead of the machine's clock while everything it touches is its own: its
// registers, its cache's resident lines, RAM pages no other core's address
// space maps (and no device watches, and nothing maps executable), text no
// other core can write. Whatever could observe it rewinds it first, to the
// cycle machine time has reached. While every other core is ahead the
// remaining one runs alone at the machine's clock, parked riders beside it
// or not (see runBlocks). It is also the one place idle time is charged: a
// window in which every core is parked, stalled, halted or offline is
// credited in bulk like any other window of promises. The batch re-derives
// its state, ends, or never starts whenever anything could diverge:
//
//   - a device event falls due (preemption timer, DMA, intermittent-fault
//     phase edge): the batch horizon stops one cycle short, so the event
//     cycle is always stepped naively; this is the only reason a batch
//     does not start;
//   - a core touches MMIO or a parked core's condition fires (barrier
//     release): the remainder of that cycle is serviced through the naive
//     advance path and the batch exits, because a device or the kernel may
//     have mutated any core;
//   - a core traps (syscall, fault, halt): the remainder of that cycle is
//     serviced the same way, except that a core whose run the handler left
//     alone resumes it, and then the batch re-derives everything else — the
//     cores' admission, the device horizon — and goes on; it ends only when
//     that re-derivation refuses. A local kernel entry (LocalTrapper) while
//     no core is parked rewinds nothing and re-derives only its own core;
//   - text mutates under a cached block (self-modifying code, injected
//     bit-flip, DMA, re-integration copy): the spanned pages' mutation
//     generations are re-checked before every issue and the core falls
//     back to the naive fetch path for that issue, after which it takes a
//     block again;
//   - single-step is armed, an interrupt is pending, or no block forms at
//     the core's PC: that core alone takes no block; it is credited the
//     stall it is counting down, then issues through sbNaive. An armed
//     breakpoint costs its core only the instruction at its address, which
//     issues through sbNaive (blockFor hands out no block there, no run
//     covers it); a branch watch keeps the core's blocks (sbIssue checks it,
//     no run covers the branch that fires it), and so do stuck-at bits in
//     text, under the page-generation invariant that keeps the execution
//     cache exact (hardfault.go); a run stops before a page with a stuck
//     bit.
//
// The differential determinism suite runs every {exec-cache × superblock}
// combination to enforce this.

const (
	// sbMaxLen caps a superblock at 64 instructions (512 bytes), so a
	// block spans at most two physical 4 KiB pages.
	sbMaxLen   = 64
	sbMaxPages = 2
	// sbSlots is the per-core direct-mapped block cache size; blockFor
	// folds the PC bits above the index's into it, so blocks 2 KiB apart
	// do not share a slot.
	sbSlotBits = 8
	sbSlots    = 1 << sbSlotBits
	// sbSoloMin is the shortest stretch worth running solo (see
	// Machine.solo): below it the stepped cycle costs no more than the
	// entry and the settlement.
	sbSoloMin = 2
	// sbProbe is how far a core runs ahead before its run may go on beside
	// another core's on a second host thread (runBlocks): a shorter run
	// costs less than the threads' meeting, and a workload whose cores
	// enter the kernel every few dozen instructions never starts a helper.
	sbProbe = 2048
)

// superblock is a predecoded straight-line run starting at start. Validity
// is keyed on the address space's layout (asKey) and the mutation
// generations of the spanned text pages. The page generations are held as
// pointers into Mem.pageGen (allocated once, never moved), so the
// per-issue staleness check is one or two pointer compares with no
// indexing.
type superblock struct {
	start  uint64 // virtual PC of ins[0]
	pa0    uint64 // physical address of ins[0]; the run is physically contiguous
	key    asKey
	n      int
	npages int
	gp     [sbMaxPages]*uint64 // live mutation counters of the spanned pages
	gens   [sbMaxPages]uint64  // their values when the block was decoded
	ins    [sbMaxLen]isa.Instr
}

// valid reports whether the block can serve (pc, as) right now.
func (sb *superblock) valid(pc uint64, as *AddrSpace) bool {
	if sb.n == 0 || sb.start != pc || sb.key != as.key() {
		return false
	}
	return sb.pagesFresh()
}

// pagesFresh reports whether the spanned pages are unmutated since decode.
// Called before every batched issue; small enough to inline.
func (sb *superblock) pagesFresh() bool {
	if *sb.gp[0] != sb.gens[0] {
		return false
	}
	return sb.npages == 1 || *sb.gp[1] == sb.gens[1]
}

// sbEnds reports whether op terminates a superblock: anything that can
// move PC non-sequentially. Rep-style block ops (MEMCPY/MEMSET) are not
// terminators — they keep PC in place until done, which the batch loop's
// PC bookkeeping handles naturally.
func sbEnds(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu,
		isa.OpJ, isa.OpJal, isa.OpJr, isa.OpJalr, isa.OpSyscall, isa.OpHlt:
		return true
	}
	return false
}

// sbFast[op] reports whether op is in execFast's register-only set — it
// touches nothing but the executing core's registers, counters and stall
// balance, so it can be deferred. The table is derived from execFast
// itself, so the two cannot drift.
var sbFast = func() (t [256]bool) {
	var c Core
	var cost Costs
	for op := range t {
		t[op] = execFast(&c, &isa.Instr{Op: isa.Opcode(op)}, &cost)
	}
	return t
}()

// sbCache is the per-core superblock cache. Like Core.ec it is host-derived
// state outside the snapshot boundary: never serialized, and revalidated
// by its keys after a restore.
type sbCache struct {
	blocks [sbSlots]superblock
	// built counts blocks decoded; instrs counts instructions retired
	// from the batched path (diagnostics; the hit-rate smoke test divides
	// by Core.Instructions).
	built  uint64
	instrs uint64
}

func (c *Core) sbLazy() *sbCache {
	if c.sb == nil {
		c.sb = &sbCache{}
	}
	return c.sb
}

// buildBlock decodes a straight-line run starting at c.PC into sb. The run
// never crosses a segment boundary (so it is physically contiguous) and
// includes its terminator. Returns false — leaving sb invalid — when the
// first instruction cannot be translated, read, or decoded; the naive path
// will then derive whatever trap applies.
func (m *Machine) buildBlock(c *Core, sb *superblock) bool {
	sb.n = 0
	pc := c.PC
	as := c.AS
	pa, seg, ok := as.Translate(pc, isa.InstrBytes, PermX)
	if !ok {
		return false
	}
	s := &as.Segs[seg]
	max := int((s.VBase + s.Size - pc) / isa.InstrBytes)
	if max > sbMaxLen {
		max = sbMaxLen
	}
	mem := m.mem
	n := 0
	var raw [isa.InstrBytes]byte
	for n < max {
		if mem.ReadAt(pa+uint64(n)*isa.InstrBytes, raw[:]) != nil {
			break
		}
		ins, err := isa.Decode(raw[:])
		if err != nil {
			break
		}
		sb.ins[n] = ins
		n++
		if sbEnds(ins.Op) {
			break
		}
	}
	if n == 0 {
		return false
	}
	sb.start, sb.pa0 = pc, pa
	sb.key = as.key()
	sb.n = n
	p0 := pa >> pageShift
	p1 := (pa + uint64(n)*isa.InstrBytes - 1) >> pageShift
	sb.gp[0], sb.gens[0] = &mem.pageGen[p0], mem.pageGen[p0]
	sb.npages = 1
	if p1 != p0 {
		sb.gp[1], sb.gens[1] = &mem.pageGen[p1], mem.pageGen[p1]
		sb.npages = 2
	}
	return true
}

// blockFor returns a valid superblock starting at c.PC, building one into
// the core's direct-mapped cache on miss, or nil when the core stands on
// its armed breakpoint (that instruction issues naively, which checks it)
// or the code there cannot form a block. Every block a core takes, at the
// gate, after a naive issue or on a chain, comes from here.
func (m *Machine) blockFor(c *Core) *superblock {
	if c.BP.Enabled && c.PC == c.BP.Addr {
		return nil
	}
	sc := c.sbLazy()
	sb := &sc.blocks[(c.PC>>3^c.PC>>(3+sbSlotBits))&(sbSlots-1)]
	if sb.valid(c.PC, c.AS) {
		return sb
	}
	if m.buildBlock(c, sb) {
		sc.built++
		return sb
	}
	return nil
}

// watchMem registers [lo, hi) as device-watched RAM (see MemWatcher):
// pointers into the pages' mutation generations are kept so the batched
// loop can detect a store into the range with bare compares. pageGen is
// allocated once at NewMem and never moved, so the pointers stay valid
// for the machine's lifetime; snapshot restores mutate the slots in
// place.
func (m *Machine) watchMem(lo, hi uint64) {
	if hi <= lo {
		return
	}
	pg := m.mem.pageGen
	for p := lo >> pageShift; p <= (hi-1)>>pageShift && p < uint64(len(pg)); p++ {
		m.watchGp = append(m.watchGp, &pg[p])
		m.watchPg = append(m.watchPg, p)
	}
	m.watchSnap = make([]uint64, len(m.watchGp))
}

// watchDirty reports whether any device-watched page mutated since the
// batch-entry snapshot. Only the full exec path can write memory (the
// fast set is registers-only), so the batch checks this after memory ops
// alone; with no watchers registered the caller's nil check skips even
// the call.
func (m *Machine) watchDirty() bool {
	for i, gp := range m.watchGp {
		if *gp != m.watchSnap[i] {
			return true
		}
	}
	return false
}

// sbRunState tracks one core's progress through the batched loop: a core
// running at batch entry is serviced from its superblock, or credited its
// stall and then issued naively when it may not take one (stall-only), one
// parked at entry (a rider) is polled via advance or credited in bulk, and
// halted or offline cores take no part. fline and fgen memoize the last
// fetch-probed cache line: while the core's cache generation is unchanged,
// a line probed present is still present, so sequential fetches within the
// line skip the probe entirely (a fetch hit changes no cache or bus state,
// so skipping it is free).
//
// promise and lag implement run-ahead execution (see runBlocks). A promise
// is a run the core has already executed, ahead of machine time, from the
// checkpoint ck: promise is how many of its cycles the loop has still to
// credit, lag how many it has credited. The core's registers, memory and
// cache stand at the run's end, and log holds what undoes the run's stores.
// After an observation rewound the core (back), it stands at machine time,
// ck is that state, and end, atEnd and redo hold the run's remainder for
// resume. Outside a batch lag is 0 and every core with a promise is back:
// the next gate resumes it or drops it.
type sbRunState struct {
	c       *Core
	parked  bool
	sb      *superblock // nil stall-only or after a failed chain: the stall, then one naive issue
	pos     int
	fline   uint64
	fgen    uint64
	promise uint64
	lag     uint64
	// sbRoom's LocalTrap prediction for the syscall the core stood on at
	// localPC with localAt instructions retired (localAhead).
	local            bool
	localPC, localAt uint64

	// The run's start: the core's state and its block position.
	ck  coreRun
	at0 blockAt
	// log undoes the run's stores and dirty bits; pages lists every page
	// the run fetched from or accessed, and lastPage memoizes the last one
	// added (untracked: more than aheadPages of them).
	log       aheadLog
	pages     []aheadPage
	lastPage  uint64
	untracked bool

	// After a rewind: the run's end state and block position, the stores
	// and dirty bits of its cycles past machine time, why it was rewound,
	// and what resume compares against — the address space and cache
	// generation, the privacy map's epoch, and (in pages) the generations of
	// the pages the run touched.
	back    bool
	stalled bool // the rewound run only counted a stall down
	why     rewindCause
	end     coreRun
	atEnd   blockAt
	redo    aheadLog
	as      asKey
	cgen    uint64
	privGen uint64
}

// blockAt is a core's place in its block cache: the block, the index in
// it, and the block's start, which tells whether the slot still holds it.
type blockAt struct {
	sb    *superblock
	pos   int
	start uint64
}

func (st *sbRunState) blockAt() blockAt {
	if st.sb == nil {
		return blockAt{}
	}
	return blockAt{st.sb, st.pos, st.sb.start}
}

// setBlock puts st's core at b, or on a block built at its PC when b's slot
// was rebuilt since: a run fetches only text no core can write while it is
// ahead, so either holds what the core executes next.
func (m *Machine) setBlock(st *sbRunState, b blockAt) {
	st.sb, st.pos = b.sb, b.pos
	if b.sb != nil && !b.sb.valid(b.start, st.c.AS) {
		st.sb, st.pos = m.blockFor(st.c), 0
	}
}

// coreRun is the part of a core a run depends on or changes: what a
// promise's checkpoint saves, a rewind restores and resume compares. Only
// the kernel changes the interrupt latches and debug registers, and never
// while a core is ahead, so restoring them restores what they were.
type coreRun struct {
	regs                     [isa.NumRegs]uint64
	pc                       uint64
	stall                    int
	jitter                   uint64
	cycles, instrs, branches uint64
	llAddr                   uint64
	llValid                  bool
	pendingIRQ               uint64
	pendingIPI, intEnabled   bool
	bp                       Breakpoint
	resumeOnce, singleStep   bool
	branchWatch, blockWatch  struct {
		Target  uint64
		Enabled bool
	}
}

func (c *Core) saveRun(r *coreRun) {
	r.regs, r.pc, r.stall, r.jitter = c.Regs, c.PC, c.stall, c.jitter
	r.cycles, r.instrs, r.branches = c.Cycles, c.Instructions, c.UserBranches
	r.llAddr, r.llValid, r.pendingIRQ, r.pendingIPI, r.intEnabled = c.llAddr, c.llValid, c.pendingIRQ, c.pendingIPI, c.IntEnabled
	r.bp, r.resumeOnce, r.singleStep, r.branchWatch = c.BP, c.ResumeOnce, c.SingleStep, c.BranchWatch
	r.blockWatch.Target, r.blockWatch.Enabled = c.BlockWatch.Rem, c.BlockWatch.Enabled
}

// atRun reports whether the core stands exactly at r.
func (c *Core) atRun(r *coreRun) bool {
	return c.Regs == r.regs && c.PC == r.pc && c.stall == r.stall && c.jitter == r.jitter &&
		c.Cycles == r.cycles && c.Instructions == r.instrs && c.UserBranches == r.branches &&
		c.llAddr == r.llAddr && c.llValid == r.llValid && c.pendingIRQ == r.pendingIRQ &&
		c.pendingIPI == r.pendingIPI && c.IntEnabled == r.intEnabled && c.BP == r.bp &&
		c.ResumeOnce == r.resumeOnce && c.SingleStep == r.singleStep && c.BranchWatch == r.branchWatch &&
		c.BlockWatch.Rem == r.blockWatch.Target && c.BlockWatch.Enabled == r.blockWatch.Enabled
}

func (c *Core) loadRun(r *coreRun) {
	c.Regs, c.PC, c.stall, c.jitter = r.regs, r.pc, r.stall, r.jitter
	c.Cycles, c.Instructions, c.UserBranches = r.cycles, r.instrs, r.branches
	c.llAddr, c.llValid, c.pendingIRQ, c.pendingIPI, c.IntEnabled = r.llAddr, r.llValid, r.pendingIRQ, r.pendingIPI, r.intEnabled
	c.BP, c.ResumeOnce, c.SingleStep, c.BranchWatch = r.bp, r.resumeOnce, r.singleStep, r.branchWatch
	c.BlockWatch.Rem, c.BlockWatch.Enabled = r.blockWatch.Target, r.blockWatch.Enabled
}

// aheadLog records what a run ahead of machine time stored: a copy of
// each 64-byte chunk of RAM it stored into — taken before its first store
// there in an undo log, at the run's end in a redo log — and the cache lines
// it turned dirty. seen remembers, per run (gen), the chunks already
// copied: a chunk costs one copy however many stores it takes (a collision
// in seen only copies a chunk twice, and the earlier copy still wins an
// undo, which goes last to first).
type aheadLog struct {
	chunks []uint64
	bytes  []byte // logChunk each
	dirty  []uint64
	seen   [256]struct{ chunk, gen uint64 }
	gen    uint64
}

const (
	logShift = 6
	logChunk = 1 << logShift
)

func (l *aheadLog) reset() {
	l.chunks, l.bytes, l.dirty = l.chunks[:0], l.bytes[:0], l.dirty[:0]
	l.gen++
}

// save copies the chunks of [pa, pa+n) the log does not hold yet.
func (l *aheadLog) save(mem *Mem, pa uint64, n int) {
	for k := pa >> logShift; k <= (pa+uint64(n)-1)>>logShift; k++ {
		e := &l.seen[k&(uint64(len(l.seen))-1)]
		if e.chunk == k && e.gen == l.gen+1 {
			continue
		}
		e.chunk, e.gen = k, l.gen+1
		l.chunks = append(l.chunks, k)
		l.bytes = append(l.bytes, mem.bytes[k<<logShift:min((k+1)<<logShift, mem.Size())]...)
	}
}

// write puts the logged chunks into memory, last to first, and sets or
// clears the logged lines' dirty bits.
func (l *aheadLog) write(mem *Mem, ch *cache, dirty bool) {
	end := uint64(len(l.bytes))
	for i := len(l.chunks) - 1; i >= 0; i-- {
		lo := l.chunks[i] << logShift
		n := min(lo+logChunk, mem.Size()) - lo
		_ = mem.Write(lo, l.bytes[end-n:end])
		end -= n
	}
	for _, idx := range l.dirty {
		ch.setDirty(idx, dirty)
	}
}

// aheadPage is a page a run touched and its mutation generation.
type aheadPage struct{ p, gen uint64 }

// aheadPages caps the pages a run tracks for resume; a run touching more
// is rewound for good by the first observation.
const aheadPages = 32

// rewindCause names the observation that rewound a run (Rewinds).
type rewindCause uint8

const (
	rwTrap   rewindCause = iota // a trap: the kernel ran
	rwMMIO                      // a device register access
	rwPark                      // a park condition's evaluation
	rwSeen                      // a solo store another core or a device can see
	rwShadow                    // a DebugCondShadow or DebugParkShadow evaluation
	rwExit                      // the batch ended
	nRewindCauses
)

// pgShared marks a page in Machine.pgData or pgWriter that more than one
// core maps (or, in pgData, that no run may access).
const pgShared = 0xff

// privSeg is what one segment of core id's address space gives the
// privacy map: its physical range and whether it is writable or executable.
type privSeg struct {
	id          int
	pbase, size uint64
	perm        Perm
}

// privRefresh rebuilds the privacy map when what it is built from changed:
// the physical ranges the cores' address spaces map and how, or the set of
// device-watched pages. pgData[p] is id+1 when page p is private data of
// core id: mapped by that core's address space alone, never executable,
// not device-watched, under no MMIO window. pgWriter[p] is id+1 when core
// id's address space is the only one mapping p writable, 0 when none does.
// Only kernel or host code changes an address space, and each such change
// is followed by a gate (sbGate), which refreshes the map. An address-space
// change that maps the same physical pages the same way (a virtual remap)
// leaves the map and privGen alone; a rewound run of that core sees it in
// its own address-space key (resume).
func (m *Machine) privRefresh() {
	if len(m.privKeys) == len(m.cores) && m.privWatch == len(m.watchPg)+len(m.windows) {
		same := true
		for i, c := range m.cores {
			if m.privKeys[i] != c.AS.key() {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	m.privKeys = m.privKeys[:0]
	var segs []privSeg
	for i, c := range m.cores {
		m.privKeys = append(m.privKeys, c.AS.key())
		if c.AS == nil {
			continue
		}
		for _, s := range c.AS.Segs {
			segs = append(segs, privSeg{i, s.PBase, s.Size, s.Perm & (PermW | PermX)})
		}
	}
	if m.pgData != nil && m.privWatch == len(m.watchPg)+len(m.windows) && slices.Equal(segs, m.privSegs) {
		return
	}
	m.privSegs = segs
	np := len(m.mem.pageGen)
	if m.pgData == nil {
		m.pgData, m.pgWriter = make([]uint8, np), make([]uint8, np)
	} else {
		clear(m.pgData)
		clear(m.pgWriter)
	}
	mark := func(v *uint8, id uint8) {
		if *v == 0 {
			*v = id
		} else if *v != id {
			*v = pgShared
		}
	}
	ram := m.mem.Size()
	for _, s := range segs {
		if s.size == 0 || s.pbase >= ram {
			continue
		}
		id := uint8(s.id + 1)
		hi := ram
		if s.size < ram-s.pbase {
			hi = s.pbase + s.size
		}
		for p := s.pbase >> pageShift; p <= (hi-1)>>pageShift; p++ {
			mark(&m.pgData[p], id)
			if s.perm&PermX != 0 {
				m.pgData[p] = pgShared
			}
			if s.perm&PermW != 0 {
				mark(&m.pgWriter[p], id)
			}
		}
	}
	if len(m.cores) >= pgShared { // core IDs do not fit: nothing is private
		for p := range m.pgData {
			m.pgData[p], m.pgWriter[p] = pgShared, pgShared
		}
	}
	for _, p := range m.watchPg {
		m.pgData[p] = pgShared
	}
	for _, w := range m.windows { // an access there reaches the device
		for p := w.base >> pageShift; w.base < ram && p <= (min(w.base+w.size, ram)-1)>>pageShift; p++ {
			m.pgData[p] = pgShared
		}
	}
	m.privWatch = len(m.watchPg) + len(m.windows)
	m.privGen++
}

// promise makes st's core a promise from where it stands: it runs the core
// ahead (ahead), checkpointed, for at most limit cycles, returning
// how many it ran. A core on a block whose text changed since decode
// promises nothing: its next issue takes the stale-text path.
func (m *Machine) promise(st *sbRunState, limit uint64) uint64 {
	if sb := st.sb; sb != nil && !sb.pagesFresh() {
		return 0
	}
	st.at0 = st.blockAt()
	st.pages, st.lastPage, st.untracked = st.pages[:0], ^uint64(0), false
	st.c.saveRun(&st.ck)
	n := m.ahead(st, limit)
	m.sbAhead += n
	return n
}

// ahead executes st's core ahead of machine time for at most limit cycles
// and returns how many it ran: per cycle exactly what the interleaved loop
// does for the core — cycle count, stall, one jitter draw per issue
// opportunity from the same stream, the fetch-hit charge, the instruction,
// the block chain — with everything it touches its own. It stops, with the
// cycle's jitter draw taken back, before an issue that could touch anything
// else or be observed: a fetch from a line not resident in the core's cache
// or from a page another core's address space maps writable; any op but a
// fast one, a divide by a non-zero divisor, or a load, store, MEMCPY or
// MEMSET that hits resident lines of the core's private pages (aheadSlow);
// the armed breakpoint's address; a branch that would fire the armed branch
// watch. A stall is counted down in one step. It stops at a chain that
// finds no block, and a core standing on its breakpoint keeps no block
// (blockFor hands out none there), so its next issue goes through the naive
// path. ahead also replays the first cycles of a run after a rewind: the
// same state, memory and map make it take the same path. Every choice it
// makes depends on the core's state, its block position and its own pages
// alone, never on where a call began, so ahead(a) then ahead(b) leaves what
// ahead(a+b) leaves; runBlocks splits runs there.
func (m *Machine) ahead(st *sbRunState, limit uint64) uint64 {
	c := st.c
	ch := c.cache
	shift := m.prof.JitterShift
	cost := &m.prof.Costs
	hitExtra := cost.MemHit - 1
	bp := ^uint64(0)
	if c.BP.Enabled {
		bp = c.BP.Addr
	}
	bw := ^uint64(0) // the next branch fires the watch once UserBranches reaches bw
	if c.BranchWatch.Enabled {
		bw = c.BranchWatch.Target - min(c.BranchWatch.Target, 1)
	}
	fline := ^uint64(0) // the last fetch line found resident on a page the core may run
	sb, pos := st.sb, st.pos
	if c.PC == bp {
		sb = nil
	}
	n := uint64(0)
	for n < limit {
		if c.stall > 0 {
			d := min(uint64(c.stall), limit-n)
			c.stall -= int(d)
			c.Cycles += d
			n += d
			continue
		}
		if sb == nil {
			break
		}
		j := c.jitter
		if c.nextJitter(shift) {
			c.Cycles++
			n++
			continue
		}
		ins := &sb.ins[pos]
		fpa := sb.pa0 + uint64(pos)*isa.InstrBytes
		if line := fpa >> ch.lineShift; line != fline {
			if !m.aheadFetch(st, fpa) {
				c.jitter = j
				break
			}
			fline = line
		}
		if c.UserBranches >= bw && sbEnds(ins.Op) {
			c.jitter = j
			break
		}
		prev := c.PC
		if !execFast(c, ins, cost) && !m.aheadSlow(st, ins) {
			c.jitter = j
			break
		}
		c.Cycles++
		n++
		if hitExtra > 0 {
			c.stall += hitExtra
		}
		c.Instructions++
		switch c.PC {
		case prev + isa.InstrBytes:
			if pos++; pos == sb.n || c.PC == bp {
				sb, pos = m.blockFor(c), 0
			}
		case prev: // a block op still copying
		default:
			sb, pos = m.blockFor(c), 0
		}
	}
	st.sb, st.pos, st.fline = sb, pos, ^uint64(0)
	return n
}

// aheadFetch reports whether the fetch at fpa may run ahead: a resident
// line, on a page no other core's address space maps writable.
func (m *Machine) aheadFetch(st *sbRunState, fpa uint64) bool {
	ch := st.c.cache
	line := fpa >> ch.lineShift
	idx := ch.index(line)
	if !ch.valid[idx] || ch.tags[idx] != line || (fpa+isa.InstrBytes-1)>>ch.lineShift != line {
		return false
	}
	p := fpa >> pageShift
	if w := m.pgWriter[p]; w != 0 && w != uint8(st.c.ID+1) {
		return false
	}
	st.touch(p)
	return true
}

// aheadXlate translates an n-byte access at va that needs perm (m.xlate)
// into a physical address in the core's private pages (pgData), free of
// stuck bits, or reports that it cannot: the translation faults, or some
// byte lies in a page that is not the core's own.
func (m *Machine) aheadXlate(st *sbRunState, va uint64, n int, need Perm) (uint64, bool) {
	c := st.c
	pa, ok := m.xlate(c, va, n, need)
	if !ok {
		return 0, false
	}
	mem, id := m.mem, uint8(c.ID+1)
	for p := pa >> pageShift; p <= (pa+uint64(n)-1)>>pageShift; p++ {
		if p >= uint64(len(m.pgData)) || m.pgData[p] != id || len(mem.stuck) != 0 && mem.stuckOn(p) {
			return 0, false
		}
		st.touch(p)
	}
	return pa, true
}

// aheadSlow executes a slow op ahead of machine time when it touches
// nothing but the core's own state, and reports whether it did, changing
// nothing when it did not: a divide by a non-zero divisor, or a load,
// store, MEMCPY or MEMSET whose every byte lies in lines resident in the
// core's cache (aheadHit) and in its private pages (aheadXlate). A block op
// is refused under an armed block watch. Once its operands are known to
// keep it there, the op runs through execSlow's own code — a load or store
// through its RAM arm (ramLoad, ramStore) at the address aheadXlate found,
// any other op through execSlow — with what undoes a store logged first:
// the chunks it writes and the lines it turns dirty.
func (m *Machine) aheadSlow(st *sbRunState, ins *isa.Instr) bool {
	c := st.c
	switch ins.Op {
	case isa.OpDiv, isa.OpDivu, isa.OpRem:
		if c.reg(ins.Rs2) == 0 {
			return false
		}
	case isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8:
		size := loadSize(ins.Op)
		va := c.reg(ins.Rs1) + uint64(int64(ins.Imm))
		pa, ok := m.aheadXlate(st, va, size, PermR)
		if !ok || !aheadHit(c.cache, pa, size) {
			return false
		}
		return m.ramLoad(c, ins, va, pa, size)
	case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
		size := storeSize(ins.Op)
		va := c.reg(ins.Rs1) + uint64(int64(ins.Imm))
		pa, ok := m.aheadXlate(st, va, size, PermW)
		ch := c.cache
		if !ok || !aheadHit(ch, pa, size) {
			return false
		}
		st.log.save(m.mem, pa, size)
		for l := pa >> ch.lineShift; l <= (pa+uint64(size)-1)>>ch.lineShift; l++ {
			if idx := ch.index(l); !ch.dirty[idx] {
				st.log.dirty = append(st.log.dirty, idx)
			}
		}
		return m.ramStore(c, ins, va, pa, size)
	case isa.OpMemcpy, isa.OpMemset:
		if rem := c.reg(ins.Rd); rem != 0 {
			if c.BlockWatch.Enabled {
				return false
			}
			chunk := int(min(rem, uint64(m.prof.MemCopyChunk)))
			dst, ok := m.aheadXlate(st, c.reg(ins.Rs1), chunk, PermW)
			if !ok || !aheadHit(c.cache, dst, chunk) {
				return false
			}
			if ins.Op == isa.OpMemcpy {
				src, ok := m.aheadXlate(st, c.reg(ins.Rs2), chunk, PermR)
				if !ok || !aheadHit(c.cache, src, chunk) {
					return false
				}
			}
			st.log.save(m.mem, dst, chunk) // a chunk that hits throughout dirties no line (streamAccess)
		}
	default:
		return false
	}
	m.execSlow(c, ins)
	return true
}

// aheadHit reports whether every line of [pa, pa+n) is resident in ch.
func aheadHit(ch *cache, pa uint64, n int) bool {
	for l := pa >> ch.lineShift; l <= (pa+uint64(n)-1)>>ch.lineShift; l++ {
		if idx := ch.index(l); !ch.valid[idx] || ch.tags[idx] != l {
			return false
		}
	}
	return true
}

// stuckOn reports whether page p holds a stuck bit.
func (m *Mem) stuckOn(p uint64) bool {
	for a := range m.stuck {
		if a>>pageShift == p {
			return true
		}
	}
	return false
}

// touch adds page p to the pages the run touched.
func (st *sbRunState) touch(p uint64) {
	if p == st.lastPage {
		return
	}
	st.lastPage = p
	for _, pg := range st.pages {
		if pg.p == p {
			return
		}
	}
	if len(st.pages) == aheadPages {
		st.untracked = true
		return
	}
	st.pages = append(st.pages, aheadPage{p: p})
}

// commit ends a promise the loop has credited in full: the core's state
// is machine time's, so the undo log is dropped.
func (m *Machine) commit(st *sbRunState) {
	st.lag = 0
	st.log.reset()
	if c := st.c; c.sb != nil {
		c.sb.instrs += c.Instructions - st.ck.instrs
	}
}

// rewind brings an ahead core back to machine time: it keeps the run's end
// state and the chunks it stored into as they are for resume, undoes the log,
// restores the checkpoint and replays the lag cycles the loop has credited
// with the same executor. The core then stands at machine time, back, and
// that state is its new checkpoint.
func (m *Machine) rewind(st *sbRunState, why rewindCause) {
	c := st.c
	// A run that only counted a stall down differs from machine time's state
	// in the stall and the cycle count alone.
	st.stalled = c.Instructions == st.ck.instrs && c.jitter == st.ck.jitter && len(st.log.chunks) == 0
	if st.stalled {
		c.stall += int(st.promise)
		c.Cycles -= st.promise
		m.commit(st)
		st.ck.stall, st.ck.cycles = c.stall, c.Cycles
	} else {
		c.saveRun(&st.end)
		st.atEnd = st.blockAt()
		r := &st.redo
		r.reset()
		for _, k := range st.log.chunks {
			r.save(m.mem, k<<logShift, logChunk)
		}
		r.dirty = append(r.dirty, st.log.dirty...)
		st.log.write(m.mem, c.cache, false) // kept: the replay's first stores find their chunks logged
		c.loadRun(&st.ck)
		m.setBlock(st, st.at0)
		if st.lag != 0 {
			m.ahead(st, st.lag)
			m.sbReplayed += st.lag
		}
		m.commit(st)
		c.saveRun(&st.ck)
		st.at0 = st.blockAt()
	}
	for i := range st.pages {
		st.pages[i].gen = m.mem.pageGen[st.pages[i].p]
	}
	st.as, st.cgen, st.privGen = c.AS.key(), c.cache.gen, m.privGen
	st.back, st.why = true, why
}

// resume reports whether st's promise survived code other than the core's
// own run — a trap handler, a park condition or its done hook — having run
// while the core stood at machine time, and if so puts the core back at the
// run's end. A core nothing rewound survived: nothing ran that could change
// it. A rewound one survived when it is still running and everything the
// run read is as the rewind left it: the core's state (interrupt latches and
// debug registers included), its address space, its cache's lines, the
// privacy map and every page the run touched. The remaining stores are then
// made again and the end state restored, with no cycle re-executed.
func (m *Machine) resume(st *sbRunState) bool {
	c := st.c
	if st.promise == 0 || c.State != CoreRunning {
		return false
	}
	if !st.back {
		return true
	}
	m.privRefresh()
	if c.AS.key() != st.as || c.cache.gen != st.cgen || m.privGen != st.privGen || st.untracked {
		return false
	}
	if !c.atRun(&st.ck) {
		return false
	}
	for _, pg := range st.pages {
		if m.mem.pageGen[pg.p] != pg.gen {
			return false
		}
	}
	st.fline, st.back = ^uint64(0), false
	if st.stalled {
		c.stall -= int(st.promise)
		c.Cycles += st.promise
		return true
	}
	r, ch := &st.redo, c.cache
	for _, k := range r.chunks {
		st.log.save(m.mem, k<<logShift, logChunk)
	}
	for _, idx := range r.dirty {
		if !ch.dirty[idx] {
			st.log.dirty = append(st.log.dirty, idx)
		}
	}
	r.write(m.mem, ch, true)
	r.reset()
	c.loadRun(&st.end)
	m.setBlock(st, st.atEnd)
	return true
}

// drop ends the promise of a core an observation rewound (or, should none
// have, rewinds it as the batch's end would) and counts the cycles it ran
// ahead for nothing.
func (m *Machine) drop(st *sbRunState) {
	if st.promise != 0 && !st.back {
		m.rewind(st, rwExit)
	}
	if st.back {
		m.sbRewound[st.why] += st.promise
	}
	st.promise, st.back = 0, false
	st.redo.reset()
}

// batchExit names why a batch ended (SuperblockStats.Exits). The first
// two are observations the batch survives when re-deriving its state
// allows it; they count as exits only when it does not.
type batchExit uint8

const (
	exitNone    batchExit = iota
	exitTrap              // a trap (the kernel ran)
	exitWatched           // a store into device-watched RAM, or a solo store another core can see
	exitMMIO              // a device register access
	exitWake              // a parked core's condition fired
	exitHorizon           // the limit or the device horizon was reached
	exitRefused           // the batch could not start: a device event is due
	nBatchExits
)

// Machine.sbExit bits.
const (
	sbExitTrap uint8 = 1 << iota
	sbExitMMIO
	sbExitLocal // a local kernel entry (LocalTrapper): only its core is re-derived
)

// sbRest finishes the current cycle's rotation after core idx, once code
// other than a core's own run has run with every core at machine time (a
// trap, an MMIO access, a park wake, or a store another core or a device
// can see): exactly as Step would, except that a core whose promise
// survived that code (resume) is put back at its run's end and charged its
// slot against the promise. Every other core is visited through the naive
// advance path, the cores the batch was not driving included — kernel code
// may have mutated or started any core — and loses its promise. seen is what ran; sbRest returns it, or exitMMIO or
// exitWake when a device was accessed or a park woke, which the batch does
// not survive.
func (m *Machine) sbRest(idx int, seen batchExit) batchExit {
	n := len(m.cores)
	for {
		if idx++; idx == n {
			idx = 0
		}
		if idx == m.rr {
			break
		}
		c, st := m.cores[idx], &m.sbRun[idx]
		switch {
		case c.State == CoreHalted || c.State == CoreOffline:
		case m.resume(st):
			st.promise--
			st.lag++
		default:
			if st.promise != 0 {
				m.drop(st)
			}
			epoch, parked := m.parkEpoch, c.State == CoreParked
			m.advance(c)
			if parked && m.parkEpoch != epoch {
				seen = exitWake
			}
		}
	}
	if m.sbExit&sbExitMMIO != 0 {
		seen = exitMMIO
	}
	m.sbExit = 0
	return seen
}

// sbGate lists in sbAct the cores a batch drives, and returns how many of
// them are parked. A running core takes a superblock at its PC (sbBlock) or
// is admitted stall-only: credited the stall it counts down, then issued
// naively. Parked cores ride along; halted and offline ones take no part.
// It is the batch entry's gate and the re-derivation after a cycle in
// which code other than a core's own run ran: a core whose promise survived
// that code (resume) is taken over as it stands, lag included — at batch
// entry, one the last batch's end rewound and whatever ran in between left
// alone — and every other one is derived afresh. It refuses no core. It
// refreshes the privacy map first: only code that runs before a gate can
// change an address space.
func (m *Machine) sbGate() (nparked int) {
	m.privRefresh()
	act := m.sbGated[:0]
	for i, c := range m.cores {
		st := &m.sbRun[i]
		if m.resume(st) {
			act = append(act, st)
			continue
		}
		if st.promise != 0 {
			m.drop(st)
		} else if st.lag != 0 {
			m.commit(st)
		}
		st.c, st.sb = c, nil
		switch c.State {
		case CoreHalted, CoreOffline:
			continue
		case CoreParked:
			st.parked = true
			nparked++
		default:
			st.sb = m.sbBlock(c)
			st.parked, st.pos = false, 0
			st.fline = ^uint64(0) // no line memoized yet
		}
		act = append(act, st)
	}
	m.sbAct, m.sbGated = act, m.sbAct[:0]
	return nparked
}

// sbBlock returns the superblock a running core issues from next, or nil
// when it must issue naively: an interrupt pending (the naive issue
// delivers it), single-step armed (the naive issue checks it), or none of
// blockFor's (the core stands on its armed breakpoint, or no block forms at
// its PC and the naive fetch traps there). A breakpoint armed elsewhere
// keeps the core's blocks.
func (m *Machine) sbBlock(c *Core) *superblock {
	if c.pendingIRQ != 0 || c.pendingIPI || c.SingleStep {
		return nil
	}
	return m.blockFor(c)
}

// sbHorizon returns how many of the next limit cycles a batch may run: it
// must end one cycle before the earliest device event so that cycle is
// stepped naively. It refuses only when an event is due next cycle.
func (m *Machine) sbHorizon(limit uint64) (uint64, bool) {
	for _, d := range m.devices {
		ne := d.NextEvent(m.now)
		if ne == NoEvent {
			continue
		}
		if ne <= m.now+1 {
			return 0, false
		}
		if d := ne - m.now - 1; d < limit {
			limit = d
		}
	}
	return limit, true
}

// runBlocks executes up to limit cycles through the superblock engine and
// returns the number of cycles consumed (0 when a device event is due next
// cycle, which only a naive step may run). cond is RunUntil's condition,
// nil under Run; it cannot turn true inside a batch except through the
// handler of a trap other than a local one (see RunUntil), so it is
// evaluated after every cycle with such a trap the batch goes on from, and,
// before every batched cycle except the first, when DebugCondShadow is set.
//
// Cores ahead of the clock and the one core at machine time. Between two
// kernel entries a replica is an independent instruction stream, so the
// loop does not interleave the cores cycle by cycle where nothing can tell.
// Two complementary rules: a core may run ahead of the machine's clock
// while everything it touches is its own, and whatever could observe it
// rewinds it first; a core at the machine's clock may execute anything.
//
//   - Promise. At the loop top a core without a promise makes one
//     (promise): it checkpoints itself and executes ahead (ahead) until the
//     next issue could touch anything not its own — a fill, a page another
//     core maps, a device, a trap — or be observed, or the horizon. The
//     cycles it ran are its promise, the cycles the loop still owes it
//     credit for; meanwhile its registers, memory and cache stand at the
//     run's end, with an undo log of the old bytes and dirty bits behind it.
//     A run executes sbProbe cycles first; the runs that use them all go
//     on side by side on two host threads (goOn).
//   - Credit. While the promise lasts a cycle services the core with
//     lag++ in its slot of the rotation; when every executing core is
//     promised and every parked rider provably stays parked, the shortest
//     promise is charged in one step with no rotation at all. With every
//     core parked, stall-only or halted this is the idle skip: the machine
//     jumps to a stall's end, a rider's wake cycle, or the horizon.
//   - Commit. When the loop has credited a promise in full, machine time
//     has caught up with the run and its log is dropped (commit); the core
//     makes its next promise without spending a cycle.
//   - Solo. When exactly one executing core holds no promise and every
//     other core's promise, and every rider's bound (sbRiderBound), lasts
//     at least sbSoloMin cycles, that core runs alone for the shortest of
//     them (solo): it is the only core that does anything in those cycles,
//     so the machine's clock simply follows it, one cycle per issue
//     opportunity, any op, no promise to make or keep — from its block, or
//     through the naive issue path when it has none. The other cores'
//     credits for the stretch, the riders' included, are settled by
//     arithmetic (sbSettle) when it ends or at the first observation point
//     inside it. A rider rides along: its declarations prove it stays
//     parked, and the one of them the solo core can move without an
//     observation point, its watched page, ends the run when a store moves
//     it.
//
// Observation points are the places where code other than a core's own run
// can read or write a core ahead of the clock, and each starts with sbSync,
// which rewinds it: undo the log, restore the checkpoint, replay the lag
// cycles the loop has credited with the same executor. They are
// Machine.trap (the kernel) unless the entry is local, both MMIO arms of
// execSlow (a device), the evaluation of a park condition in advance (and
// of its DebugParkShadow twin), the DebugCondShadow evaluation here, a solo
// core's store that the rest of the machine has to see (watched RAM, a
// rider's watched page), and batch end (the host). Devices tick only
// outside batches (the horizon), and a device's NextEvent reads only
// watched RAM, which no run touches. A local kernel entry while no core is
// parked is no observation point: its handler promises (LocalTrapper) to
// touch no core but its own, no RAM another core maps and nothing a device
// or RunUntil's condition reads, and what else it changes only kernel code
// and park conditions read — and with no core parked there is no park to
// evaluate — so nothing can tell that the other cores' runs stayed ahead.
// Only its own core is re-derived (sbIssue, sbNaive) and the batch goes on
// after the usual store checks; a handler that leaves its core not running
// makes the entry an observation point after all, and DebugLocalShadow
// checks the promise. sbRoom does not cap runs at a syscall the handler
// calls local.
// Credits are rotation-exact: a core is credited a cycle in its own slot —
// one by one in the rotation, or by slot arithmetic when a solo run is
// observed mid-cycle — so when a core traps, the cores serviced before it
// in that cycle are replayed through the cycle and the ones after it are
// not, which is what naive stepping would show the handler. No store of a
// core at machine time can reach what a run touched: a run's data pages are
// mapped by no other core's address space, and its text by none writable
// (privRefresh). A rewound core keeps its run's end and remaining stores;
// where the observation left everything the run read alone (resume) they
// are put back instead of executed again — after a trap handler (sbRest),
// at the next loop top, and across a batch's end at the next gate — and
// otherwise the run is dropped. A parked rider's condition is host code
// too: it is only evaluated after an sbSync, and its declarations
// (Core.Park) prove it false in between.
//
// A batch ends only where something can observe its end. A naive issue is
// no such place: it is followed by a slow op's checks (watched RAM) and
// re-derives only its own core (sbNaive). After a trap, a store into
// device-watched RAM or a solo core's store into a rider's page, the cycle
// is finished (sbRest after a trap: the cores whose promise the handler
// left intact resume and are charged their slots, the rest are stepped
// naively) and the batch re-derives what that may have changed: the gate
// (sbGate, keeping the surviving promises), the device horizon and, under
// RunUntil, the condition. It exits when the horizon or the condition
// refuses, and at once on an MMIO access, a park wake, or with
// DebugCondShadow or DebugParkShadow set, whose evaluations are placed at
// batch boundaries.
func (m *Machine) runBlocks(cond func() bool, limit uint64) uint64 {
	if limit == 0 {
		return 0
	}
	horizon, ok := m.sbHorizon(limit)
	if !ok {
		m.sbExits[exitRefused]++
		return 0
	}
	if m.sbRun == nil || len(m.sbRun) != len(m.cores) {
		m.sbRun = make([]sbRunState, len(m.cores))
		m.sbAct = make([]*sbRunState, 0, len(m.cores))
		m.sbGated = make([]*sbRunState, 0, len(m.cores))
	}
	nparked := m.sbGate()
	for i, gp := range m.watchGp {
		m.watchSnap[i] = *gp
	}
	ncores := len(m.cores)
	bus := m.bus
	shadow := cond != nil && DebugCondShadow != nil
	survive := !shadow && DebugParkShadow == nil
	m.sbExit = 0
	consumed := uint64(0)
	// seen is what the cycle just run let observe the machine, exitNone when
	// nothing did; why is the reason the batch ends.
	seen, why := exitNone, exitNone
	for {
		if consumed >= horizon {
			why = exitHorizon
			break
		}
		if seen != exitNone {
			if !survive || seen == exitMMIO || seen == exitWake ||
				seen == exitTrap && cond != nil && cond() {
				why = seen
				break
			}
			nparked = m.sbGate()
			h, ok := m.sbHorizon(limit - consumed)
			if !ok {
				why = seen
				break
			}
			horizon = consumed + h
			for i, gp := range m.watchGp {
				m.watchSnap[i] = *gp
			}
			seen = exitNone
		}
		if shadow && consumed > 0 {
			m.sbSync(rwShadow)
			if cond() {
				DebugCondShadow(m.now)
			}
		}
		// k is the shortest promise, capped by the horizon; lone the core
		// without one, when there is exactly one such core; idle whether
		// no executing core holds a block. A core makes its promise for at
		// most a probe first; the runs that used their whole probe go on
		// (goOn) before they count.
		k := horizon - consumed
		room := m.sbRoom(k, nparked)
		var lone *sbRunState
		unpromised, idle := 0, true
		long := m.sbLong[:0]
		for _, st := range m.sbAct {
			if st.parked {
				continue
			}
			if st.back && !m.resume(st) {
				m.drop(st)
			}
			if st.promise == 0 {
				if st.lag != 0 {
					m.commit(st)
				}
				if st.promise = m.promise(st, min(room, sbProbe)); st.promise == 0 {
					lone = st
					unpromised++
					continue
				}
				m.sbPromises++
				if st.promise == sbProbe && room > sbProbe {
					long = append(long, st)
					continue
				}
			}
			if st.sb != nil {
				idle = false
			}
			k = min(k, st.promise)
		}
		if m.sbLong = long; len(long) != 0 {
			m.goOn(long, room-sbProbe)
			for _, st := range long {
				if st.sb != nil {
					idle = false
				}
				k = min(k, st.promise)
			}
		}
		if nparked > 0 && unpromised <= 1 {
			k = m.sbRiderBound(k)
		}
		if unpromised == 1 && k >= sbSoloMin && !shadow {
			n, obs := m.solo(lone, k)
			consumed += n
			seen = obs
			continue
		}
		if unpromised != 0 {
			k = 0
		}
		if k > 0 {
			if shadow {
				k = 1
			}
			// Time, the rotation origin and the bus token bucket move as k
			// naive cycles would move them; no core is serviced.
			m.now += k
			m.rr = int(m.now % uint64(ncores))
			bus.skip(k)
			m.sbJumped += k
			if idle {
				m.ffSkipped += k
			}
			for _, st := range m.sbAct {
				if !st.parked {
					st.promise -= k
					st.lag += k
				} else {
					st.c.idle(k)
				}
			}
			consumed += k
			continue
		}
		m.now++
		if m.rr++; m.rr >= ncores {
			m.rr = 0
		}
		bus.tick()
		// The rotation starts at the first active core at or after the
		// round-robin origin; halted cores do nothing in a cycle.
		act := m.sbAct
		s := 0
		for s < len(act) && act[s].c.ID < m.rr {
			s++
		}
	rotation:
		for n := len(act); n > 0; n-- {
			if s == len(act) {
				s = 0
			}
			st := act[s]
			s++
			c := st.c
			if st.parked {
				epoch := m.parkEpoch
				m.advance(c)
				if m.parkEpoch != epoch {
					// The park woke — even if its done hook parked the core
					// again, kernel code ran: the rest of the rotation is
					// Step's, and the batch ends.
					seen = m.sbRest(c.ID, exitWake)
					break rotation
				}
				continue
			}
			if st.promise > 0 && (!st.back || m.resume(st)) {
				st.promise--
				st.lag++
				continue
			}
			if st.promise > 0 {
				m.drop(st)
			}
			c.Cycles++
			if c.stall > 0 {
				c.stall--
				continue
			}
			if sb := st.sb; sb == nil || !sb.pagesFresh() {
				// No block under the core, or its text (or a page it shares)
				// mutated since decode: the naive issue, which a slow op's
				// checks follow.
				m.sbNaive(st)
			} else if !m.sbIssue(st) {
				continue
			}
			if m.sbExit != 0 {
				seen = m.sbRest(c.ID, exitTrap)
				break rotation
			}
			// A store into device-watched RAM (DMA mailbox flag) invalidates
			// the device horizon: finish the cycle (the naive Step's device
			// phase had already run by the time cores execute) and re-derive
			// it, so the owning device's next Tick observes the store on
			// schedule.
			if m.watchGp != nil && m.watchDirty() {
				seen = exitWatched
			}
		}
		consumed++
	}
	// Host code observing the machine after Run sees every core at machine
	// time; the next batch's gate resumes the runs nothing touched.
	m.sbSync(rwExit)
	m.sbExits[why]++
	m.sbBatched += consumed
	return consumed
}

// goOn lets the runs that used their whole probe at a loop top go on for up
// to more cycles each. Two or more of them go on side by side, each an index
// of a fork-join job on the machine's pool: the coordinator claims one and a
// helper thread the other, and with GOMAXPROCS 1, or before a helper has
// claimed one, the coordinator runs them all. That cannot change a result:
// each run is a pure function of its own core's state — registers, cache,
// block cache and translation memo, its private data pages (pgData), text no
// core's run writes (pgData marks every executable page shared) — so no run
// writes what another reads, and it splits exactly where the probe ended
// (ahead). While they overlap the machine's shared state is only read: the
// privacy map, the profile, the stuck set, the address spaces, the text the
// block builds decode. Mem's write count stands still (Mem.uncounted), and
// the cycles are added up after the join. A stuck bit can be re-asserted by
// any read, text included, so while one is registered the runs go on one
// after the other. Overlapped counts the cycles past the probe whether a
// helper ran them or not, so it does not depend on the host.
func (m *Machine) goOn(long []*sbRunState, more uint64) {
	if len(long) < 2 || len(m.mem.stuck) != 0 {
		for _, st := range long {
			n := m.ahead(st, more)
			st.promise += n
			m.sbAhead += n
		}
		return
	}
	if m.runPool == nil {
		m.runPool = new(forkjoin.Pool)
	}
	m.mem.uncounted = true
	m.runPool.Run(runtime.GOMAXPROCS(0), len(long), func(i int) {
		st := long[i]
		st.promise += m.ahead(st, more)
	})
	m.mem.uncounted = false
	for _, st := range long {
		m.sbAhead += st.promise - sbProbe
		m.sbOverlapped += st.promise - sbProbe
	}
}

// sbRoom caps at k how far a core may run ahead: no further than the issue
// at which another core surely traps — one without a block that will take
// an interrupt, single-step or stands on its breakpoint, or one standing on
// a syscall the handler does not call local while no core is parked — since
// that trap rewinds every run. It only saves work: a longer run would be
// exact, and undone.
func (m *Machine) sbRoom(k uint64, nparked int) uint64 {
	for _, st := range m.sbAct {
		c := st.c
		if st.parked {
			continue
		}
		if sb := st.sb; sb != nil {
			if ins := &sb.ins[st.pos]; ins.Op != isa.OpSyscall || nparked == 0 && m.localAhead(st, ins) {
				continue
			}
		} else if !(c.IntEnabled && (c.pendingIRQ != 0 || c.pendingIPI) ||
			c.SingleStep || c.BP.Enabled && c.PC == c.BP.Addr && !c.ResumeOnce) {
			continue
		}
		at := st.promise + 1
		if st.promise == 0 {
			at = uint64(c.stall) + 1
		}
		k = min(k, at)
	}
	return k
}

// sbNaive is the one naive-issue step of the rotation and solo, for a core
// on no fresh block (sbBlock's reasons, or text written since decode): the
// naive issue delivers the interrupt, checks the debug features and derives
// bytes and any trap from scratch; then, unless a trap other than a local
// one or an MMIO access observed the machine (m.sbExit), the core alone is
// re-derived in place. Like a slow op of sbIssue it is no observation point:
// the caller checks the stores it may have made.
func (m *Machine) sbNaive(st *sbRunState) {
	m.issue(st.c)
	if m.sbExit &^= sbExitLocal; m.sbExit == 0 {
		st.sb, st.pos = m.sbBlock(st.c), 0
	}
}

// sbIssue runs one issue opportunity of a batched core standing on a fresh
// block: the jitter draw, the fetch, the instruction, the block chain. It is
// the one definition of that step, for the rotation of runBlocks and for
// solo. It reports whether the instruction went through execSlow or fired
// the branch watch: only such an issue can trap, reach a device or store,
// so only then has the caller anything to check. After a local kernel entry
// the core takes the block at wherever its handler left it (sbBlock). After
// any other trap or an MMIO access (m.sbExit) the block position is left
// alone — the handler may have moved the core anywhere — and the caller
// re-derives the core.
func (m *Machine) sbIssue(st *sbRunState) (slow bool) {
	c, sb := st.c, st.sb
	if c.nextJitter(m.prof.JitterShift) {
		return false
	}
	cost := &m.prof.Costs
	hitExtra := cost.MemHit - 1
	// Instruction fetch, with the cache-hit probe of memAccess open-coded:
	// a fetch hit changes no cache or bus state, so the probe alone replaces
	// the call on the ~100% case, and the (fline, fgen) memo replaces the
	// probe while the line provably stays resident. Any miss (or a
	// multi-line straddle, impossible for 8-aligned fetches) runs the full
	// path with identical state evolution.
	fpa := sb.pa0 + uint64(st.pos)*isa.InstrBytes
	ch := c.cache
	line := fpa >> ch.lineShift
	if line == st.fline && ch.gen == st.fgen {
		if hitExtra > 0 {
			c.stall += hitExtra
		}
	} else if lidx := ch.index(line); ch.valid[lidx] && ch.tags[lidx] == line &&
		(fpa+isa.InstrBytes-1)>>ch.lineShift == line {
		st.fline, st.fgen = line, ch.gen
		if hitExtra > 0 {
			c.stall += hitExtra
		}
	} else if !c.memAccess(fpa, isa.InstrBytes, false) {
		return false // bus stall on fetch; retry next cycle
	}
	prev := c.PC
	ins := &sb.ins[st.pos]
	if sbFast[ins.Op] {
		br := c.UserBranches
		execFast(c, ins, cost)
		c.Instructions++
		c.sb.instrs++
		if c.BranchWatch.Enabled && c.UserBranches != br && m.branchWatch(c) {
			return true
		}
	} else {
		// Op outside the register-only fast set: memory, divide, atomic,
		// block op, syscall. Under a branch watch or a breakpoint the naive
		// issue ends with the debug tail, which a trap handler may give work
		// (single-step).
		slow = true
		watched, br := c.BranchWatch.Enabled || c.BP.Enabled, c.UserBranches
		if m.execSlow(c, ins) {
			c.Instructions++
			c.sb.instrs++
			if watched {
				m.debugTail(c, br, false)
			}
		}
		if m.sbExit == sbExitLocal {
			m.sbExit = 0
			st.sb, st.pos = m.sbBlock(c), 0
			return true
		}
		if m.sbExit != 0 {
			return true
		}
	}
	switch c.PC {
	case prev + isa.InstrBytes:
		if st.pos++; st.pos == sb.n || c.BP.Enabled && c.PC == c.BP.Addr {
			// Fell through the end (non-taken terminator or a block
			// truncated at a segment edge) or onto the armed breakpoint:
			// chain (blockFor hands out no block on the breakpoint).
			st.sb, st.pos = m.blockFor(c), 0
		}
	case prev:
		// Bus stall mid-instruction or a rep-style block op still copying:
		// same instruction again next cycle.
	default:
		// Taken branch: chain to the target's block.
		st.sb, st.pos = m.blockFor(c), 0
	}
	return slow
}

// solo runs st's core alone for span cycles, at the machine's clock, while
// every other executing core holds a promise of at least span cycles and
// every rider provably stays parked for as long. A cycle does what the
// rotation does when a single core takes part — time, the bus bucket, the
// core's cycle count, a stall (drained in one step), then sbIssue, or
// sbNaive when the core has no fresh block — and the other cores, which
// would only be credited the cycle, are settled by arithmetic when the run
// ends or something observes them (sbSettle). Because the core does not lag
// it may execute any op, and a naive issue runs every interrupt and debug
// check exactly as naive stepping does. A trap or an MMIO access has
// already synced when it returns; a store that dirtied device-watched RAM,
// made another core's block text stale or moved a rider's watched page
// syncs here; either way the run ends, the cycle's remaining slots go
// through sbRest — whose polls show the store to the riders after the solo
// core's slot, the ones before it see it next cycle, as in the rotation —
// and solo returns what observed the machine for runBlocks to re-derive
// from or exit on, as after the same event in the rotation. Returns the
// cycles consumed and the observation, exitNone when the run ran out.
func (m *Machine) solo(st *sbRunState, span uint64) (n uint64, seen batchExit) {
	c, bus, mem := st.c, m.bus, m.mem
	start := m.now
	end := start + span
	m.sbSolo, m.sbSoloFrom = st, start
	// Only a store of the core's own can make text stale, dirty watched RAM
	// or move a rider's page in here, so those checks wait for the write
	// count to move.
	writes := mem.writes
	// fresh: the core stands on a block whose text is unmodified. Only a
	// store can change that; a chain or sbBlock hands out a valid block.
	fresh := st.sb != nil && st.sb.pagesFresh()
	for m.now < end {
		if c.stall > 0 {
			d := uint64(c.stall)
			if d > end-m.now {
				d = end - m.now
			}
			m.now += d
			bus.skip(d)
			c.idle(d)
			continue
		}
		m.now++
		bus.tick()
		c.Cycles++
		if !fresh {
			m.sbNaive(st)
			m.sbSoloNaive++
		} else if !m.sbIssue(st) {
			fresh = st.sb != nil
			continue
		}
		fresh = st.sb != nil
		if m.sbExit == 0 && mem.writes == writes {
			continue
		}
		switch {
		case m.sbExit != 0:
			seen = exitTrap
		case m.watchGp != nil && m.watchDirty() || m.sbSeen():
			seen = exitWatched
		default:
			// A store nobody else reads; stale text under the core itself
			// takes the naive issue next cycle.
			writes = mem.writes
			fresh = st.sb != nil && st.sb.pagesFresh()
			continue
		}
		m.sbSync(rwSeen) // a trap or an MMIO access did on its first line: nothing is ahead then
		return m.now - start, m.sbRest(c.ID, seen)
	}
	m.sbSettle(false)
	return m.now - start, exitNone
}

// sbSeen reports whether a store of the solo core moved a rider's watched
// page (every rider's page was unmoved when the run began: sbRiderBound).
// No other core can see it: an ahead core touches only pages the solo
// core's address space does not map, and fetches only from pages it does not
// map writable.
func (m *Machine) sbSeen() bool {
	for _, st := range m.sbAct {
		if st.parked && *st.c.parkGp != st.c.parkSeenGen {
			return true
		}
	}
	return false
}

// sbSettle ends a solo run: every other core the batch drives is credited
// the cycles the solo core has begun since the run started, a promised core
// as lag against its promise, a rider as idle cycles (its polls would all
// have skipped: sbRiderBound). When the solo core is inside a cycle (mid)
// that cycle counts only for the cores whose slot in its rotation precedes
// the solo core's — what the stepped loop does one slot at a time — and the
// others get it from sbRest.
func (m *Machine) sbSettle(mid bool) {
	solo := m.sbSolo
	m.sbSolo = nil
	n := m.now - m.sbSoloFrom
	m.sbSoloFrom = m.now
	m.sbSoloRun += n
	ncores := len(m.cores)
	m.rr = int(m.now % uint64(ncores))
	slot := func(id int) int { return (id - m.rr + ncores) % ncores } // in this cycle's rotation
	rider := false
	for _, st := range m.sbAct {
		if st == solo {
			continue
		}
		k := n
		if mid && slot(st.c.ID) > slot(solo.c.ID) {
			k--
		}
		if st.parked {
			st.c.idle(k)
			rider = true
			continue
		}
		st.promise -= k
		st.lag += k
	}
	if rider {
		m.sbSoloRider += n
	}
}

// sbRiderBound shrinks a credit of k cycles to what every parked rider
// allows, 0 when one of them must be polled first. A rider is known parked
// while the watched page, the park epoch and its last false evaluation
// still agree (the poll gate of advance), up to the cycle before its wake.
func (m *Machine) sbRiderBound(k uint64) uint64 {
	for _, st := range m.sbAct {
		if !st.parked {
			continue
		}
		c := st.c
		if *c.parkGp != c.parkSeenGen || m.parkEpoch != c.parkSeenEpoch || c.parkWake <= c.Cycles+1 {
			return 0
		}
		if d := c.parkWake - c.Cycles - 1; d < k {
			k = d
		}
	}
	return k
}

// execFast executes the ops that can neither trap, touch memory, nor
// stall on the bus: pure register arithmetic, immediates, FP, and
// branches. It is the one definition of these ops: exec starts with it,
// and the batch loops call it directly to spare exec's frame. Returns
// false, with nothing changed, for any other op.
func execFast(c *Core, ins *isa.Instr, cost *Costs) bool {
	nextPC := c.PC + isa.InstrBytes
	switch ins.Op {
	case isa.OpAdd:
		c.setReg(ins.Rd, c.reg(ins.Rs1)+c.reg(ins.Rs2))
	case isa.OpSub:
		c.setReg(ins.Rd, c.reg(ins.Rs1)-c.reg(ins.Rs2))
	case isa.OpMul:
		c.setReg(ins.Rd, c.reg(ins.Rs1)*c.reg(ins.Rs2))
		c.AddStall(cost.Mul - 1)
	case isa.OpAnd:
		c.setReg(ins.Rd, c.reg(ins.Rs1)&c.reg(ins.Rs2))
	case isa.OpOr:
		c.setReg(ins.Rd, c.reg(ins.Rs1)|c.reg(ins.Rs2))
	case isa.OpXor:
		c.setReg(ins.Rd, c.reg(ins.Rs1)^c.reg(ins.Rs2))
	case isa.OpShl:
		c.setReg(ins.Rd, c.reg(ins.Rs1)<<(c.reg(ins.Rs2)&63))
	case isa.OpShr:
		c.setReg(ins.Rd, c.reg(ins.Rs1)>>(c.reg(ins.Rs2)&63))
	case isa.OpSra:
		c.setReg(ins.Rd, uint64(int64(c.reg(ins.Rs1))>>(c.reg(ins.Rs2)&63)))
	case isa.OpSlt:
		c.setReg(ins.Rd, b2u(int64(c.reg(ins.Rs1)) < int64(c.reg(ins.Rs2))))
	case isa.OpSltu:
		c.setReg(ins.Rd, b2u(c.reg(ins.Rs1) < c.reg(ins.Rs2)))

	case isa.OpAddi:
		c.setReg(ins.Rd, c.reg(ins.Rs1)+uint64(int64(ins.Imm)))
	case isa.OpAndi:
		c.setReg(ins.Rd, c.reg(ins.Rs1)&uint64(int64(ins.Imm)))
	case isa.OpOri:
		c.setReg(ins.Rd, c.reg(ins.Rs1)|uint64(int64(ins.Imm)))
	case isa.OpXori:
		c.setReg(ins.Rd, c.reg(ins.Rs1)^uint64(int64(ins.Imm)))
	case isa.OpShli:
		c.setReg(ins.Rd, c.reg(ins.Rs1)<<(uint32(ins.Imm)&63))
	case isa.OpShri:
		c.setReg(ins.Rd, c.reg(ins.Rs1)>>(uint32(ins.Imm)&63))
	case isa.OpSrai:
		c.setReg(ins.Rd, uint64(int64(c.reg(ins.Rs1))>>(uint32(ins.Imm)&63)))
	case isa.OpSlti:
		c.setReg(ins.Rd, b2u(int64(c.reg(ins.Rs1)) < int64(ins.Imm)))
	case isa.OpLi:
		c.setReg(ins.Rd, uint64(int64(ins.Imm)))
	case isa.OpLih:
		c.setReg(ins.Rd, c.reg(ins.Rd)<<32|uint64(uint32(ins.Imm)))

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		c.UserBranches++
		if condTaken(ins.Op, c.reg(ins.Rs1), c.reg(ins.Rs2)) {
			nextPC = uint64(uint32(ins.Imm))
		}
	case isa.OpJ:
		c.UserBranches++
		nextPC = uint64(uint32(ins.Imm))
	case isa.OpJal:
		c.UserBranches++
		c.setReg(ins.Rd, c.PC+isa.InstrBytes)
		nextPC = uint64(uint32(ins.Imm))
	case isa.OpJr:
		c.UserBranches++
		nextPC = c.reg(ins.Rs1)
	case isa.OpJalr:
		c.UserBranches++
		c.setReg(ins.Rd, c.PC+isa.InstrBytes)
		nextPC = c.reg(ins.Rs1) + uint64(int64(ins.Imm))

	case isa.OpFadd:
		c.setReg(ins.Rd, bits(f64(c.reg(ins.Rs1))+f64(c.reg(ins.Rs2))))
		c.AddStall(cost.FPSimple - 1)
	case isa.OpFsub:
		c.setReg(ins.Rd, bits(f64(c.reg(ins.Rs1))-f64(c.reg(ins.Rs2))))
		c.AddStall(cost.FPSimple - 1)
	case isa.OpFmul:
		c.setReg(ins.Rd, bits(f64(c.reg(ins.Rs1))*f64(c.reg(ins.Rs2))))
		c.AddStall(cost.FPSimple - 1)
	case isa.OpFdiv:
		c.setReg(ins.Rd, bits(f64(c.reg(ins.Rs1))/f64(c.reg(ins.Rs2))))
		c.AddStall(cost.FPDiv - 1)
	case isa.OpFsqrt:
		c.setReg(ins.Rd, bits(math.Sqrt(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPDiv - 1)
	case isa.OpFsin:
		c.setReg(ins.Rd, bits(math.Sin(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPTrans - 1)
	case isa.OpFcos:
		c.setReg(ins.Rd, bits(math.Cos(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPTrans - 1)
	case isa.OpFexp:
		c.setReg(ins.Rd, bits(math.Exp(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPTrans - 1)
	case isa.OpFlog:
		c.setReg(ins.Rd, bits(math.Log(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPTrans - 1)
	case isa.OpFatan:
		c.setReg(ins.Rd, bits(math.Atan(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPTrans - 1)
	case isa.OpFcvtIF:
		c.setReg(ins.Rd, bits(float64(int64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPSimple - 1)
	case isa.OpFcvtFI:
		c.setReg(ins.Rd, uint64(int64(f64(c.reg(ins.Rs1)))))
		c.AddStall(cost.FPSimple - 1)
	case isa.OpFlt:
		c.setReg(ins.Rd, b2u(f64(c.reg(ins.Rs1)) < f64(c.reg(ins.Rs2))))
	case isa.OpFle:
		c.setReg(ins.Rd, b2u(f64(c.reg(ins.Rs1)) <= f64(c.reg(ins.Rs2))))
	case isa.OpFeq:
		c.setReg(ins.Rd, b2u(f64(c.reg(ins.Rs1)) == f64(c.reg(ins.Rs2))))

	case isa.OpNop:
	default:
		return false
	}
	c.PC = nextPC
	return true
}

// sbSync brings every core the batch drives to machine time, first
// crediting them the cycles of a solo run in progress (which thereby ends:
// its caller finishes the cycle naively): an ahead core is rewound, one
// whose promise the loop has credited in full commits. It is called
// wherever code other than a core's own run can observe a core — see
// runBlocks for the list and the argument — so outside those points a core
// may lead the machine's clock unseen. Outside a batch no core is ahead and
// the call is a few compares.
func (m *Machine) sbSync(why rewindCause) {
	if m.sbSolo != nil {
		m.sbSettle(true)
	}
	for _, st := range m.sbAct {
		switch {
		case st.back:
		case st.promise != 0:
			m.rewind(st, why)
		case st.lag != 0:
			m.commit(st)
		}
	}
}

// localAhead predicts whether the syscall ins, which st's core stands on,
// will be a local kernel entry (LocalTrapper). The handler is asked once
// per arrival at the syscall — while the core stands on it, neither its PC
// nor its retired instructions move — although what its answer reads may
// change before the core traps: a stale answer only costs a rewind or a
// shorter run, since Machine.trap asks again at the entry itself.
func (m *Machine) localAhead(st *sbRunState, ins *isa.Instr) bool {
	if m.local == nil {
		return false
	}
	if c := st.c; st.localPC != c.PC || st.localAt != c.Instructions {
		st.localPC, st.localAt = c.PC, c.Instructions
		st.local = m.local.LocalTrap(c, Trap{Kind: TrapSyscall, Num: ins.Imm, PC: c.PC + isa.InstrBytes})
	}
	return st.local
}

// SuperblockStats aggregates the per-core superblock caches.
type SuperblockStats struct {
	Blocks      uint64 // superblocks decoded
	BlockInstrs uint64 // instructions retired from the batched path
	Instrs      uint64 // total instructions retired (all paths)
	Jumped      uint64 // cycles credited in bulk inside batches
	Ahead       uint64 // cycles promises ran ahead of machine time
	Replayed    uint64 // cycles rewinds re-executed up to machine time
	Rewound     Rewinds
	Promises    uint64 // promises made
	Batched     uint64 // machine cycles run inside batches
	Solo        uint64 // ... of which by one core alone at machine time (solo)
	SoloRider   uint64 // ... of which beside a parked rider
	SoloNaive   uint64 // solo cycles issued through the naive issue path (no fresh block)
	Overlapped  uint64 // cycles runs went on past their probe beside another core's run
	Local       uint64 // local kernel entries (LocalTrapper) that left their core running: no observation point
	Exits       BatchExits
}

// BatchExits counts why superblock batches ended, one count per batch. A
// trap or a watched store ends a batch only when the state it re-derives
// afterwards refuses to go on (a device event due, RunUntil's condition
// true).
type BatchExits struct {
	Trap    uint64 // after a trap
	MMIO    uint64 // a device register access
	Watched uint64 // after a store into device-watched RAM, or a solo store into a rider's page
	Wake    uint64 // a parked core's condition fired
	Horizon uint64 // the limit or the device horizon was reached
	Refused uint64 // entries that could not start a batch
}

// Rewinds counts the cycles promises ran ahead of machine time and then
// undid for good, by the observation that rewound them: a rewound run whose
// core the observation left alone resumes and counts nowhere.
type Rewinds struct {
	Trap   uint64 // a trap
	MMIO   uint64 // a device register access
	Park   uint64 // a park condition's evaluation
	Seen   uint64 // a solo store a rider or a device could see
	Shadow uint64 // a DebugCondShadow or DebugParkShadow evaluation
	Exit   uint64 // the batch's end
}

// Total returns the rewound cycles over every cause.
func (r Rewinds) Total() uint64 { return r.Trap + r.MMIO + r.Park + r.Seen + r.Shadow + r.Exit }

// HitRate returns the fraction of all retired instructions that executed
// from the batched superblock path.
func (s SuperblockStats) HitRate() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.BlockInstrs) / float64(s.Instrs)
}

// BlockStartPAs returns the physical start addresses of the superblocks
// currently cached on core id, in slot order. Diagnostics only: the
// decorrelation tests use it to show that structurally different replicas
// build different block sets while staying cycle-identical.
func (m *Machine) BlockStartPAs(id int) []uint64 {
	c := m.cores[id]
	if c.sb == nil {
		return nil
	}
	var out []uint64
	for i := range c.sb.blocks {
		if sb := &c.sb.blocks[i]; sb.n != 0 {
			out = append(out, sb.pa0)
		}
	}
	return out
}

// SuperblockStats returns aggregate superblock diagnostics for the machine.
func (m *Machine) SuperblockStats() SuperblockStats {
	x := &m.sbExits
	w := &m.sbRewound
	s := SuperblockStats{Jumped: m.sbJumped, Ahead: m.sbAhead, Replayed: m.sbReplayed, Rewound: Rewinds{
		Trap: w[rwTrap], MMIO: w[rwMMIO], Park: w[rwPark], Seen: w[rwSeen], Shadow: w[rwShadow], Exit: w[rwExit]},
		Promises: m.sbPromises,
		Batched:  m.sbBatched, Solo: m.sbSoloRun, SoloRider: m.sbSoloRider, SoloNaive: m.sbSoloNaive, Overlapped: m.sbOverlapped, Local: m.sbLocal, Exits: BatchExits{
			Trap: x[exitTrap], MMIO: x[exitMMIO], Watched: x[exitWatched],
			Wake: x[exitWake], Horizon: x[exitHorizon], Refused: x[exitRefused]}}
	for _, c := range m.cores {
		s.Instrs += c.Instructions
		if c.sb != nil {
			s.Blocks += c.sb.built
			s.BlockInstrs += c.sb.instrs
		}
	}
	return s
}
