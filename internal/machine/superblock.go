package machine

import (
	"math"

	"rcoe/internal/isa"
)

// Superblock execution: a host-side accelerator that executes hot
// straight-line instruction runs (branch-to-branch) in a dedicated batched
// loop instead of paying the full Step/advance/execOne dispatch per guest
// instruction. Like the execution cache it is provably invisible to
// simulated state: every cycle in the batch performs exactly the work the
// naive loop would — same rotation order, same bus ticks, same jitter
// draws, same cost-model calls, same traps on the same cycles — except
// that the cores are not interleaved where nothing can tell: a core's
// register-only stretches are executed later than their cycles, in one
// burst, before anything can observe the core, and while every other core
// is inside such a stretch the remaining one runs alone, parked riders
// beside it or not (see runBlocks). It is also the one place idle time is
// charged: a window in which every core is parked, stalled, halted or
// offline is credited in bulk like any other window of promises. The batch
// re-derives its state, ends, or never starts whenever anything could
// diverge:
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
//     serviced the same way, except that a core whose promise the handler
//     left intact is charged against it, and then the batch re-derives
//     everything else — the cores' admission, the device horizon — and goes
//     on; it ends only when that re-derivation refuses;
//   - text mutates under a cached block (self-modifying code, injected
//     bit-flip, DMA, re-integration copy): the spanned pages' mutation
//     generations are re-checked before every issue and the core falls
//     back to the naive fetch path for that issue, after which it takes a
//     block again;
//   - a breakpoint or single-step is armed, an interrupt is pending, or no
//     block forms at the core's PC: that core alone takes no block; it is
//     credited the stall it is counting down, then issues through sbNaive.
//     A branch watch keeps the core's blocks (sbIssue checks it, no
//     promise covers the branch that fires it), and so do stuck-at bits,
//     under the page-generation invariant that keeps the execution cache
//     exact (hardfault.go).
//
// The differential determinism suite runs every {exec-cache × superblock}
// combination to enforce this.

const (
	// sbMaxLen caps a superblock at 64 instructions (512 bytes), so a
	// block spans at most two physical 4 KiB pages.
	sbMaxLen   = 64
	sbMaxPages = 2
	// sbSlots is the per-core direct-mapped block cache size.
	sbSlots = 256
	// sbSoloMin is the shortest stretch worth running solo (see
	// Machine.solo): below it the stepped cycle costs no more than the
	// entry and the settlement.
	sbSoloMin = 2
)

// superblock is a predecoded straight-line run starting at start. Validity
// is keyed exactly like an icacheEntry — address-space identity and
// generation, segment count, and the mutation generations of the spanned
// text pages. The page generations are held as pointers into Mem.pageGen
// (allocated once, never moved), so the per-issue staleness check is one
// or two pointer compares with no indexing.
type superblock struct {
	start  uint64 // virtual PC of ins[0]
	pa0    uint64 // physical address of ins[0]; the run is physically contiguous
	as     *AddrSpace
	asGen  uint64
	nsegs  int
	n      int
	npages int
	gp     [sbMaxPages]*uint64 // live mutation counters of the spanned pages
	gens   [sbMaxPages]uint64  // their values when the block was decoded
	ins    [sbMaxLen]isa.Instr
	// fast[i] is the length of the run of fast-set instructions (sbFast)
	// starting at ins[i]; 0 when ins[i] needs execSlow.
	fast [sbMaxLen]uint8
}

// valid reports whether the block can serve (pc, as) right now.
func (sb *superblock) valid(pc uint64, as *AddrSpace) bool {
	if sb.n == 0 || sb.start != pc || sb.as != as || sb.asGen != as.gen || sb.nsegs != len(as.Segs) {
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
	sb.as, sb.asGen, sb.nsegs = as, as.gen, len(as.Segs)
	sb.n = n
	for i, r := n-1, uint8(0); i >= 0; i-- {
		if r++; !sbFast[sb.ins[i].Op] {
			r = 0
		}
		sb.fast[i] = r
	}
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
// the core's direct-mapped cache on miss, or nil when the code there
// cannot form a block.
func (m *Machine) blockFor(c *Core) *superblock {
	sc := c.sbLazy()
	sb := &sc.blocks[(c.PC>>3)&(sbSlots-1)]
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
// promise and lag implement deferred execution (see runBlocks): promise is
// the number of coming cycles in which the core provably touches nothing
// but its own registers, counters and jitter stream, lag the number of
// such cycles the loop has already credited it and burst still has to
// execute. Both are 0 outside a batch. cgen is the cache generation the
// promise was made under: the lines it found resident stay resident while
// it is unchanged.
type sbRunState struct {
	c       *Core
	parked  bool
	sb      *superblock // nil stall-only or after a failed chain: the stall, then one naive issue
	pos     int
	fline   uint64
	fgen    uint64
	promise uint64
	lag     uint64
	cgen    uint64
}

// keeps reports whether st's promise survived code other than the core's
// own burst — a trap handler, a park's done hook — having run while nothing
// lagged: the core is still running where its batch state stands, in the
// same address space, over the same text and the same resident cache lines
// the promise was made from, and nothing is armed that acts at its next
// issue (a pending interrupt, a breakpoint, a branch watch, single-step).
// Registers may have changed: a promise covers a register-only run whose
// length does not depend on their values. A stall-only promise has no text.
func (st *sbRunState) keeps() bool {
	c := st.c
	if st.promise == 0 || c.State != CoreRunning || c.pendingIRQ != 0 || c.pendingIPI ||
		c.BP.Enabled || c.BranchWatch.Enabled || c.SingleStep {
		return false
	}
	sb := st.sb
	return sb == nil || c.PC == sb.start+uint64(st.pos)*isa.InstrBytes &&
		c.cache.gen == st.cgen && sb.valid(sb.start, c.AS)
}

// lookahead returns how many cycles the core can promise from its current
// position: the rest of its stall (a stalled core only counts down) plus
// one cycle per instruction of the fast-set run it stands at — each takes
// at least a cycle, so the run cannot end earlier — cut at the first fetch
// line not resident in its cache, since a fill would touch the bus. The
// cache is private to the core and a fetch hit leaves it unchanged, so
// lines found resident stay resident for the whole promise. A run holds at
// most one branch, its block's terminator; when that branch would fire an
// armed branch watch the run stops short of it, so the core issues it at
// machine time (sbIssue). 0 means the core must be serviced cycle by cycle.
// A stall-only core (no block) promises its stall.
func (st *sbRunState) lookahead() uint64 {
	c, sb := st.c, st.sb
	if sb == nil {
		return uint64(c.stall)
	}
	if !sb.pagesFresh() {
		return 0
	}
	p := uint64(c.stall)
	n := uint64(sb.fast[st.pos])
	if c.BranchWatch.Enabled && c.UserBranches+1 >= c.BranchWatch.Target &&
		st.pos+int(n) == sb.n && sbEnds(sb.ins[sb.n-1].Op) {
		n-- // a fast terminator is a branch
	}
	if n == 0 {
		return p
	}
	ch := c.cache
	pa := sb.pa0 + uint64(st.pos)*isa.InstrBytes
	last := (pa + n*isa.InstrBytes - 1) >> ch.lineShift
	for line := pa >> ch.lineShift; line <= last; line++ {
		if line == st.fline && ch.gen == st.fgen {
			continue
		}
		if idx := ch.index(line); !ch.valid[idx] || ch.tags[idx] != line {
			if lo := line << ch.lineShift; lo > pa {
				return p + (lo-pa)/isa.InstrBytes
			}
			return p
		}
	}
	return p + n
}

// burst executes the cycles a core owes, alone: per cycle exactly what the
// interleaved loop does for a core inside a promise — cycle count, stall,
// one jitter draw per issue opportunity from the same stream, the
// fetch-hit charge, execFast, block chain. A stall is counted down in one
// step. A chain can only happen on the last cycle of a promise (it follows
// the last instruction of the run); when it finds no block st.sb is left
// nil and the core's next issue goes through the naive path.
func (m *Machine) burst(st *sbRunState) {
	c, n := st.c, st.lag
	st.lag = 0
	m.sbDeferred += n
	shift := m.prof.JitterShift
	cost := &m.prof.Costs
	hitExtra := cost.MemHit - 1
	sb, pos := st.sb, st.pos
	instrs := uint64(0)
	c.Cycles += n
	for n > 0 {
		if c.stall > 0 {
			d := uint64(c.stall)
			if d > n {
				d = n
			}
			c.stall -= int(d)
			n -= d
			continue
		}
		n--
		if c.nextJitter(shift) {
			continue
		}
		if hitExtra > 0 {
			c.stall += hitExtra
		}
		prev := c.PC
		execFast(c, &sb.ins[pos], cost)
		instrs++
		if pos++; pos == sb.n || c.PC != prev+isa.InstrBytes {
			sb, pos = m.blockFor(c), 0
		}
	}
	st.sb, st.pos = sb, pos
	if instrs != 0 { // a stall-only core may never have built a block
		c.Instructions += instrs
		c.sb.instrs += instrs
	}
}

// sbSync makes every lagging core execute the cycles it owes, first
// crediting them the cycles of a solo run in progress (which thereby ends:
// its caller finishes the cycle naively). It is called wherever code other
// than a core's own burst can observe a core — see runBlocks for the list
// and the argument — so outside those points a core may trail the machine's
// clock unseen. Outside a batch no core lags and the call is a few compares.
func (m *Machine) sbSync() {
	if m.sbSolo != nil {
		m.sbSettle(true)
	}
	for _, st := range m.sbAct {
		if st.lag != 0 {
			m.burst(st)
		}
	}
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
)

// sbRest finishes the current cycle's rotation after core idx, once code
// other than a core's own burst has run with nothing lagging (a trap, an
// MMIO access, a park wake, or a store another core or a device can see):
// exactly as Step would, except that a core whose promise survived that
// code (keeps) is charged its slot against the promise. Every other core is
// visited through the naive advance path, the cores the batch was not
// driving included — kernel code may have mutated or started any core —
// and loses its promise. seen is what ran; sbRest returns it, or exitMMIO or
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
		case st.keeps():
			st.promise--
			st.lag++
		default:
			st.promise = 0
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
// It is the batch entry's gate and, with keep, the re-derivation after a
// cycle in which code other than a core's own burst ran: then a core whose
// promise survived that code (keeps) is taken over as it stands, lag
// included, and every other one is derived afresh. It refuses no core.
func (m *Machine) sbGate(keep bool) (nparked int) {
	act := m.sbGated[:0]
	for i, c := range m.cores {
		st := &m.sbRun[i]
		if keep && st.keeps() {
			act = append(act, st)
			continue
		}
		if st.lag != 0 {
			m.burst(st)
		}
		st.c, st.sb, st.promise = c, nil, 0
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
// delivers it), a breakpoint or single-step armed (the naive issue checks
// them), or no block forms at its PC (the naive fetch traps there).
func (m *Machine) sbBlock(c *Core) *superblock {
	if c.pendingIRQ != 0 || c.pendingIPI || c.BP.Enabled || c.SingleStep {
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
// nil under Run; it cannot turn true inside a batch except through a trap
// handler (see RunUntil), so it is evaluated after every cycle with a trap
// the batch goes on from, and, before every batched cycle except the
// first, when DebugCondShadow is set.
//
// Lagging cores and the one core at machine time. Between two kernel
// entries a replica is an independent instruction stream, so the loop does
// not interleave the cores cycle by cycle where nothing can tell. Two
// complementary rules: a core may lag behind the machine's clock only while
// nothing can see it; a core that does not lag runs at the machine's clock
// and may therefore execute anything.
//
//   - Promise. At the loop top a core without a promise makes one
//     (lookahead): a number of cycles during which it provably touches
//     nothing but its own registers, counters and jitter stream — the rest
//     of a stall, a register-only run. From then on it lags.
//   - Credit. While the promise lasts a cycle services the core with
//     lag++ in its slot of the rotation; when every executing core is
//     promised and every parked rider provably stays parked, the shortest
//     promise is charged in one step with no rotation at all. With every
//     core parked, stall-only or halted this is the idle skip: the machine
//     jumps to a stall's end, a rider's wake cycle, or the horizon.
//   - Burst. The owed cycles are executed later, alone, in a tight loop
//     (burst): when the promise runs out — the core then re-promises
//     without spending a cycle — or at an observation point.
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
// Observation points are the places where code other than a core's own
// burst can read or write a lagging core, and each starts with sbSync:
// Machine.trap (the kernel), both MMIO arms of execSlow (a device), the
// evaluation of a park condition in advance (and of its DebugParkShadow
// twin), the DebugCondShadow evaluation here, a solo core's store that the
// rest of the machine has to see (watched RAM, another core's promised
// text, a rider's watched page), and batch end (the host). Devices tick
// only outside batches (the horizon). Lags are rotation-exact: a core is
// credited a cycle in its own slot — one by one in the rotation, or by slot
// arithmetic when a solo run is observed mid-cycle — so when a core traps,
// the cores serviced before it in that cycle owe the cycle and the ones
// after it do not, which is what naive stepping would show the handler.
// The one input of a promise another core can change is text: after an op
// that may have stored, a promised core whose block pages went stale
// bursts at once — every cycle it owes precedes the store — and loses its
// promise, so its next issue takes the stale-text path. A parked rider's
// condition is host code too: it is only evaluated after an sbSync, and
// its declarations (Core.Park) prove it false in between.
//
// A batch ends only where something can observe its end. A naive issue is
// no such place: it is followed by a slow op's checks (sbRevoke, watched
// RAM) and re-derives only its own core (sbNaive). After a trap, a store
// into device-watched RAM or a solo core's store into promised text or a
// rider's page, the cycle is finished (sbRest after a
// trap: the cores whose promise the handler left intact are charged their
// slots, the rest are stepped naively) and the batch re-derives what that
// may have changed: the gate (sbGate, keeping the surviving promises), the
// device horizon and, under RunUntil, the condition. It exits when the
// horizon or the condition refuses, and at once on an MMIO access, a park
// wake, or with DebugCondShadow or DebugParkShadow set, whose evaluations
// are placed at batch boundaries.
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
	nparked := m.sbGate(false)
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
			nparked = m.sbGate(true)
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
			m.sbSync()
			if cond() {
				DebugCondShadow(m.now)
			}
		}
		// k is the shortest promise, capped by the horizon; lone the core
		// without one, when there is exactly one such core; idle whether
		// no executing core holds a block.
		k := horizon - consumed
		var lone *sbRunState
		unpromised, idle := 0, true
		for _, st := range m.sbAct {
			if st.parked {
				continue
			}
			if st.promise == 0 {
				if st.lag != 0 {
					m.burst(st)
				}
				if st.promise = st.lookahead(); st.promise == 0 {
					lone = st
					unpromised++
					continue
				}
				st.cgen = st.c.cache.gen
				m.sbPromises++
			}
			if st.sb != nil {
				idle = false
			}
			if st.promise < k {
				k = st.promise
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
			if st.promise > 0 {
				st.promise--
				st.lag++
				continue
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
			m.sbRevoke()
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
	// Host code observing the machine after Run sees no lagging core.
	m.sbSync()
	m.sbExits[why]++
	m.sbBatched += consumed
	return consumed
}

// sbNaive is the one naive-issue step of the rotation and solo, for a core
// on no fresh block (sbBlock's reasons, or text written since decode): the
// naive issue delivers the interrupt, checks the debug features and derives
// bytes and any trap from scratch; then, unless a trap or an MMIO access
// observed the machine (m.sbExit), the core alone is re-derived in place.
// Like a slow op of sbIssue it is no observation point: the caller checks
// the stores it may have made.
func (m *Machine) sbNaive(st *sbRunState) {
	m.issue(st.c)
	if m.sbExit == 0 {
		st.sb, st.pos = m.sbBlock(st.c), 0
	}
}

// sbIssue runs one issue opportunity of a batched core standing on a fresh
// block: the jitter draw, the fetch, the instruction, the block chain. It is
// the one definition of that step, for the rotation of runBlocks and for
// solo. It reports whether the instruction went through execSlow or fired
// the branch watch: only such an issue can trap, reach a device or store,
// so only then has the caller anything to check. After a trap or an MMIO
// access (m.sbExit) the block position is left alone — the handler may have
// moved the core anywhere — and the caller re-derives the core.
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
	if sb.fast[st.pos] != 0 {
		br := c.UserBranches
		execFast(c, ins, cost)
		c.Instructions++
		c.sb.instrs++
		if c.BranchWatch.Enabled && c.UserBranches != br && m.branchWatch(c) {
			return true
		}
	} else {
		// Op outside the register-only fast set: memory, divide, atomic,
		// block op, syscall. Under a branch watch the naive issue ends with
		// the debug tail, which a trap handler may give work (single-step).
		slow = true
		watched, br := c.BranchWatch.Enabled, c.UserBranches
		if m.execSlow(c, ins) {
			c.Instructions++
			c.sb.instrs++
			if watched {
				m.debugTail(c, br, false)
			}
		}
		if m.sbExit != 0 {
			return true
		}
	}
	switch c.PC {
	case prev + isa.InstrBytes:
		if st.pos++; st.pos == sb.n {
			// Fell through the end (non-taken terminator or a block
			// truncated at a segment edge): chain to the next block.
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
		m.sbSync() // a trap or an MMIO access did on its first line: nothing lags then
		return m.now - start, m.sbRest(c.ID, seen)
	}
	m.sbSettle(false)
	return m.now - start, exitNone
}

// stale reports whether the block text under st's promise has been written
// since it was decoded: the one input of a promise another core can change.
// A stall-only promise has no text.
func (st *sbRunState) stale() bool {
	return st.promise != 0 && st.sb != nil && !st.sb.pagesFresh()
}

// sbSeen reports whether a store of the solo core is one another core can
// see: it made some promise's text stale, or moved a rider's watched page
// (every rider's page was unmoved when the run began: sbRiderBound).
func (m *Machine) sbSeen() bool {
	for _, st := range m.sbAct {
		if st.stale() || st.parked && *st.c.parkGp != st.c.parkSeenGen {
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

// sbRevoke runs after an op that may have written memory: a promised core
// whose block pages went stale executes what it owes from the block as
// decoded — all of it precedes the store — and loses its promise.
func (m *Machine) sbRevoke() {
	for _, st := range m.sbAct {
		if st.stale() {
			if st.lag != 0 {
				m.burst(st)
			}
			st.promise = 0
		}
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

// SuperblockStats aggregates the per-core superblock caches.
type SuperblockStats struct {
	Blocks      uint64 // superblocks decoded
	BlockInstrs uint64 // instructions retired from the batched path
	Instrs      uint64 // total instructions retired (all paths)
	Jumped      uint64 // cycles credited in bulk inside batches
	Deferred    uint64 // cycles executed by burst, after the fact
	Promises    uint64 // promises made
	Batched     uint64 // machine cycles run inside batches
	Solo        uint64 // ... of which by one core alone at machine time (solo)
	SoloRider   uint64 // ... of which beside a parked rider
	SoloNaive   uint64 // solo cycles issued through the naive issue path (no fresh block)
	Exits       BatchExits
}

// BatchExits counts why superblock batches ended, one count per batch. A
// trap or a watched store ends a batch only when the state it re-derives
// afterwards refuses to go on (a device event due, RunUntil's condition
// true).
type BatchExits struct {
	Trap    uint64 // after a trap
	MMIO    uint64 // a device register access
	Watched uint64 // after a store into device-watched RAM, or a solo store into another core's promised text or a rider's page
	Wake    uint64 // a parked core's condition fired
	Horizon uint64 // the limit or the device horizon was reached
	Refused uint64 // entries that could not start a batch
}

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
	s := SuperblockStats{Jumped: m.sbJumped, Deferred: m.sbDeferred, Promises: m.sbPromises,
		Batched: m.sbBatched, Solo: m.sbSoloRun, SoloRider: m.sbSoloRider, SoloNaive: m.sbSoloNaive, Exits: BatchExits{
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
