package machine

import (
	"math"

	"rcoe/internal/isa"
)

// Superblock execution: a host-side accelerator that executes hot
// straight-line instruction runs (branch-to-branch) in a dedicated batched
// loop instead of paying the full Step/advance/execOne dispatch per guest
// instruction. Like fast-forward and the execution cache it is provably
// invisible to simulated state: every cycle in the batch performs exactly
// the work the naive loop would — same rotation order, same bus ticks,
// same jitter draws, same cost-model calls, same traps on the same cycles
// — and the batch ends (or never starts) whenever anything could diverge:
//
//   - a device event falls due (preemption timer, DMA, intermittent-fault
//     phase edge): the batch horizon stops one cycle short, so the event
//     cycle is always stepped naively;
//   - a core traps (syscall, fault, halt) or touches MMIO: the remainder
//     of that cycle is serviced through the naive advance path and the
//     batch exits, because the kernel may have mutated any core;
//   - a parked core's condition fires (barrier release): same hard exit;
//   - text mutates under a cached block (self-modifying code, injected
//     bit-flip, DMA, re-integration copy): the spanned pages' mutation
//     generations are re-checked before every issue and the core falls
//     back to the naive fetch path for that issue;
//   - a stuck-at fault is armed, a debug feature (breakpoint, branch
//     watch, single-step) is armed, or an interrupt is pending: the batch
//     refuses to start at all.
//
// The differential determinism suite runs the full 8-variant
// {fast-forward × exec-cache × superblock} cube to enforce this.

const (
	// sbMaxLen caps a superblock at 64 instructions (512 bytes), so a
	// block spans at most two physical 4 KiB pages.
	sbMaxLen   = 64
	sbMaxPages = 2
	// sbSlots is the per-core direct-mapped block cache size.
	sbSlots = 256
	// sbBuildHold is the naive-stepping cooldown after a failed block
	// build, so unbuildable code regions don't pay a rebuild attempt on
	// every batch entry. Host-only heuristic: it changes when the
	// accelerator engages, never what the simulation computes.
	sbBuildHold = 256
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

// sbKind is a core's role for the duration of one batch.
type sbKind uint8

const (
	sbSkip   sbKind = iota // halted / offline at entry
	sbParked               // parked at entry: serviced via advance each cycle
	sbExec                 // running: serviced from its superblock
)

// sbRunState tracks one core's progress through the batched loop. fline
// and fgen memoize the last fetch-probed cache line: while the core's
// cache generation is unchanged, a line probed present is still present,
// so sequential fetches within the line skip the probe entirely (a fetch
// hit changes no cache or bus state, so skipping it is free).
type sbRunState struct {
	kind  sbKind
	sb    *superblock
	pos   int
	fline uint64
	fgen  uint64
}

// runBlocks executes up to limit cycles through the superblock engine and
// returns the number of cycles consumed (possibly 0 when the batch cannot
// safely start). cond, when non-nil, is evaluated before every batched
// cycle except the first — the caller evaluated it immediately before the
// call — exactly matching the naive RunUntil loop's evaluation points.
func (m *Machine) runBlocks(cond func() bool, limit uint64) uint64 {
	if limit == 0 || m.now < m.sbHold || len(m.mem.stuck) != 0 || DebugPCWatch != nil {
		return 0
	}
	// Device horizon: the batch must end one cycle before the earliest
	// device event so that cycle is stepped naively. A device without an
	// event schedule pins the machine to naive stepping, as with
	// fast-forward.
	horizon := limit
	for _, dev := range m.devices {
		es, ok := dev.(EventSource)
		if !ok {
			return 0
		}
		ne := es.NextEvent(m.now)
		if ne == NoEvent {
			continue
		}
		if ne <= m.now+1 {
			return 0
		}
		if d := ne - m.now - 1; d < horizon {
			horizon = d
		}
	}
	// Core gates: every running core needs a clean debug/interrupt state
	// and a valid superblock at its PC; parked cores ride along and are
	// serviced through the naive advance path each cycle.
	if m.sbRun == nil || len(m.sbRun) != len(m.cores) {
		m.sbRun = make([]sbRunState, len(m.cores))
	}
	nrun, nparked := 0, 0
	for i, c := range m.cores {
		st := &m.sbRun[i]
		st.sb = nil
		switch c.State {
		case CoreHalted, CoreOffline:
			st.kind = sbSkip
		case CoreParked:
			st.kind = sbParked
			nparked++
		default:
			if c.pendingIRQ != 0 || c.pendingIPI ||
				c.BP.Enabled || c.BranchWatch.Enabled || c.SingleStep {
				return 0
			}
			sb := m.blockFor(c)
			if sb == nil {
				m.sbHold = m.now + sbBuildHold
				return 0
			}
			st.kind, st.sb, st.pos = sbExec, sb, 0
			st.fline = ^uint64(0) // no line memoized yet
			nrun++
		}
	}
	if nrun == 0 {
		return 0 // fully idle: fast-forward's territory
	}

	for i, gp := range m.watchGp {
		m.watchSnap[i] = *gp
	}
	shift := m.prof.JitterShift
	cost := &m.prof.Costs
	hitExtra := cost.MemHit - 1
	ncores := len(m.cores)
	bus := m.bus
	cores := m.cores
	run := m.sbRun
	if nrun == 2 {
		// The paper's dominant topology — a DMR pair, both replicas
		// executing — gets a loop with the rotation machinery compiled
		// out. Halted cores do nothing per cycle, so only a parked
		// rider (needing its per-cycle advance) forces the generic loop.
		i0, i1, parked := -1, -1, false
		for i := range run {
			switch run[i].kind {
			case sbParked:
				parked = true
			case sbExec:
				if i0 < 0 {
					i0 = i
				} else {
					i1 = i
				}
			}
		}
		if !parked {
			return m.runBlocksPair(cond, horizon, i0, i1)
		}
	}
	m.sbExit = false
	consumed := uint64(0)
	// tryJump is armed by a cycle in which no executing core issued (all
	// were mid-stall) and no parked rider woke: only then can the next
	// iteration bulk-charge the window, and gating the attempt keeps the
	// common issuing cycle free of the scan. With no parked riders it
	// starts true so a batch entered mid-stall (e.g. right after a
	// syscall's kernel-entry charge) jumps immediately; with riders it
	// starts false, because a park condition may have become true during
	// the very Step that preceded the batch (a trap later in that cycle's
	// rotation — say the kernel opening a rendezvous release — changes
	// condition inputs after the rider's advance already ran), and only a
	// batched cycle that advances every rider proves the conditions false.
	// skipIdle gets the same proof from its fully-idle-Step precondition;
	// the batch must earn it here. Cleared after every jump so the
	// following normal cycle re-evaluates park conditions, preserving the
	// probe bound for undeclared parks.
	tryJump := nparked == 0
	exit := false
	for consumed < horizon && !exit {
		if consumed > 0 && cond != nil && cond() {
			break
		}
		if tryJump {
			tryJump = false
			if k := m.sbStallJump(horizon - consumed); k > 0 {
				consumed += k
				continue
			}
		}
		m.now++
		if m.rr++; m.rr >= ncores {
			m.rr = 0
		}
		bus.tick()
		// naiveTail: a trap or park wake happened earlier in this cycle's
		// rotation; the kernel (or done hook) may have mutated any core, so
		// the rest of the rotation must go through the naive advance path —
		// exactly what Step would do.
		naiveTail := false
		anyIssue := false
		for i, idx := 0, m.rr; i < ncores; i++ {
			c := cores[idx]
			st := &run[idx]
			if idx++; idx == ncores {
				idx = 0
			}
			if naiveTail {
				if c.State != CoreHalted && c.State != CoreOffline {
					m.advance(c)
				}
				m.sbExit = false
				continue
			}
			switch st.kind {
			case sbSkip:
				continue
			case sbParked:
				m.advance(c)
				if c.State != CoreParked {
					naiveTail, exit = true, true
				}
				continue
			}
			c.Cycles++
			if c.stall > 0 {
				c.stall--
				continue
			}
			anyIssue = true
			sb := st.sb
			if !sb.pagesFresh() {
				// Text (or a page it shares) mutated under the block: issue
				// naively this cycle — the naive fetch re-derives bytes and
				// any trap from scratch — and end the batch.
				m.stepIdle = false
				m.issue(c)
				if m.sbExit {
					m.sbExit = false
					naiveTail = true
				}
				exit = true
				continue
			}
			if c.nextJitter(shift) {
				continue
			}
			// Instruction fetch, with the cache-hit probe of memAccess
			// open-coded: a fetch hit changes no cache or bus state, so the
			// probe alone replaces the call on the ~100% case, and the
			// (fline, fgen) memo replaces the probe while the line provably
			// stays resident. Any miss (or a multi-line straddle, impossible
			// for 8-aligned fetches) runs the full path with identical state
			// evolution.
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
				continue // bus stall on fetch; retry next cycle
			}
			prev := c.PC
			ins := &sb.ins[st.pos]
			if execFast(c, ins, cost) {
				c.Instructions++
				c.sb.instrs++
			} else {
				// Op outside the trap-free fast set (memory, divide,
				// atomic, block op, syscall): full exec with trap/MMIO
				// exit handling.
				if m.exec(c, ins) {
					c.Instructions++
					c.sb.instrs++
				}
				if m.sbExit {
					m.sbExit = false
					naiveTail, exit = true, true
					continue
				}
				// A store into device-watched RAM (DMA mailbox flag)
				// invalidates the entry-time device horizon: finish the
				// cycle (the naive Step's device phase had already run by
				// the time cores execute) and end the batch, so the owning
				// device's next Tick observes the store on schedule.
				if m.watchGp != nil && m.watchDirty() {
					exit = true
				}
			}
			switch c.PC {
			case prev + isa.InstrBytes:
				if st.pos++; st.pos == sb.n {
					// Fell through the end (non-taken terminator or a block
					// truncated at a segment edge): chain to the next block.
					if nb := m.blockFor(c); nb != nil {
						st.sb, st.pos = nb, 0
					} else {
						exit = true
					}
				}
			case prev:
				// Bus stall mid-instruction or a rep-style block op still
				// copying: same instruction again next cycle.
			default:
				// Taken branch: chain to the target's block.
				if nb := m.blockFor(c); nb != nil {
					st.sb, st.pos = nb, 0
				} else {
					exit = true
				}
			}
		}
		if !anyIssue && !naiveTail {
			tryJump = true
		}
		consumed++
	}
	// Host code observing the machine after Run sees the same quiescence
	// rules as naive stepping: anything could have happened during the
	// batch, so the next fast-forward needs a fresh idle Step first.
	m.stepIdle = false
	return consumed
}

// runBlocksPair is runBlocks' batched loop specialized for exactly two
// executing cores (indices i0 < i1) with every other core halted — the
// paper's DMR pair and the benchmark-critical shape. Pinning both cores
// and their run states in locals removes the per-cycle rotation machinery
// (array indexing, wrap checks, role dispatch) that the generic loop
// pays; each serviced cycle is otherwise statement-for-statement the
// generic body, and the determinism cube compares this path against naive
// stepping like any other. The caller guarantees both sbRun entries are
// sbExec; any role change mid-batch (halt, park) only happens through a
// trap, which exits the batch.
func (m *Machine) runBlocksPair(cond func() bool, horizon uint64, i0, i1 int) uint64 {
	shift := m.prof.JitterShift
	cost := &m.prof.Costs
	hitExtra := cost.MemHit - 1
	ncores := len(m.cores)
	bus := m.bus
	c0, c1 := m.cores[i0], m.cores[i1]
	st0, st1 := &m.sbRun[i0], &m.sbRun[i1]
	m.sbExit = false
	consumed := uint64(0)
	tryJump := true
	exit := false
	for consumed < horizon && !exit {
		if consumed > 0 && cond != nil && cond() {
			break
		}
		if tryJump {
			tryJump = false
			if k := m.sbStallJump(horizon - consumed); k > 0 {
				consumed += k
				continue
			}
		}
		m.now++
		if m.rr++; m.rr >= ncores {
			m.rr = 0
		}
		bus.tick()
		a, b, sta, stb := c0, c1, st0, st1
		if m.rr > i0 && m.rr <= i1 {
			// The round-robin start point sits strictly between the two
			// cores, so the higher-indexed one is serviced first this
			// cycle — the same order the generic rotation produces.
			a, b, sta, stb = c1, c0, st1, st0
		}
		naiveTail := false
		// First core of the rotation.
		if a.Cycles++; a.stall > 0 {
			a.stall--
		} else if sb := sta.sb; !sb.pagesFresh() {
			m.stepIdle = false
			m.issue(a)
			if m.sbExit {
				m.sbExit = false
				naiveTail = true
			}
			exit = true
		} else if !a.nextJitter(shift) {
			fpa := sb.pa0 + uint64(sta.pos)*isa.InstrBytes
			ch := a.cache
			line := fpa >> ch.lineShift
			fetched := true
			if line == sta.fline && ch.gen == sta.fgen {
				if hitExtra > 0 {
					a.stall += hitExtra
				}
			} else if lidx := ch.index(line); ch.valid[lidx] && ch.tags[lidx] == line &&
				(fpa+isa.InstrBytes-1)>>ch.lineShift == line {
				sta.fline, sta.fgen = line, ch.gen
				if hitExtra > 0 {
					a.stall += hitExtra
				}
			} else if !a.memAccess(fpa, isa.InstrBytes, false) {
				fetched = false
			}
			if fetched {
				prev := a.PC
				ins := &sb.ins[sta.pos]
				trapped := false
				if execFast(a, ins, cost) {
					a.Instructions++
					a.sb.instrs++
				} else {
					if m.exec(a, ins) {
						a.Instructions++
						a.sb.instrs++
					}
					if m.sbExit {
						m.sbExit = false
						naiveTail, exit, trapped = true, true, true
					} else if m.watchGp != nil && m.watchDirty() {
						exit = true // store into device-watched RAM
					}
				}
				if !trapped {
					switch a.PC {
					case prev + isa.InstrBytes:
						if sta.pos++; sta.pos == sb.n {
							if nb := m.blockFor(a); nb != nil {
								sta.sb, sta.pos = nb, 0
							} else {
								exit = true
							}
						}
					case prev:
						// Bus stall or rep-style block op: same instruction
						// again next cycle.
					default:
						if nb := m.blockFor(a); nb != nil {
							sta.sb, sta.pos = nb, 0
						} else {
							exit = true
						}
					}
				}
			}
		}
		// Second core: naive advance when the first one trapped (the
		// kernel may have mutated it), the batch path otherwise.
		if naiveTail {
			if b.State != CoreHalted && b.State != CoreOffline {
				m.advance(b)
			}
			m.sbExit = false
		} else if b.Cycles++; b.stall > 0 {
			b.stall--
		} else if sb := stb.sb; !sb.pagesFresh() {
			m.stepIdle = false
			m.issue(b)
			if m.sbExit {
				m.sbExit = false
			}
			exit = true
		} else if !b.nextJitter(shift) {
			fpa := sb.pa0 + uint64(stb.pos)*isa.InstrBytes
			ch := b.cache
			line := fpa >> ch.lineShift
			fetched := true
			if line == stb.fline && ch.gen == stb.fgen {
				if hitExtra > 0 {
					b.stall += hitExtra
				}
			} else if lidx := ch.index(line); ch.valid[lidx] && ch.tags[lidx] == line &&
				(fpa+isa.InstrBytes-1)>>ch.lineShift == line {
				stb.fline, stb.fgen = line, ch.gen
				if hitExtra > 0 {
					b.stall += hitExtra
				}
			} else if !b.memAccess(fpa, isa.InstrBytes, false) {
				fetched = false
			}
			if fetched {
				prev := b.PC
				ins := &sb.ins[stb.pos]
				trapped := false
				if execFast(b, ins, cost) {
					b.Instructions++
					b.sb.instrs++
				} else {
					if m.exec(b, ins) {
						b.Instructions++
						b.sb.instrs++
					}
					if m.sbExit {
						m.sbExit = false
						exit, trapped = true, true
					} else if m.watchGp != nil && m.watchDirty() {
						exit = true // store into device-watched RAM
					}
				}
				if !trapped {
					switch b.PC {
					case prev + isa.InstrBytes:
						if stb.pos++; stb.pos == sb.n {
							if nb := m.blockFor(b); nb != nil {
								stb.sb, stb.pos = nb, 0
							} else {
								exit = true
							}
						}
					case prev:
					default:
						if nb := m.blockFor(b); nb != nil {
							stb.sb, stb.pos = nb, 0
						} else {
							exit = true
						}
					}
				}
			}
		}
		// Arm the stall jump whenever both cores end the cycle mid-stall:
		// the next iteration bulk-charges the shared window. Pure host
		// heuristic — the jump itself re-verifies that no core can issue.
		tryJump = a.stall > 0 && b.stall > 0
		consumed++
	}
	m.stepIdle = false
	return consumed
}

// sbStallJump bulk-charges a window in which every executing core is
// mid-stall and every parked core is bounded, exactly as skipIdle does for
// fully idle windows: no core reaches an issue opportunity, so the only
// evolving state is time, per-core cycle counters, stall balances, and the
// bus token bucket. Returns 0 when any executing core could issue now.
func (m *Machine) sbStallJump(limit uint64) uint64 {
	k := limit
	for i, c := range m.cores {
		var d uint64
		switch m.sbRun[i].kind {
		case sbSkip:
			continue
		case sbParked:
			switch c.parkWake {
			case 0:
				d = ParkProbeInterval
			case NoEvent:
				continue
			default:
				if c.parkWake <= c.Cycles+1 {
					return 0
				}
				d = c.parkWake - c.Cycles - 1
			}
		default: // sbExec
			if c.stall <= 0 {
				return 0
			}
			d = uint64(c.stall)
		}
		if d < k {
			k = d
		}
	}
	if k == 0 {
		return 0
	}
	m.now += k
	m.rr = int(m.now % uint64(len(m.cores)))
	m.bus.skip(k)
	for i, c := range m.cores {
		if m.sbRun[i].kind == sbSkip {
			continue
		}
		c.Cycles += k
		if uint64(c.stall) <= k {
			c.stall = 0
		} else {
			c.stall -= int(k)
		}
	}
	m.sbJumped += k
	return k
}

// execFast executes the ops that can neither trap, touch memory, nor
// stall on the bus: pure register arithmetic, immediates, FP, and
// branches. Each arm is the corresponding exec arm verbatim minus the
// dispatch framing, so the architectural effect is identical; the
// 8-variant determinism cube enforces that equivalence. Returns false for
// any other op, which the batch loop routes through the full exec.
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
	Jumped      uint64 // stall-window cycles bulk-charged inside batches
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
	s := SuperblockStats{Jumped: m.sbJumped}
	for _, c := range m.cores {
		s.Instrs += c.Instructions
		if c.sb != nil {
			s.Blocks += c.sb.built
			s.BlockInstrs += c.sb.instrs
		}
	}
	return s
}
