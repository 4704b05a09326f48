package machine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rcoe/internal/forkjoin"
	"rcoe/internal/isa"
)

// MMIOHandler receives loads and stores that hit a device window.
type MMIOHandler interface {
	MMIORead(addr uint64, size int) uint64
	MMIOWrite(addr uint64, size int, v uint64)
}

// Device is ticked once per global cycle so it can raise interrupts and
// perform DMA. NextEvent returns the earliest cycle after now at which Tick
// would not be a no-op, or NoEvent while the device stays quiescent until a
// core or host action changes its state; a superblock batch runs up to the
// cycle before it (sbHorizon). An early answer only costs naive steps — a
// device that cannot predict its next event answers now+1 — but a late one
// would let a batch run over a DMA transfer or interrupt.
type Device interface {
	Tick(m *Machine)
	NextEvent(now uint64) uint64
}

// MemWatcher is implemented by devices whose NextEvent answer depends on
// the contents of ordinary RAM — typically DMA mailbox flags that a
// driver writes with plain stores rather than MMIO. The superblock engine
// keeps cores executing under a horizon computed at batch entry; a store
// into a watched range invalidates that horizon, so the batch re-derives
// it after the store's cycle (and ends when the event is due) and the
// device's next Tick runs naively — observing the store exactly when
// per-cycle ticking would have. A device declares exactly the words its
// NextEvent answer depends on: memory only its Tick writes, or only reads
// after an MMIO access (which ends the batch anyway), moves no horizon.
// Watching is page-granular, so a wider range costs earlier re-derivations,
// never correctness.
type MemWatcher interface {
	WatchedMem() (lo, hi uint64)
}

// NoEvent is the NextEvent and Core.Park wake sentinel for "no time-driven
// event pending".
const NoEvent = ^uint64(0)

type mmioWindow struct {
	base, size uint64
	dev        MMIOHandler
}

// ErrTimeout is returned (wrapped) by RunUntil when the condition does not
// become true within the cycle budget.
var ErrTimeout = errors.New("machine: run timed out")

// timeoutError is RunUntil's ErrTimeout, holding the cycle budget. Callers
// that pump a machine in slices time out on every call and drop the error,
// so the text is built only when somebody reads it.
type timeoutError uint64

func (e timeoutError) Error() string {
	return fmt.Sprintf("%v after %d cycles", ErrTimeout, uint64(e))
}

func (e timeoutError) Unwrap() error { return ErrTimeout }

// Machine is the simulated multicore system: cores, physical memory, the
// shared bus, MMIO devices, and interrupt routing.
type Machine struct {
	prof    Profile
	mem     *Mem
	bus     *bus
	cores   []*Core
	handler TrapHandler
	// local is the handler's LocalTrapper side, nil when it has none.
	local   LocalTrapper
	windows []mmioWindow
	devices []Device

	// irqRoute maps device interrupt lines to the core that receives
	// them. RCoE routes all device interrupts to the primary replica and
	// re-routes them when the primary is removed (§IV-A).
	irqRoute [64]int

	// OnIRQRoute, when set, observes every interrupt re-route (the
	// flight recorder logs primary fail-overs through it). It must not
	// perturb machine state.
	OnIRQRoute func(line, coreID int)

	// mmioLo/mmioHi bound the union of all MMIO windows so the hot data
	// path can reject non-device addresses with two compares instead of a
	// window scan. mmioLo > mmioHi means no windows are mapped.
	mmioLo, mmioHi uint64

	now uint64
	// rr caches now % len(cores) — the round-robin service origin for the
	// current cycle — maintained incrementally so the per-cycle Step loop
	// avoids a 64-bit division. A batch's bulk credit re-derives it after a
	// time jump.
	rr int

	// execCache enables the host-side data translation memo
	// (execcache.go). Provably invisible to simulated state; the
	// differential determinism suite compares fingerprints with it on and
	// off.
	execCache bool
	// superblock enables the batched execution engine (superblock.go),
	// which also charges idle windows in bulk. Like the execution cache it
	// is provably invisible to simulated state.
	superblock bool

	// parkEpoch counts the points at which a park condition's inputs other
	// than its watched page and its core's Cycles may have changed: every
	// trap, every park wake, every RaiseIRQ and SendIPI, and every Step, Run
	// and RunUntil call. A park (Core.Park) skips its condition while the
	// epoch and the watched page are unchanged. Starts at 1 so a core's
	// parkSeenEpoch of 0 never matches. Host-derived, never serialized.
	parkEpoch uint64
	// parkStats counts park polls and the evaluations they led to.
	parkStats ParkStats

	// sbExit is set by trap (sbExitTrap) and the MMIO execution branches
	// (sbExitMMIO) so the batched superblock loop can detect, immediately
	// after exec returns, that the kernel or a device observed (and may
	// have mutated) machine state, and by a local kernel entry
	// (sbExitLocal), after which only the trapping core is re-derived. The
	// naive paths never read it.
	sbExit uint8
	// The engine's diagnostics, which restart on a load: sbStats holds its
	// scalar counters (the fields SuperblockStats fills from the cores and
	// from the two arrays stay 0 here), sbExits counts why batches ended,
	// by batchExit, and sbRewound the cycles run ahead and then undone for
	// good, by rewindCause.
	sbStats   SuperblockStats
	sbExits   [nBatchExits]uint64
	sbRewound [nRewindCauses]uint64
	// sbSolo is the core running solo (see solo), nil when none is, and
	// sbSoloFrom the cycle up to which the other cores have been credited
	// for the last run: its start until sbSettle, the cycle it was settled
	// in after.
	sbSolo     *sbRunState
	sbSoloFrom uint64
	// sbRun is the per-core batch state, allocated once; sbAct lists the
	// entries of the cores the current batch drives, in index order, and
	// sbGated is the buffer sbGate builds the next such list in.
	sbRun   []sbRunState
	sbAct   []*sbRunState
	sbGated []*sbRunState
	// sbLong lists the runs of a loop top that used their whole probe
	// (runBlocks), and runPool is the pool that lets them go on side by
	// side, allocated at the first such loop top. goOnJob is the pool's
	// job (goOnRun), built with the pool, so a fork allocates nothing;
	// goOn sets goOnLong and goOnMore for the length of a fork.
	sbLong   []*sbRunState
	runPool  *forkjoin.Pool
	goOnJob  func(int)
	goOnLong []*sbRunState
	goOnMore uint64
	// watchGp points into mem.pageGen for every device-watched RAM page
	// (MemWatcher); watchSnap holds their values at batch entry and at
	// every re-derivation. A batched store that bumps a watched generation
	// makes the batch re-derive its device horizon after that cycle, so the
	// owning device's next Tick runs naively when due (see watchDirty).
	watchGp   []*uint64
	watchSnap []uint64
	// watchPg lists the device-watched pages, and the privacy map
	// (privRefresh) holds per page which core may touch it ahead of machine
	// time: pgData for data, pgWriter for text. privSegs is what the map was
	// built from, privWatch how many watched pages and MMIO windows it
	// excludes, privKeys the address spaces' keys when that was last
	// checked, and privGen counts its builds.
	watchPg          []uint64
	pgData, pgWriter []uint8
	privSegs         []privSeg
	privKeys         []asKey
	privWatch        int
	privGen          uint64
}

// defaultExecCache seeds Machine.execCache in New. Package-level so
// command-line tools (-no-execcache) can flip it before systems are built.
var defaultExecCache = true

// SetDefaultExecCache sets whether newly created machines use the
// execution cache (default true).
func SetDefaultExecCache(on bool) { defaultExecCache = on }

// defaultSuperblock seeds Machine.superblock in New, mirroring the
// exec-cache default so command-line tools (-no-superblock) can flip it
// before systems are built.
var defaultSuperblock = true

// SetDefaultSuperblock sets whether newly created machines use the
// superblock engine (default true).
func SetDefaultSuperblock(on bool) { defaultSuperblock = on }

// New creates a machine with the given profile and physical memory size.
// The trap handler (the kernel) must be set with SetHandler before Run.
func New(prof Profile, memBytes int) *Machine {
	m := &Machine{
		prof:       prof,
		mem:        NewMem(memBytes),
		bus:        newBus(prof.BusBytesPerCycle),
		execCache:  defaultExecCache,
		superblock: defaultSuperblock,
		mmioLo:     ^uint64(0), // empty until MapMMIO
		parkEpoch:  1,
	}
	for i, ch := range newCaches(prof.Cores, prof.CacheBytes, prof.CacheLine) {
		c := &Core{
			ID:         i,
			State:      CoreHalted, // cores boot via StartCore
			IntEnabled: true,
			cache:      ch,
			jitter:     uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
			parkGp:     &noWatch,
			m:          m,
		}
		m.cores = append(m.cores, c)
	}
	return m
}

// SetHandler installs the kernel trap handler.
func (m *Machine) SetHandler(h TrapHandler) {
	m.handler = h
	m.local, _ = h.(LocalTrapper)
}

// Profile returns the machine profile.
func (m *Machine) Profile() Profile { return m.prof }

// Mem returns physical memory.
func (m *Machine) Mem() *Mem { return m.mem }

// Now returns the global cycle count.
func (m *Machine) Now() uint64 { return m.now }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// StartCore boots a core at pc with the given address space.
func (m *Machine) StartCore(id int, pc uint64, as *AddrSpace) {
	c := m.cores[id]
	c.PC = pc
	c.AS = as
	c.State = CoreRunning
	c.FlushCache()
}

// MapMMIO registers a device register window at a physical address range
// (conventionally above RAM).
func (m *Machine) MapMMIO(base, size uint64, dev MMIOHandler) {
	m.windows = append(m.windows, mmioWindow{base: base, size: size, dev: dev})
	if base < m.mmioLo {
		m.mmioLo = base
	}
	if base+size-1 > m.mmioHi {
		m.mmioHi = base + size - 1
	}
}

// AddDevice registers a device for per-cycle ticking. A device that also
// implements MemWatcher has its declared RAM range registered with the
// superblock engine (see watchMem).
func (m *Machine) AddDevice(d Device) {
	m.devices = append(m.devices, d)
	if w, ok := d.(MemWatcher); ok {
		m.watchMem(w.WatchedMem())
	}
}

// RouteIRQ directs a device interrupt line to a core.
func (m *Machine) RouteIRQ(line, coreID int) {
	m.irqRoute[line] = coreID
	if m.OnIRQRoute != nil {
		m.OnIRQRoute(line, coreID)
	}
}

// IRQRoute returns the core a line is routed to.
func (m *Machine) IRQRoute(line int) int { return m.irqRoute[line] }

// RaiseIRQ asserts a device interrupt line; it is latched on the routed
// core until acknowledged. Park conditions may read the latch, so it moves
// the park epoch.
func (m *Machine) RaiseIRQ(line int) {
	c := m.cores[m.irqRoute[line]]
	c.pendingIRQ |= 1 << uint(line)
	m.parkEpoch++
}

// SendIPI latches an inter-processor interrupt on the target core; the
// cost model charges the IPI latency as a stall on the receiver. Like
// RaiseIRQ it moves the park epoch.
func (m *Machine) SendIPI(to int) {
	m.parkEpoch++
	c := m.cores[to]
	if !c.pendingIPI {
		c.pendingIPI = true
		c.AddStall(m.prof.Costs.IPILatency)
	}
}

func (m *Machine) mmioAt(pa uint64) (MMIOHandler, bool) {
	// Fast reject: on the data hot path nearly every access is RAM, well
	// below the device windows.
	if pa < m.mmioLo || pa > m.mmioHi {
		return nil, false
	}
	for _, w := range m.windows {
		if pa >= w.base && pa < w.base+w.size {
			return w.dev, true
		}
	}
	return nil, false
}

// PhysReadU reads a value from physical memory or an MMIO window; the
// kernel uses this for FT_Mem_Access.
func (m *Machine) PhysReadU(pa uint64, size int) (uint64, error) {
	if dev, ok := m.mmioAt(pa); ok {
		return dev.MMIORead(pa, size), nil
	}
	return m.mem.ReadU(pa, size)
}

// PhysWriteU writes a value to physical memory or an MMIO window.
func (m *Machine) PhysWriteU(pa uint64, size int, v uint64) error {
	if dev, ok := m.mmioAt(pa); ok {
		dev.MMIOWrite(pa, size, v)
		return nil
	}
	return m.mem.WriteU(pa, size, v)
}

// Step advances the machine by one global cycle. The core service order
// rotates every cycle so that bus arbitration is fair: a fixed order
// would systematically favour low-numbered cores during miss bursts and
// skew otherwise-identical replicas apart.
func (m *Machine) Step() {
	m.parkEpoch++ // host code may have run since the last call
	m.step()
}

// step is Step for the Run and RunUntil loops, inside which no host code
// runs between cycles.
func (m *Machine) step() {
	m.now++
	n := len(m.cores)
	if m.rr++; m.rr >= n {
		m.rr = 0
	}
	m.bus.tick()
	for _, d := range m.devices {
		d.Tick(m)
	}
	for i, idx := 0, m.rr; i < n; i++ {
		c := m.cores[idx]
		// Halted and offline cores are no-ops in advance; skipping them
		// here keeps the per-cycle loop tight on partially-idle machines.
		if c.State != CoreHalted && c.State != CoreOffline {
			m.advance(c)
		}
		if idx++; idx == n {
			idx = 0
		}
	}
}

// SetExecCache enables or disables the execution cache (the data
// translation memo) for this machine. Safe to flip at any point: the memo
// validates against address-space keys, never against "the cache was on
// the whole time".
func (m *Machine) SetExecCache(on bool) { m.execCache = on }

// SetSuperblock enables or disables the superblock engine, and with it the
// idle skip, for this machine. Safe to flip at any point: blocks validate
// against mutation generations on every use, never against "the engine was
// on the whole time".
func (m *Machine) SetSuperblock(on bool) { m.superblock = on }

// SuperblockEnabled reports whether the superblock engine is enabled.
func (m *Machine) SuperblockEnabled() bool { return m.superblock }

// FastForwarded returns the total cycles a superblock batch credited in
// bulk while no executing core held a block — every core parked, halted,
// offline or only counting down a stall — instead of stepping them.
func (m *Machine) FastForwarded() uint64 { return m.sbStats.FastForwarded }

// ParkStats counts the polls of parked cores. Polls is every stepped cycle
// a parked core spent waiting; cycles a superblock batch charges in bulk
// poll nothing, because every executing core is promised (superblock.go)
// and the park's declarations prove its condition still false. Evals is
// how many polls ran the park condition, the rest being skipped under the
// park's declarations (Core.Park). Like FastForwarded it is host-side
// diagnostics: never serialized, never part of an artifact.
type ParkStats struct {
	Polls, Evals uint64
}

// ParkStats returns the park poll counters.
func (m *Machine) ParkStats() ParkStats { return m.parkStats }

// Run advances the machine by n cycles. With the superblock engine enabled,
// batches carry the run, and idle windows — every core parked, stalled,
// halted, or offline, and no device due — are bulk-charged instead of
// stepped, with identical architectural outcome (see runBlocks).
func (m *Machine) Run(n uint64) {
	// Host code may have mutated what park conditions read since the last
	// call: every park is evaluated again before a credit carries it.
	m.parkEpoch++
	for i := uint64(0); i < n; {
		if m.superblock && n-i > 1 {
			if k := m.runBlocks(nil, n-i-1); k > 0 {
				i += k
				continue
			}
		}
		m.step()
		i++
	}
}

// RunUntil steps the machine until cond returns true, or fails with
// ErrTimeout after maxCycles. cond must depend only on state that kernel,
// host or device code mutates — a trap handler's flags, a halted or
// offline core, a device register — never on what a core changes by merely
// executing (its registers, PC or counters) nor on time alone (Now() >= X;
// bound such waits with Run), and not on what a local kernel entry
// (LocalTrapper) changes. The superblock engine relies on it: a batch
// evaluates cond only after a cycle in which such code ran — a park wake
// or an MMIO access ends the batch with its cycle and RunUntil evaluates
// cond before the next one; after a trap other than a local one the batch
// goes on only while cond is false. DebugCondShadow checks the contract.
func (m *Machine) RunUntil(cond func() bool, maxCycles uint64) error {
	// Kept small enough to inline, so a caller that drops the error does
	// not pay for boxing it.
	if !m.runUntil(cond, maxCycles) {
		return timeoutError(maxCycles)
	}
	return nil
}

// runUntil is RunUntil's loop; it reports whether cond became true.
func (m *Machine) runUntil(cond func() bool, maxCycles uint64) bool {
	start := m.now
	m.parkEpoch++ // see Run
	for !cond() {
		if m.now-start >= maxCycles {
			return false
		}
		if m.superblock {
			if left := maxCycles - (m.now - start); left > 1 {
				// Inside a batch cond can turn true only through a trap
				// handler (see above): the batch evaluates it after every
				// trap it goes on from, and looping back evaluates it
				// before the next cycle.
				if m.runBlocks(cond, left-1) > 0 {
					continue
				}
			}
		}
		m.step()
	}
	return true
}

// AllHalted reports whether every core is halted or offline.
func (m *Machine) AllHalted() bool {
	for _, c := range m.cores {
		if c.State == CoreRunning || c.State == CoreParked {
			return false
		}
	}
	return true
}

func (m *Machine) advance(c *Core) {
	switch c.State {
	case CoreHalted, CoreOffline:
		return
	case CoreParked:
		c.Cycles++
		// Kernel work charged just before parking (e.g. the final debug
		// exception of a catch-up) overlaps the barrier spin: consume it
		// while waiting, so release resumes user code without a stale
		// stall that would systematically skew this replica behind its
		// peers on every synchronisation.
		if c.stall > 0 {
			c.stall--
		}
		if c.parkCond == nil {
			return
		}
		m.parkStats.Polls++
		if *c.parkGp == c.parkSeenGen && m.parkEpoch == c.parkSeenEpoch && c.Cycles < c.parkWake {
			// Nothing the condition reads has changed since it last
			// returned false (see Core.Park): skip the evaluation.
			if DebugParkShadow != nil {
				m.sbSync(rwShadow)
				if c.parkCond() {
					DebugParkShadow(c.ID, m.now)
				}
			}
			return
		}
		c.parkSeenGen, c.parkSeenEpoch = *c.parkGp, m.parkEpoch
		m.parkStats.Evals++
		m.sbSync(rwPark) // the condition may read any core
		if c.parkCond() {
			// The condition may have completed a barrier on behalf of every
			// waiter, and done is kernel code: both can change what other
			// parks read.
			m.parkEpoch++
			done := c.parkDone
			c.State = CoreRunning
			c.parkCond, c.parkDone = nil, nil
			c.parkWake = 0
			if done != nil {
				done()
			}
		}
		return
	}
	c.Cycles++
	if c.stall > 0 {
		c.stall--
		return
	}
	m.issue(c)
}

// issue runs one issue opportunity on a running, unstalled core: the
// jitter draw, interrupt delivery, debug checks, and instruction
// execution, in that order. Shared by the naive advance path and the
// superblock engine's fall-back-to-naive cycles.
func (m *Machine) issue(c *Core) {
	if c.nextJitter(m.prof.JitterShift) {
		return
	}
	if c.IntEnabled && (c.pendingIRQ != 0 || c.pendingIPI) {
		c.AddStall(m.prof.Costs.IRQDeliver)
		m.trap(c, Trap{Kind: TrapIRQ, PC: c.PC})
		return
	}
	if c.BP.Enabled && c.PC == c.BP.Addr && !c.ResumeOnce {
		m.trap(c, Trap{Kind: TrapBreakpoint, PC: c.PC})
		return
	}
	m.execOne(c)
}

// DebugTrace, when non-nil, observes every trap (tests only).
var DebugTrace func(coreID int, kind TrapKind, pc uint64, now uint64)

// DebugParkShadow, when non-nil, makes every park poll that the park's
// declarations skip evaluate its condition anyway, and observes each one
// that returns true — a violation of the declarations (tests only).
var DebugParkShadow func(coreID int, now uint64)

// DebugCondShadow, when non-nil, makes a superblock batch under RunUntil
// evaluate the condition before every cycle after its first, as naive
// stepping does, and observes each evaluation that returns true — a
// violation of RunUntil's contract (tests only).
var DebugCondShadow func(now uint64)

// DebugLocalShadow, when non-nil, makes every local kernel entry bring the
// other cores to machine time first, as any other entry does, and observes
// each thing its handler changed that LocalTrapper promises it leaves alone
// — another core's run state, latches, debug registers, scheduling state,
// address space or cache, or a page one of their runs touched (tests only).
// The batch then goes on as after any other entry.
var DebugLocalShadow func(coreID int, now uint64, what string)

// trap hands control to the kernel. The handler mutates the core and
// returns; user execution resumes on a later cycle (after any stall the
// handler charged). A local entry (LocalTrapper) while no core is parked is
// no observation point: the other cores' runs stay ahead, and the batch
// re-derives only c's block (sbExitLocal) — unless the handler left c not
// running, in which case the entry is finished as any other.
func (m *Machine) trap(c *Core, t Trap) {
	local := m.local != nil && !m.anyParked() && m.local.LocalTrap(c, t)
	shadowed := local && DebugLocalShadow != nil
	var shadow []shadowCore
	if !local {
		m.sbSync(rwTrap)       // the kernel may read any core: none may run ahead of this cycle
		m.sbExit |= sbExitTrap // ... and may mutate anything
	} else if shadowed {
		m.sbSync(rwShadow)
		shadow = m.localShadow(c, nil)
	}
	m.parkEpoch++ // the handler may change what parked cores wait on
	if DebugTrace != nil {
		DebugTrace(c.ID, t.Kind, t.PC, m.now)
	}
	c.AddStall(m.prof.Costs.KernelEntry)
	if m.handler != nil {
		m.handler.HandleTrap(c, t)
	}
	if !local {
		return
	}
	if shadowed {
		m.localShadow(c, shadow)
	}
	if c.State == CoreRunning {
		m.sbStats.Local++
		if !shadowed {
			m.sbExit |= sbExitLocal
			return
		}
	}
	m.sbSync(rwTrap)
	m.sbExit |= sbExitTrap
}

// shadowCore is what DebugLocalShadow compares of a core other than the
// trapping one: its run state (registers, counters, latches, debug
// registers), scheduling state, address space, cache and the pages its last
// run touched, with their generations.
type shadowCore struct {
	id    int
	run   coreRun
	state CoreState
	as    asKey
	cgen  uint64
	pages []aheadPage
}

// localShadow records every core but c, and with want — the record taken
// before the handler ran — reports to DebugLocalShadow what differs.
func (m *Machine) localShadow(c *Core, want []shadowCore) []shadowCore {
	var got []shadowCore
	for _, o := range m.cores {
		if o == c {
			continue
		}
		s := shadowCore{id: o.ID, state: o.State, as: o.AS.key(), cgen: o.cache.gen}
		o.saveRun(&s.run)
		if o.ID < len(m.sbRun) {
			for _, pg := range m.sbRun[o.ID].pages {
				s.pages = append(s.pages, aheadPage{pg.p, m.mem.pageGen[pg.p]})
			}
		}
		got = append(got, s)
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.run != w.run {
			DebugLocalShadow(c.ID, m.now, fmt.Sprintf("core %d's run state", g.id))
		}
		if g.state != w.state || g.as != w.as || g.cgen != w.cgen {
			DebugLocalShadow(c.ID, m.now, fmt.Sprintf("core %d's state, address space or cache", g.id))
		}
		if !slices.Equal(g.pages, w.pages) {
			DebugLocalShadow(c.ID, m.now, fmt.Sprintf("a page core %d's run touched", g.id))
		}
	}
	return got
}

// anyParked reports whether a core is parked.
func (m *Machine) anyParked() bool {
	for _, c := range m.cores {
		if c.State == CoreParked {
			return true
		}
	}
	return false
}

// execOne fetches, decodes and executes one instruction on c. Bus
// exhaustion leaves the core at the same PC to retry next cycle.
func (m *Machine) execOne(c *Core) {
	ins, ok := m.fetch(c)
	if !ok {
		return // trap taken or bus stall on fetch
	}
	// Fast tail for the common case: no debug feature armed on this core,
	// so the instruction either retires or retries — nothing to observe.
	if !c.BP.Enabled && !c.BranchWatch.Enabled && !c.SingleStep {
		if m.exec(c, &ins) {
			c.Instructions++
		}
		return
	}
	atBP := c.BP.Enabled && c.PC == c.BP.Addr
	prevPC := c.PC
	branchesBefore := c.UserBranches
	if !m.exec(c, &ins) {
		return // bus stall mid-instruction; retry
	}
	c.Instructions++
	m.debugTail(c, branchesBefore, atBP && c.PC != prevPC)
}

// debugTail finishes an issue that began with a debug feature armed, after
// its instruction retired: the branch watch, then the resume flag, then
// single-step — armed before the issue or by a trap handler the
// instruction entered. completedAtBP says the instruction started on the
// breakpoint and moved on. execOne and, for a core that keeps its blocks
// under a branch watch, sbIssue share it.
func (m *Machine) debugTail(c *Core, branchesBefore uint64, completedAtBP bool) {
	if c.UserBranches != branchesBefore && m.branchWatch(c) {
		return
	}
	// The resume flag acts at *instruction* granularity: a rep-style block
	// operation that keeps PC in place is still the same instruction, so
	// the breakpoint stays suppressed until it completes (x86 RF
	// semantics). The trap flag is finer: a rep-prefixed instruction under
	// TF delivers a debug exception after every iteration, so single-step
	// traps on each issue — which is what lets a kernel stop a replica at
	// an exact position *inside* a block copy (the paper's §III-D
	// rep-prefix discussion).
	if completedAtBP && c.ResumeOnce {
		c.ResumeOnce = false
	}
	if c.SingleStep {
		c.SingleStep = false
		m.trap(c, Trap{Kind: TrapSingleStep, PC: c.PC})
	}
}

// branchWatch is the PMU overflow check after a retired instruction that
// moved UserBranches: once the count reaches an armed target the watch
// disarms and the core traps. Only a branch moves the count, and a branch
// ends a superblock, so the batch engine calls this from sbIssue and keeps
// runs short of the firing branch (ahead). It reports whether the
// trap was taken.
func (m *Machine) branchWatch(c *Core) bool {
	if !c.BranchWatch.Enabled || c.UserBranches < c.BranchWatch.Target {
		return false
	}
	c.BranchWatch.Enabled = false
	m.trap(c, Trap{Kind: TrapBranchWatch, PC: c.PC})
	return true
}

// fetch resolves PC, charges the fetch through the cost model, and returns
// the decoded instruction. ok=false means no instruction executes this
// cycle: a trap was taken (translation, read or decode failure) or the bus
// stalled the fetch.
func (m *Machine) fetch(c *Core) (isa.Instr, bool) {
	pa, _, ok := c.AS.Translate(c.PC, isa.InstrBytes, PermX)
	if !ok {
		m.trap(c, Trap{Kind: TrapMemFault, Addr: c.PC, PC: c.PC})
		return isa.Instr{}, false
	}
	if !c.memAccess(pa, isa.InstrBytes, false) {
		return isa.Instr{}, false // bus stall on fetch
	}
	var raw [isa.InstrBytes]byte
	if m.mem.ReadAt(pa, raw[:]) != nil {
		m.trap(c, Trap{Kind: TrapMemFault, Addr: c.PC, PC: c.PC})
		return isa.Instr{}, false
	}
	ins, err := isa.Decode(raw[:])
	if err != nil {
		m.trap(c, Trap{Kind: TrapIllegal, Addr: c.PC, PC: c.PC})
		return isa.Instr{}, false
	}
	return ins, true
}

// xlate translates a data access for the execution path, through the
// per-core translation memo when the execution cache is enabled. The
// (pa, ok) result is bit-identical to AddrSpace.Translate either way.
func (m *Machine) xlate(c *Core, va uint64, n int, need Perm) (uint64, bool) {
	if m.execCache {
		return c.ec.translate(c.AS, va, n, need)
	}
	pa, _, ok := c.AS.Translate(va, n, need)
	return pa, ok
}

// exec executes a decoded instruction; it returns false if the core must
// retry the same instruction next cycle (bus stall). All architectural
// side effects happen only on the true path. The instruction is passed by
// pointer purely to keep the per-instruction host cost down (the cost
// table likewise); exec never mutates it.
//
// Every op is defined once: the register-only ones in execFast
// (superblock.go), the rest in execSlow.
func (m *Machine) exec(c *Core, ins *isa.Instr) bool {
	if execFast(c, ins, &m.prof.Costs) {
		return true
	}
	return m.execSlow(c, ins)
}

// execSlow executes the ops outside execFast's set: the ones that can
// trap, touch memory or a device, or stall on the bus. The batch loop
// calls it directly for the instructions its block marks as not fast.
func (m *Machine) execSlow(c *Core, ins *isa.Instr) bool {
	cost := &m.prof.Costs
	nextPC := c.PC + isa.InstrBytes
	switch ins.Op {
	case isa.OpDiv:
		d := int64(c.reg(ins.Rs2))
		if d == 0 {
			m.trap(c, Trap{Kind: TrapDivZero, PC: c.PC})
			return true
		}
		n := int64(c.reg(ins.Rs1))
		if n == math.MinInt64 && d == -1 {
			c.setReg(ins.Rd, uint64(n))
		} else {
			c.setReg(ins.Rd, uint64(n/d))
		}
		c.AddStall(cost.Div - 1)
	case isa.OpDivu:
		d := c.reg(ins.Rs2)
		if d == 0 {
			m.trap(c, Trap{Kind: TrapDivZero, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, c.reg(ins.Rs1)/d)
		c.AddStall(cost.Div - 1)
	case isa.OpRem:
		d := c.reg(ins.Rs2)
		if d == 0 {
			m.trap(c, Trap{Kind: TrapDivZero, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, c.reg(ins.Rs1)%d)
		c.AddStall(cost.Div - 1)
	case isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8:
		size := loadSize(ins.Op)
		va := c.reg(ins.Rs1) + uint64(int64(ins.Imm))
		pa, ok := m.xlate(c, va, size, PermR)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if dev, isMMIO := m.mmioAt(pa); isMMIO {
			m.sbExit |= sbExitMMIO // device read may have side effects (IRQ, DMA)
			m.sbSync(rwMMIO)       // ... and may read any core
			c.setReg(ins.Rd, dev.MMIORead(pa, size))
			c.AddStall(cost.MemMiss)
			break
		}
		return m.ramLoad(c, ins, va, pa, size)

	case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
		size := storeSize(ins.Op)
		va := c.reg(ins.Rs1) + uint64(int64(ins.Imm))
		pa, ok := m.xlate(c, va, size, PermW)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if dev, isMMIO := m.mmioAt(pa); isMMIO {
			m.sbExit |= sbExitMMIO // device write may have side effects (IRQ, DMA)
			m.sbSync(rwMMIO)       // ... and may read any core
			dev.MMIOWrite(pa, size, c.reg(ins.Rs2))
			c.AddStall(cost.MemMiss)
			break
		}
		return m.ramStore(c, ins, va, pa, size)

	case isa.OpLL:
		va := c.reg(ins.Rs1)
		pa, ok := m.xlate(c, va, 8, PermR)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if !c.memAccess(pa, 8, false) {
			return false
		}
		v, err := m.mem.ReadU(pa, 8)
		if err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, v)
		c.llAddr, c.llValid = pa, true
	case isa.OpSC:
		va := c.reg(ins.Rs1)
		pa, ok := m.xlate(c, va, 8, PermW)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if !c.llValid || c.llAddr != pa {
			c.setReg(ins.Rd, 1) // reservation lost
			break
		}
		if !c.memAccess(pa, 8, true) {
			return false
		}
		if err := m.mem.WriteU(pa, 8, c.reg(ins.Rs2)); err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		c.llValid = false
		c.setReg(ins.Rd, 0)
	case isa.OpCas:
		va := c.reg(ins.Rs1)
		pa, ok := m.xlate(c, va, 8, PermR|PermW)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if !c.memAccess(pa, 8, true) {
			return false
		}
		old, err := m.mem.ReadU(pa, 8)
		if err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if old == c.reg(ins.Rd) {
			if err := m.mem.WriteU(pa, 8, c.reg(ins.Rs2)); err != nil {
				m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
				return true
			}
		}
		c.setReg(ins.Rd, old)
		c.AddStall(cost.Mul) // locked-op cost
	case isa.OpXadd:
		va := c.reg(ins.Rs1)
		pa, ok := m.xlate(c, va, 8, PermR|PermW)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if !c.memAccess(pa, 8, true) {
			return false
		}
		old, err := m.mem.ReadU(pa, 8)
		if err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if err := m.mem.WriteU(pa, 8, old+c.reg(ins.Rs2)); err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, old)
		c.AddStall(cost.Mul)

	case isa.OpMemcpy:
		remaining := c.reg(ins.Rd)
		if remaining == 0 {
			break // done; fall through to PC advance
		}
		if c.BlockWatch.Enabled && remaining == c.BlockWatch.Rem {
			c.BlockWatch.Enabled = false
			m.trap(c, Trap{Kind: TrapBlockWatch, PC: c.PC})
			return true
		}
		chunk := uint64(m.prof.MemCopyChunk)
		if remaining < chunk {
			chunk = remaining
		}
		dstVA, srcVA := c.reg(ins.Rs1), c.reg(ins.Rs2)
		dstPA, okD := m.xlate(c, dstVA, int(chunk), PermW)
		srcPA, okS := m.xlate(c, srcVA, int(chunk), PermR)
		if !okD || !okS {
			va := dstVA
			if !okS {
				va = srcVA
			}
			m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
			return true
		}
		if !c.streamAccess(srcPA, dstPA, int(chunk)) {
			return false
		}
		if err := m.mem.Move(dstPA, srcPA, int(chunk)); err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: dstVA, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, remaining-chunk)
		c.setReg(ins.Rs1, dstVA+chunk)
		c.setReg(ins.Rs2, srcVA+chunk)
		if remaining-chunk > 0 {
			nextPC = c.PC // rep-style: stay on the instruction
		}

	case isa.OpMemset:
		remaining := c.reg(ins.Rd)
		if remaining == 0 {
			break
		}
		if c.BlockWatch.Enabled && remaining == c.BlockWatch.Rem {
			c.BlockWatch.Enabled = false
			m.trap(c, Trap{Kind: TrapBlockWatch, PC: c.PC})
			return true
		}
		chunk := uint64(m.prof.MemCopyChunk)
		if remaining < chunk {
			chunk = remaining
		}
		dstVA := c.reg(ins.Rs1)
		dstPA, ok := m.xlate(c, dstVA, int(chunk), PermW)
		if !ok {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: dstVA, PC: c.PC})
			return true
		}
		if !c.streamAccess(^uint64(0), dstPA, int(chunk)) {
			return false
		}
		if err := m.mem.Fill(dstPA, int(chunk), byte(ins.Imm)); err != nil {
			m.trap(c, Trap{Kind: TrapMemFault, Addr: dstVA, PC: c.PC})
			return true
		}
		c.setReg(ins.Rd, remaining-chunk)
		c.setReg(ins.Rs1, dstVA+chunk)
		if remaining-chunk > 0 {
			nextPC = c.PC
		}

	case isa.OpSyscall:
		c.PC = nextPC // syscall returns to the following instruction
		m.trap(c, Trap{Kind: TrapSyscall, Num: ins.Imm, PC: c.PC})
		return true
	case isa.OpHlt:
		m.trap(c, Trap{Kind: TrapHalt, PC: c.PC})
		return true
	default:
		m.trap(c, Trap{Kind: TrapIllegal, PC: c.PC})
		return true
	}
	c.PC = nextPC
	return true
}

// ramLoad is the RAM arm of a load of size bytes at va, translated to pa:
// the cache access, the read, the register write, the next PC. It returns
// what execSlow returns: false on a bus stall, true once the load retired
// or trapped. execSlow and a run ahead of machine time (aheadSlow) share it.
func (m *Machine) ramLoad(c *Core, ins *isa.Instr, va, pa uint64, size int) bool {
	if !c.memAccess(pa, size, false) {
		return false
	}
	v, err := m.mem.ReadU(pa, size)
	if err != nil {
		m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
		return true
	}
	c.setReg(ins.Rd, v)
	c.PC += isa.InstrBytes
	return true
}

// ramStore is ramLoad's twin for a store.
func (m *Machine) ramStore(c *Core, ins *isa.Instr, va, pa uint64, size int) bool {
	if !c.memAccess(pa, size, true) {
		return false
	}
	if err := m.mem.WriteU(pa, size, c.reg(ins.Rs2)); err != nil {
		m.trap(c, Trap{Kind: TrapMemFault, Addr: va, PC: c.PC})
		return true
	}
	c.PC += isa.InstrBytes
	return true
}

func loadSize(op isa.Opcode) int {
	switch op {
	case isa.OpLd1:
		return 1
	case isa.OpLd2:
		return 2
	case isa.OpLd4:
		return 4
	default:
		return 8
	}
}

func storeSize(op isa.Opcode) int {
	switch op {
	case isa.OpSt1:
		return 1
	case isa.OpSt2:
		return 2
	case isa.OpSt4:
		return 4
	default:
		return 8
	}
}

func condTaken(op isa.Opcode, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	default: // OpBgeu
		return a >= b
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
