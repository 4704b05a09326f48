package machine

import (
	"fmt"
	"math"

	"rcoe/internal/isa"
)

// Perm is a segment permission bitmask.
type Perm uint8

// Segment permissions.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// Segment maps a contiguous virtual range to physical memory. Segments
// stand in for the paper's page-table mappings: kernel updates to them are
// critical state folded into the RCoE signature, and the DMA flag is the
// "unused page-table bit" used to patch DMA buffers when removing a failed
// primary (§IV-A).
type Segment struct {
	VBase uint64
	PBase uint64
	Size  uint64
	Perm  Perm
	DMA   bool
}

// AddrSpace is an ordered set of segments forming a virtual address space.
//
// Segs may be read freely. Code that mutates it after the address space is
// in use must do so through Map, or call Invalidate afterwards: the
// per-core translation memos (execcache.go) key on the generation counter
// those bump. Constructing a fresh AddrSpace (the kernel loader and
// re-integration clone paths) needs nothing — memos key on pointer
// identity, so a new object always misses.
type AddrSpace struct {
	Segs []Segment

	// gen counts mutations; translation memos holding an older generation
	// re-scan. Appends through Map bump it, as does Invalidate.
	gen uint64
}

// Map appends a segment mapping and invalidates translation memos built
// over the previous segment set.
func (a *AddrSpace) Map(s Segment) {
	a.Segs = append(a.Segs, s)
	a.gen++
}

// Invalidate marks the address space mutated, forcing every translation
// memo built on it to re-scan. Call it after any direct edit of Segs.
func (a *AddrSpace) Invalidate() { a.gen++ }

// asKey pins an address space's segment layout for a host memo: identity,
// generation and segment count. Translate is a pure function of (va,
// Segs), so a memo filled under one key serves exactly while the key holds.
type asKey struct {
	as    *AddrSpace
	gen   uint64
	nsegs int
}

// key returns a's current layout key; a nil space has the zero key.
func (a *AddrSpace) key() asKey {
	if a == nil {
		return asKey{}
	}
	return asKey{a, a.gen, len(a.Segs)}
}

// overlapFree reports whether every pair of segments covers disjoint
// virtual ranges. Translate returns the first match in segment order, so
// the translation memo may only short-circuit the scan when no virtual
// address can match two segments; an overlapping (or wrapping) layout
// disables memoisation and always scans. Zero-size segments match nothing
// but are treated conservatively.
func (a *AddrSpace) overlapFree() bool {
	for i := range a.Segs {
		si := &a.Segs[i]
		if si.VBase+si.Size < si.VBase {
			return false // wrapping range: be conservative
		}
		for j := i + 1; j < len(a.Segs); j++ {
			sj := &a.Segs[j]
			if si.VBase < sj.VBase+sj.Size && sj.VBase < si.VBase+si.Size {
				return false
			}
		}
	}
	return true
}

// Translate resolves va for an access of n bytes with the needed
// permission. It returns the physical address, the segment index, and
// whether the translation succeeded. Accesses may not straddle segments.
func (a *AddrSpace) Translate(va uint64, n int, need Perm) (pa uint64, seg int, ok bool) {
	for i := range a.Segs {
		s := &a.Segs[i]
		if va >= s.VBase && va+uint64(n) <= s.VBase+s.Size && va+uint64(n) >= va {
			if s.Perm&need != need {
				return 0, i, false
			}
			return s.PBase + (va - s.VBase), i, true
		}
	}
	return 0, -1, false
}

// TrapKind classifies why a core entered the kernel.
type TrapKind int

// Trap kinds.
const (
	TrapNone TrapKind = iota
	TrapSyscall
	TrapIRQ
	TrapBreakpoint
	TrapSingleStep  // "mismatch" debug exception on no-resume-flag machines
	TrapBranchWatch // PMU branch-counter overflow interrupt
	TrapBlockWatch  // data-write watchpoint inside a block instruction
	TrapMemFault
	TrapIllegal
	TrapDivZero
	TrapHalt
)

var trapNames = map[TrapKind]string{
	TrapNone: "none", TrapSyscall: "syscall", TrapIRQ: "irq",
	TrapBreakpoint: "breakpoint", TrapSingleStep: "single-step",
	TrapBranchWatch: "branch-watch",
	TrapBlockWatch:  "block-watch",
	TrapMemFault:    "mem-fault", TrapIllegal: "illegal-instruction",
	TrapDivZero: "div-zero", TrapHalt: "halt",
}

// String returns the trap kind name.
func (k TrapKind) String() string {
	if s, ok := trapNames[k]; ok {
		return s
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap carries the details of a kernel entry.
type Trap struct {
	Kind TrapKind
	// Num is the syscall number for TrapSyscall.
	Num int32
	// Addr is the faulting virtual address for TrapMemFault.
	Addr uint64
	// PC is the user program counter at the trap.
	PC uint64
}

// TrapHandler is the kernel: it receives every trap a core takes. The
// handler runs to completion, mutating the core (registers, PC, address
// space, stall cycles, parking) before user execution resumes.
type TrapHandler interface {
	HandleTrap(c *Core, t Trap)
}

// LocalTrapper is what a TrapHandler may also implement to name its local
// kernel entries. LocalTrap(c, t) reports that HandleTrap(c, t), run on the
// machine as it stands, touches no core but c (no other core's registers,
// latches, debug registers, state, address space or cache), writes no RAM
// another core's address space maps, and changes nothing a device's
// NextEvent or RunUntil's condition reads; what it changes besides c may be
// read only by kernel code and park conditions. It must change nothing
// itself: the superblock engine also asks it ahead of a syscall, to predict
// (sbRoom). While no core is parked a local entry is no observation point:
// a batch takes it without rewinding the other cores' runs (Machine.trap).
// An answer of false only costs the rewinds.
type LocalTrapper interface {
	LocalTrap(c *Core, t Trap) bool
}

// CoreState is the scheduling state of a core.
type CoreState int

// Core states. Parked cores spin on a condition (kernel barriers, idle
// loops); offline cores have been removed by TMR downgrade.
const (
	CoreRunning CoreState = iota + 1
	CoreParked
	CoreHalted
	CoreOffline
)

// Breakpoint is a global instruction breakpoint: it fires when any
// user-mode fetch matches Addr (the paper's "global breakpoint").
type Breakpoint struct {
	Addr    uint64
	Enabled bool
}

// Core is one simulated CPU core.
type Core struct {
	ID   int
	Regs [isa.NumRegs]uint64
	PC   uint64
	AS   *AddrSpace

	// Cycles is the per-core cycle counter (monotonic, includes stalls).
	Cycles uint64
	// UserBranches is the PMU count of branch instructions executed in
	// user mode. On profiles without a precise PMU the kernel must not
	// rely on it (it uses the reserved counter register instead).
	UserBranches uint64
	// Instructions counts user instructions executed (for reporting).
	Instructions uint64

	// BP is the debug breakpoint register. ResumeOnce suppresses the
	// breakpoint for one fetch (x86 RF flag); SingleStep raises
	// TrapSingleStep after one instruction (the Arm mismatch-exception
	// path sets this).
	BP         Breakpoint
	ResumeOnce bool
	SingleStep bool

	// BranchWatch raises TrapBranchWatch once UserBranches reaches
	// Target — a PMU overflow interrupt. RCoE uses it to cover large
	// catch-up distances without a debug exception per loop iteration,
	// arming the precise breakpoint only for the tail (the ReVirt
	// technique the paper plans in §VI).
	BranchWatch struct {
		Target  uint64
		Enabled bool
	}

	// BlockWatch raises TrapBlockWatch when a block instruction
	// (MEMCPY/MEMSET) is about to issue a chunk with exactly Rem bytes
	// remaining. It models an x86 data-write hardware breakpoint (DR
	// register) placed at another core's destination cursor: the position
	// inside a rep-style copy maps 1:1 onto the destination address, so
	// one watchpoint replaces a per-iteration trap-flag chase.
	BlockWatch struct {
		Rem     uint64
		Enabled bool
	}

	// IntEnabled gates interrupt delivery (kernel code runs with
	// interrupts off; our kernel executes atomically so this mainly
	// distinguishes idle parking).
	IntEnabled bool

	State CoreState

	// parkCond is polled every cycle while parked (see Park for when a
	// poll may skip the evaluation); when it returns true the core resumes
	// (state back to Running) and parkDone runs.
	parkCond func() bool
	parkDone func()
	// parkWake is the current park's wake declaration: the earliest Cycles
	// count at which the condition may first become true through the
	// passage of time alone, NoEvent when time alone never wakes it.
	parkWake uint64
	// parkGp is the current park's watch declaration: the mutation
	// generation of the one RAM page the condition reads, &noWatch when it
	// reads none. parkSeenGen and parkSeenEpoch are that generation and the
	// machine's parkEpoch at the last evaluation that returned false;
	// parkSeenEpoch 0 (no epoch is ever 0) means not evaluated yet.
	// Host-derived and never serialized: Park sets parkGp and zeroes
	// parkSeenEpoch, so a restored park re-arms cold.
	parkGp        *uint64
	parkSeenGen   uint64
	parkSeenEpoch uint64

	pendingIRQ uint64 // bitmask of device lines
	pendingIPI bool

	stall  int
	jitter uint64 // per-core deterministic jitter PRNG state

	llAddr  uint64 // LL/SC reservation
	llValid bool

	cache *cache

	// ec is the host-side data translation memo (execcache.go).
	ec execCache

	// sb is the host-side superblock cache (superblock.go), allocated on
	// first use and, like ec, outside the snapshot state boundary.
	sb *sbCache

	m *Machine
}

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// AddStall charges n extra cycles to the core (kernel work, exception
// costs). The core will not issue user instructions while stalled, but its
// cycle counter keeps advancing.
func (c *Core) AddStall(n int) {
	if n > 0 {
		c.stall += n
	}
}

// idle charges k cycles in which the core reaches no issue opportunity:
// its cycle counter advances and a pending stall drains.
func (c *Core) idle(k uint64) {
	c.Cycles += k
	if uint64(c.stall) <= k {
		c.stall = 0
	} else {
		c.stall -= int(k)
	}
}

// Park suspends user execution until cond holds: the core resumes on the
// first cycle at which cond would return true, and done (if non-nil) is
// then invoked. Parking models kernel spin loops: cycles keep accumulating,
// which is what barrier timeout detection measures.
//
// The park declares what can make cond true:
//
//   - wake is the earliest Cycles value at which the passage of time alone
//     can make cond true, NoEvent when it never can. From the wake cycle on
//     every poll evaluates cond, so a wake of 0 skips nothing.
//   - watch (from Mem.PageGen) is the mutation generation of the one RAM
//     page cond reads, nil when it reads none.
//
// Besides the watched page and the core's own Cycles, cond may read only
// state that kernel or host code writes and the core's interrupt latches
// (pending IRQ lines, pending IPI). The machine polls a parked core once
// per cycle, and a poll skips the evaluation while the page generation and
// the machine's park epoch are what they were when cond last returned false
// and the wake cycle has not arrived; a batch's bulk credit carries the
// core to its wake cycle on the same proof.
//
// The skip is exact, not a heuristic: a pure function of inputs that have
// not changed returns what it returned last time. Page generations count
// every mutation path of Mem (stores, block ops, DMA windows, injected
// flips, stuck-at assertions), and the park epoch is bumped wherever one
// of the other inputs can change: on every trap, when any park wakes (its
// cond may have completed a barrier, and its done hook is kernel code), on
// every RaiseIRQ and SendIPI, and on every Step, Run and RunUntil call. A
// new kind of input joins the contract by having its mutators bump the
// epoch too; until then a cond must not read it.
func (c *Core) Park(cond func() bool, done func(), wake uint64, watch *uint64) {
	if watch == nil {
		watch = &noWatch
	}
	c.State = CoreParked
	c.parkCond = cond
	c.parkDone = done
	c.parkWake = wake
	c.parkGp = watch
	c.parkSeenEpoch = 0
}

// noWatch is the page generation of a park that watches no page: it never
// moves.
var noWatch uint64

// Unpark forces a parked core back to running without invoking its done
// callback.
func (c *Core) Unpark() {
	if c.State == CoreParked {
		c.State = CoreRunning
		c.parkCond = nil
		c.parkDone = nil
		c.parkWake = 0
	}
}

// Halt stops the core permanently (fail-stop).
func (c *Core) Halt() { c.State = CoreHalted }

// SetOffline removes the core (TMR downgrade removes the faulty replica's
// core).
func (c *Core) SetOffline() { c.State = CoreOffline }

// PendingIRQ returns the pending device-interrupt bitmask.
func (c *Core) PendingIRQ() uint64 { return c.pendingIRQ }

// AckIRQ clears the given lines from the pending mask.
func (c *Core) AckIRQ(mask uint64) { c.pendingIRQ &^= mask }

// AckIPI clears a pending inter-processor interrupt.
func (c *Core) AckIPI() { c.pendingIPI = false }

// IPIPending reports whether an IPI is waiting.
func (c *Core) IPIPending() bool { return c.pendingIPI }

// ClearReservation drops the LL/SC reservation; the kernel calls this on
// context switches, which is what makes retry counts preemption-dependent.
func (c *Core) ClearReservation() { c.llValid = false }

// FlushCache invalidates the core's cache (replica boot).
func (c *Core) FlushCache() { c.cache.flush() }

// nextJitter returns true when the core should pay one extra stall cycle,
// from a per-core deterministic xorshift sequence. This models the
// microarchitectural drift between COTS cores that prevents lock-step
// execution (§II-B).
func (c *Core) nextJitter(shift uint) bool {
	x := c.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.jitter = x
	return x&((1<<shift)-1) == 0
}

// reg reads a register honouring the hardwired zero.
func (c *Core) reg(i uint8) uint64 {
	if i == isa.RZero {
		return 0
	}
	return c.Regs[i]
}

// setReg writes a register honouring the hardwired zero.
func (c *Core) setReg(i uint8, v uint64) {
	if i != isa.RZero {
		c.Regs[i] = v
	}
}

// memAccess performs a scalar data access with cache/bus accounting. It
// returns false (and raises no trap itself) when the bus has no tokens, in
// which case the caller retries next cycle. Scalar misses pay the
// MemMiss latency; streaming block ops use streamAccess instead.
func (c *Core) memAccess(pa uint64, size int, write bool) bool {
	ch := c.cache
	line := pa >> ch.lineShift
	if (pa+uint64(size)-1)>>ch.lineShift == line {
		// Single-line access — every scalar fetch/load/store in practice.
		// One probe replaces the peek-then-access double scan, with
		// identical cache state, bus traffic, and stalls.
		idx := ch.index(line)
		if ch.valid[idx] && ch.tags[idx] == line {
			if write {
				ch.setDirty(idx, true)
			}
			c.AddStall(c.m.prof.Costs.MemHit - 1)
			return true
		}
		bytes := c.m.prof.CacheLine
		if ch.valid[idx] && ch.dirty[idx] {
			bytes *= 2 // dirty eviction: writeback + fill
		}
		if !c.m.bus.take(c.ID, bytes) {
			return false
		}
		ch.fill(idx, line, write)
		c.AddStall(c.m.prof.Costs.MemMiss)
		return true
	}
	misses, evict := c.cache.peek(pa, size)
	if misses == 0 && evict == 0 {
		c.cache.access(pa, size, write)
		c.AddStall(c.m.prof.Costs.MemHit - 1)
		return true
	}
	bytes := (misses + evict) * c.m.prof.CacheLine
	if !c.m.bus.take(c.ID, bytes) {
		return false
	}
	c.cache.access(pa, size, write)
	c.AddStall(c.m.prof.Costs.MemMiss * misses)
	return true
}

// streamAccess accounts for one chunk of a block operation (MEMCPY or
// MEMSET). Streaming accesses are modelled as bandwidth-bound rather than
// latency-bound: they pay port-width stalls and consume bus tokens but not
// the per-miss latency, which is how one x86 core can saturate the bus
// (Table V). It returns false when the bus is out of tokens.
func (c *Core) streamAccess(srcPA, dstPA uint64, n int) bool {
	srcMiss, srcEv := 0, 0
	if srcPA != ^uint64(0) {
		srcMiss, srcEv = c.cache.peek(srcPA, n)
	}
	dstMiss, dstEv := c.cache.peek(dstPA, n)
	bytes := (srcMiss + srcEv + dstMiss + dstEv) * c.m.prof.CacheLine
	if bytes == 0 {
		// Whole chunk in cache: still limited by the core's port width.
		c.AddStall(n/c.m.prof.CoreBytesPerCycle - 1)
		return true
	}
	if !c.m.bus.take(c.ID, bytes) {
		return false
	}
	if srcPA != ^uint64(0) {
		c.cache.access(srcPA, n, false)
	}
	c.cache.access(dstPA, n, true)
	if bytes > c.m.prof.CoreBytesPerCycle {
		c.AddStall(bytes/c.m.prof.CoreBytesPerCycle - 1)
	}
	return true
}

// float helpers
func f64(v uint64) float64  { return math.Float64frombits(v) }
func bits(f float64) uint64 { return math.Float64bits(f) }
