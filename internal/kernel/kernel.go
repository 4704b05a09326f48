package kernel

import (
	"encoding/binary"
	"fmt"
	"slices"

	"rcoe/internal/checksum"
	"rcoe/internal/machine"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	ThreadReady ThreadState = iota + 1
	ThreadRunning
	ThreadBlocked // waiting for an interrupt (SysIRQWait)
	ThreadDone
)

// Thread is one kernel thread. Its register context lives in the
// replica's RAM partition (Layout.CtxPA); the Go-side struct holds only
// scheduling metadata.
type Thread struct {
	TID      int
	State    ThreadState
	WaitLine int    // IRQ line when Blocked
	ExitCode uint64 // R1 at SysExit
}

// KernelError records an internal kernel failure (canary mismatch, context
// corruption discovered on restore).
type KernelError struct {
	RID    int
	Reason string
}

// Error implements error.
func (e *KernelError) Error() string {
	return fmt.Sprintf("kernel(replica %d): %s", e.RID, e.Reason)
}

// Kernel is one replica's kernel instance.
type Kernel struct {
	// RID is the replica ID (also the index into the RCoE shared arrays).
	RID int

	core *machine.Core
	m    *machine.Machine
	lay  Layout

	threads []*Thread
	runq    []int // round-robin ready queue of TIDs
	cur     int   // running TID, or -1

	as *machine.AddrSpace // the (single) user process address space

	// layoutDelta is this replica's structural-decorrelation shift of the
	// data and stack segments (loader.go). CanonVA subtracts it so the
	// vote path folds layout-independent values.
	layoutDelta uint64

	// canary is the expected kernel-text pattern checked on entries.
	canaryWords [8]uint64
	// canaryGen is the canary page's mutation generation at the last check
	// that passed, 0 before one did: while the page's generation still
	// equals it, nothing has written the page and the words still match.
	// canaryGp points at that generation (Mem.PageGen), nil when the words
	// span pages.
	canaryGen uint64
	canaryGp  *uint64

	// Err is set when the kernel detects internal corruption; the
	// replica fail-stops (the seL4 "halt on kernel exception" behaviour).
	Err *KernelError

	// irqLatch holds wakes delivered while no thread was waiting.
	irqLatch [64]uint32

	// Preemptions counts delivered timer preemptions; Syscalls counts
	// dispatched system calls (reporting only).
	Preemptions uint64
	Syscalls    uint64

	// OnPreempt, when set, observes every delivered preemption (the
	// flight recorder's tick event source). It must not perturb kernel
	// or machine state.
	OnPreempt func(preemptions uint64)

	// traceWords is AddTraceBytes' scratch, rebuilt by every call, and
	// userBuf ReadUser's and CopyPhysToUser's.
	traceWords []uint64
	userBuf    []byte
}

// New creates a kernel for replica rid on the given core, with its
// partition described by lay. It initialises the canary page and the
// signature block in RAM.
func New(rid int, c *machine.Core, lay Layout) (*Kernel, error) {
	k := &Kernel{
		RID:  rid,
		core: c,
		m:    c.Machine(),
		lay:  lay,
		cur:  -1,
	}
	// Fill the canary page with a position-dependent pattern.
	mem := k.m.Mem()
	for off := uint64(0); off < lay.CanarySize(); off += 8 {
		if err := mem.WriteU(lay.CanaryPA()+off, 8, canaryWord(rid, off)); err != nil {
			return nil, fmt.Errorf("kernel: init canary: %w", err)
		}
	}
	for i := range k.canaryWords {
		k.canaryWords[i] = canaryWord(rid, uint64(i)*8)
	}
	k.canaryGp = mem.PageGen(lay.CanaryPA(), len(k.canaryWords)*8)
	// Zero the signature block.
	for w := uint64(0); w < 4; w++ {
		if err := mem.WriteU(lay.SigPA()+w*8, 8, 0); err != nil {
			return nil, fmt.Errorf("kernel: init signature: %w", err)
		}
	}
	return k, nil
}

func canaryWord(rid int, off uint64) uint64 {
	return 0x5E14_C0DE_0000_0000 ^ uint64(rid)<<32 ^ off*0x9E37
}

// Core returns the kernel's CPU core.
func (k *Kernel) Core() *machine.Core { return k.core }

// Layout returns the partition layout.
func (k *Kernel) Layout() Layout { return k.lay }

// AddrSpace returns the user process address space.
func (k *Kernel) AddrSpace() *machine.AddrSpace { return k.as }

// SetAddrSpace installs the user address space built by the loader.
func (k *Kernel) SetAddrSpace(as *machine.AddrSpace) { k.as = as }

// CurrentTID returns the running thread's ID, or -1.
func (k *Kernel) CurrentTID() int { return k.cur }

// Thread returns thread tid, or nil.
func (k *Kernel) Thread(tid int) *Thread {
	if tid < 0 || tid >= len(k.threads) {
		return nil
	}
	return k.threads[tid]
}

// NumThreads returns the number of created threads.
func (k *Kernel) NumThreads() int { return len(k.threads) }

// CheckCanary verifies the first words of the kernel-text canary. A
// mismatch is the moral equivalent of executing a corrupted kernel
// instruction: the kernel records the error and the replica fail-stops.
func (k *Kernel) CheckCanary() bool {
	if k.CanaryKnown() {
		return true
	}
	mem := k.m.Mem()
	for i, want := range k.canaryWords {
		got, err := mem.ReadU(k.lay.CanaryPA()+uint64(i)*8, 8)
		if err != nil || got != want {
			k.Err = &KernelError{RID: k.RID, Reason: "kernel text corrupted (canary mismatch)"}
			return false
		}
	}
	if k.canaryGp != nil {
		k.canaryGen = *k.canaryGp
	}
	return true
}

// CanaryKnown reports, reading no RAM, that CheckCanary would pass without
// re-reading the canary: its page has not been written since a check found
// it intact.
func (k *Kernel) CanaryKnown() bool {
	gp := k.canaryGp
	return gp != nil && *gp != 0 && *gp == k.canaryGen
}

// --- Threads and context switching ---

// CreateThread allocates a thread whose context starts with the given
// entry point, stack pointer, and argument (in R1). The new thread is
// ready but not running.
func (k *Kernel) CreateThread(entry, sp, arg uint64) (int, error) {
	tid := len(k.threads)
	if tid >= MaxThreads {
		return 0, fmt.Errorf("kernel: thread table full (%d)", MaxThreads)
	}
	t := &Thread{TID: tid, State: ThreadReady}
	k.threads = append(k.threads, t)
	// Initialise the RAM context: zero registers, then SP, arg, PC.
	mem := k.m.Mem()
	base := k.lay.CtxPA(tid)
	for w := 0; w < CtxWords; w++ {
		if err := mem.WriteU(base+uint64(w)*8, 8, 0); err != nil {
			return 0, fmt.Errorf("kernel: init context: %w", err)
		}
	}
	if err := mem.WriteU(base+1*8, 8, arg); err != nil { // R1
		return 0, err
	}
	if err := mem.WriteU(base+29*8, 8, sp); err != nil { // RSP
		return 0, err
	}
	if err := mem.WriteU(base+32*8, 8, entry); err != nil { // PC
		return 0, err
	}
	k.runq = append(k.runq, tid)
	return tid, nil
}

// SaveContext serialises the current thread's registers and PC into its
// RAM slot. This is the state the paper's register fault injection flips.
func (k *Kernel) SaveContext() {
	if k.cur < 0 {
		return
	}
	mem := k.m.Mem()
	base := k.lay.CtxPA(k.cur)
	for r := 0; r < 32; r++ {
		if err := mem.WriteU(base+uint64(r)*8, 8, k.core.Regs[r]); err != nil {
			k.Err = &KernelError{RID: k.RID, Reason: "context save failed"}
			return
		}
	}
	if err := mem.WriteU(base+32*8, 8, k.core.PC); err != nil {
		k.Err = &KernelError{RID: k.RID, Reason: "context save failed"}
	}
}

// restoreContext loads thread tid's registers and PC from RAM onto the
// core and makes it current. The LL/SC reservation is cleared, which is
// why atomic retry loops can execute different counts across replicas
// (§III-D).
func (k *Kernel) restoreContext(tid int) {
	mem := k.m.Mem()
	base := k.lay.CtxPA(tid)
	for r := 0; r < 32; r++ {
		v, err := mem.ReadU(base+uint64(r)*8, 8)
		if err != nil {
			k.Err = &KernelError{RID: k.RID, Reason: "context restore failed"}
			return
		}
		k.core.Regs[r] = v
	}
	pc, err := mem.ReadU(base+32*8, 8)
	if err != nil {
		k.Err = &KernelError{RID: k.RID, Reason: "context restore failed"}
		return
	}
	k.core.PC = pc
	k.core.AS = k.as
	k.core.ClearReservation()
	k.cur = tid
	k.threads[tid].State = ThreadRunning
}

// Schedule picks the next ready thread and restores it. It returns false
// when no thread is ready (the replica is idle and the caller should park
// the core).
func (k *Kernel) Schedule() bool {
	for len(k.runq) > 0 {
		tid := k.runq[0]
		// Shift rather than reslice, so the queue's array is reused by
		// the next append instead of outgrown.
		k.runq = k.runq[:copy(k.runq, k.runq[1:])]
		if k.threads[tid].State != ThreadReady {
			continue
		}
		k.restoreContext(tid)
		return true
	}
	k.cur = -1
	return false
}

// Preempt saves the current thread, re-queues it, and schedules the next.
// The replication layer calls this when delivering a timer tick at the
// agreed logical time.
func (k *Kernel) Preempt() {
	k.Preemptions++
	if k.OnPreempt != nil {
		k.OnPreempt(k.Preemptions)
	}
	if k.cur >= 0 {
		k.SaveContext()
		k.threads[k.cur].State = ThreadReady
		k.runq = append(k.runq, k.cur)
		k.cur = -1
	}
	k.Schedule()
}

// BlockCurrent marks the running thread blocked on an IRQ line and
// schedules another. It returns false if no other thread is ready.
func (k *Kernel) BlockCurrent(line int) bool {
	if k.cur < 0 {
		return k.Schedule()
	}
	k.SaveContext()
	t := k.threads[k.cur]
	t.State = ThreadBlocked
	t.WaitLine = line
	k.cur = -1
	return k.Schedule()
}

// WakeIRQWaiters readies all threads blocked on line; returns how many
// were woken. A wake with no waiter is latched so the next SysIRQWait
// returns immediately — without the latch, an interrupt arriving while
// the driver is processing the previous frame would be lost and the
// system would deadlock.
func (k *Kernel) WakeIRQWaiters(line int) int {
	n := 0
	for _, t := range k.threads {
		if t.State == ThreadBlocked && t.WaitLine == line {
			t.State = ThreadReady
			k.runq = append(k.runq, t.TID)
			n++
		}
	}
	if n == 0 && line >= 0 && line < len(k.irqLatch) {
		k.irqLatch[line]++
	}
	return n
}

// ConsumeIRQLatch consumes one latched wake for line, reporting whether
// one was pending.
func (k *Kernel) ConsumeIRQLatch(line int) bool {
	if line < 0 || line >= len(k.irqLatch) || k.irqLatch[line] == 0 {
		return false
	}
	k.irqLatch[line]--
	return true
}

// ExitCurrent terminates the running thread with the given code and
// schedules the next. It returns false when nothing is left to run.
func (k *Kernel) ExitCurrent(code uint64) bool {
	if k.cur >= 0 {
		t := k.threads[k.cur]
		t.State = ThreadDone
		t.ExitCode = code
		k.cur = -1
	}
	return k.Schedule()
}

// Done reports whether every thread has exited.
func (k *Kernel) Done() bool {
	if len(k.threads) == 0 {
		return false
	}
	for _, t := range k.threads {
		if t.State != ThreadDone {
			return false
		}
	}
	return true
}

// HasReady reports whether any thread is ready to run.
func (k *Kernel) HasReady() bool {
	for _, t := range k.threads {
		if t.State == ThreadReady {
			return true
		}
	}
	return false
}

// --- Logical time and the state signature ---

// EventCount reads the replica's deterministic-event counter from RAM.
// This is the LC-RCoE logical clock (§III-A).
func (k *Kernel) EventCount() uint64 {
	v, err := k.m.Mem().ReadU(k.lay.SigPA(), 8)
	if err != nil {
		return 0
	}
	return v
}

// BumpEvent increments the event counter in RAM and returns the new value.
func (k *Kernel) BumpEvent() uint64 {
	mem := k.m.Mem()
	v, _ := mem.ReadU(k.lay.SigPA(), 8)
	v++
	if err := mem.WriteU(k.lay.SigPA(), 8, v); err != nil {
		k.Err = &KernelError{RID: k.RID, Reason: "event counter update failed"}
	}
	return v
}

// AddTrace folds words into the replica's state signature. The
// accumulator lives in RAM, so faults can corrupt it — one of the
// uncontrolled-error sources the paper discusses (§VI).
func (k *Kernel) AddTrace(words ...uint64) {
	mem := k.m.Mem()
	sig := k.lay.SigPA()
	lo, _ := mem.ReadU(sig+8, 8)
	hi, _ := mem.ReadU(sig+16, 8)
	n, _ := mem.ReadU(sig+24, 8)
	f := checksum.Restore(lo, hi, n)
	for _, w := range words {
		f.Add(w)
	}
	lo2, hi2, n2 := f.State()
	err1 := mem.WriteU(sig+8, 8, lo2)
	err2 := mem.WriteU(sig+16, 8, hi2)
	err3 := mem.WriteU(sig+24, 8, n2)
	if err1 != nil || err2 != nil || err3 != nil {
		k.Err = &KernelError{RID: k.RID, Reason: "signature update failed"}
	}
	// Charge the checksum arithmetic.
	k.core.AddStall(2 * len(words))
}

// AddTraceBytes folds a user buffer into the signature: its length, then
// its bytes 8 at a time. The accumulator is read and written once for the
// whole buffer, unless a stuck-at fault is armed: every RAM read re-asserts
// stuck bits, so a stuck accumulator word must be re-read per folded word
// to corrupt the sum the way it always has.
func (k *Kernel) AddTraceBytes(b []byte) {
	w := append(k.traceWords[:0], uint64(len(b)))
	var i int
	for ; i+8 <= len(b); i += 8 {
		w = append(w, le64(b[i:]))
	}
	if i < len(b) {
		var tail [8]byte
		copy(tail[:], b[i:])
		w = append(w, le64(tail[:]))
	}
	k.traceWords = w
	if k.m.Mem().StuckBits() == 0 {
		k.AddTrace(w...)
		return
	}
	for _, x := range w {
		k.AddTrace(x)
	}
}

// Signature returns the replica's current (eventCount, checksum) pair read
// from RAM — the value compared during votes.
func (k *Kernel) Signature() (events, sum uint64) {
	mem := k.m.Mem()
	sig := k.lay.SigPA()
	ev, _ := mem.ReadU(sig, 8)
	lo, _ := mem.ReadU(sig+8, 8)
	hi, _ := mem.ReadU(sig+16, 8)
	return ev, hi<<32 | lo
}

// --- User memory access helpers ---

// CopyFromUser reads n bytes at user virtual address va into a fresh
// slice. It allocates on every call, so it is for callers outside kernel
// entries (tests, checks of a finished run); a kernel entry reads through
// ReadUserAt, ReadUser or CopyPhysToUser, which do not.
func (k *Kernel) CopyFromUser(va uint64, n int) ([]byte, error) {
	pa, _, ok := k.as.Translate(va, n, machine.PermR)
	if !ok {
		return nil, fmt.Errorf("kernel: bad user read [%#x,+%d)", va, n)
	}
	return k.m.Mem().Read(pa, n)
}

// ReadUserAt copies len(dst) bytes at user virtual address va into dst:
// for a kernel entry that brings a buffer of its own, such as a fixed-size
// array on its stack.
func (k *Kernel) ReadUserAt(va uint64, dst []byte) error {
	pa, _, ok := k.as.Translate(va, len(dst), machine.PermR)
	if !ok {
		return fmt.Errorf("kernel: bad user read [%#x,+%d)", va, len(dst))
	}
	return k.m.Mem().ReadAt(pa, dst)
}

// ReadUser is CopyFromUser into the kernel's scratch buffer, which the next
// ReadUser or CopyPhysToUser overwrites: for a kernel entry that only looks
// at the bytes and holds no earlier view across the call.
func (k *Kernel) ReadUser(va uint64, n int) ([]byte, error) {
	k.userBuf = slices.Grow(k.userBuf[:0], n)[:n]
	if err := k.ReadUserAt(va, k.userBuf); err != nil {
		return nil, err
	}
	return k.userBuf, nil
}

// CopyPhysToUser copies n bytes at physical address pa to user virtual
// address va through the kernel's scratch buffer (overwriting ReadUser's
// view), as Mem.Read of pa followed by CopyToUser would, without the
// allocation.
func (k *Kernel) CopyPhysToUser(va, pa uint64, n int) error {
	k.userBuf = slices.Grow(k.userBuf[:0], n)[:n]
	if err := k.m.Mem().ReadAt(pa, k.userBuf); err != nil {
		return err
	}
	return k.CopyToUser(va, k.userBuf)
}

// CopyToUser writes b at user virtual address va.
func (k *Kernel) CopyToUser(va uint64, b []byte) error {
	pa, _, ok := k.as.Translate(va, len(b), machine.PermW)
	if !ok {
		return fmt.Errorf("kernel: bad user write [%#x,+%d)", va, len(b))
	}
	return k.m.Mem().Write(pa, b)
}

// ReadUserU reads one value of the given size at va.
func (k *Kernel) ReadUserU(va uint64, size int) (uint64, error) {
	pa, _, ok := k.as.Translate(va, size, machine.PermR)
	if !ok {
		return 0, fmt.Errorf("kernel: bad user read %#x", va)
	}
	return k.m.Mem().ReadU(pa, size)
}

// WriteUserU writes one value of the given size at va.
func (k *Kernel) WriteUserU(va uint64, size int, v uint64) error {
	pa, _, ok := k.as.Translate(va, size, machine.PermW)
	if !ok {
		return fmt.Errorf("kernel: bad user write %#x", va)
	}
	return k.m.Mem().WriteU(pa, size, v)
}

func le64(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}

// CloneFrom copies the donor kernel's scheduling state onto k — thread
// table, ready queue, current thread, interrupt latches and counters —
// rebasing partition-resident physical mappings onto k's own partition.
// Mappings outside the donor partition (the cross-replica shared region,
// device MMIO, DMA windows) are shared state and keep their addresses.
// The caller must have copied the donor's partition memory beforehand;
// this routine only rebuilds the host-side bookkeeping (§IV-C
// re-integration).
func (k *Kernel) CloneFrom(donor *Kernel) error {
	if donor.lay.Size != k.lay.Size {
		return fmt.Errorf("kernel: clone partition size mismatch")
	}
	k.threads = make([]*Thread, len(donor.threads))
	for i, t := range donor.threads {
		cp := *t
		k.threads[i] = &cp
	}
	k.runq = append([]int(nil), donor.runq...)
	k.cur = donor.cur
	k.irqLatch = donor.irqLatch
	k.Preemptions = donor.Preemptions
	k.Syscalls = donor.Syscalls
	k.Err = nil

	delta := k.lay.Base - donor.lay.Base
	segs := make([]machine.Segment, len(donor.as.Segs))
	for i, s := range donor.as.Segs {
		if s.PBase >= donor.lay.Base && s.PBase < donor.lay.Base+donor.lay.Size {
			s.PBase += delta
		}
		segs[i] = s
	}
	k.as = &machine.AddrSpace{Segs: segs}
	// The donor's whole partition image is copied verbatim (virtual bases
	// included), so the re-integrated replica runs the donor's layout.
	k.layoutDelta = donor.layoutDelta
	return nil
}

// LayoutDelta returns the replica's structural-decorrelation shift.
func (k *Kernel) LayoutDelta() uint64 { return k.layoutDelta }

// CanonVA maps a user virtual address back to the canonical (unshifted)
// layout, so decorrelated replicas fold identical values into their vote
// signatures for the same logical pointer. Only addresses inside the
// shifted window — data base through stack top, as moved by the delta —
// are adjusted; text, shared-region, and device addresses are identical
// across replicas already. Callers must apply this only to values that
// are pointers by contract (a known syscall argument position, a fault
// address): canonicalizing arbitrary data that merely looks like a
// pointer would itself diverge across replicas.
func (k *Kernel) CanonVA(va uint64) uint64 {
	d := k.layoutDelta
	if d == 0 {
		return va
	}
	if va >= DataVA+d && va <= StackTopVA+d {
		return va - d
	}
	return va
}
