package core

import (
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/trace"
)

// entry is what a kernel entry finds before it reaches its kind's handler.
type entry uint8

const (
	entryOpen   entry = iota // the kernel-text check, then the kind's handler
	entrySpare               // a spare core with no replica: it halts
	entryHalted              // the system fail-stopped: the core halts
	entryDead                // the replica was voted out: the core goes offline
	entryStall               // an injected stall is pending: the replica hangs
)

// entryOf classifies a kernel entry on c, changing nothing. HandleTrap acts
// on the answer; LocalTrap requires entryOpen.
func (s *System) entryOf(c *machine.Core) (*Replica, entry) {
	if c.ID >= len(s.reps) {
		return nil, entrySpare
	}
	r := s.reps[c.ID]
	switch {
	case s.halted:
		return r, entryHalted
	case s.cfg.Mode != ModeNone && !s.sh.alive(r.ID):
		return r, entryDead
	case r.stallPending:
		return r, entryStall
	}
	return r, entryOpen
}

// HandleTrap implements machine.TrapHandler: it is the replicated kernel's
// entry point for every trap on every core.
func (s *System) HandleTrap(c *machine.Core, t machine.Trap) {
	r, e := s.entryOf(c)
	switch e {
	case entrySpare, entryHalted:
		c.Halt()
		return
	case entryDead:
		c.SetOffline()
		return
	case entryStall:
		s.consumeStall(r)
		return
	}
	// Kernel-text integrity check on entry: a corrupted kernel
	// fail-stops (the verified-seL4 halt-on-exception behaviour).
	if !r.K.CheckCanary() || r.K.Err != nil {
		s.kernelException(r)
		return
	}
	if s.cfg.Mode != ModeNone {
		// Keep the replica's published logical time fresh; peers use it
		// to decide who must catch up.
		s.sh.publishTime(r.ID, s.timeOf(r))
	}
	switch t.Kind {
	case machine.TrapSyscall:
		s.onSyscall(r, t)
	case machine.TrapIRQ:
		s.onIRQ(r)
	case machine.TrapBreakpoint:
		s.onBreakpoint(r)
	case machine.TrapSingleStep:
		s.onSingleStep(r)
	case machine.TrapBranchWatch:
		s.onBranchWatch(r)
	case machine.TrapBlockWatch:
		// The data watchpoint stopped the block op at the leader's exact
		// remaining count; the comparison logic is the breakpoint's.
		s.onBreakpoint(r)
	case machine.TrapHalt:
		s.sysExit(r, r.Core().Regs[1])
	case machine.TrapMemFault, machine.TrapIllegal, machine.TrapDivZero:
		s.onUserFault(r, t)
	default:
		s.afterKernel(r)
	}
}

// LocalTrap implements machine.LocalTrapper. It answers true only for the
// syscalls whose handling touches nothing but the caller — its registers and
// stall, its kernel's event counter and signature (RAM no address space
// maps), its published logical time and its trace ring — and only where
// HandleTrap's entry checks, the per-syscall vote and afterKernel take no
// other path: a replicated mode with signatures below SigSync, the system
// not halted, the replica alive with no injected stall pending, not chasing,
// with no kernel error and its kernel text known intact, no synchronisation
// pending, and no debug feature armed on the core. While a stuck bit is
// registered any RAM read may write, so it answers false.
func (s *System) LocalTrap(c *machine.Core, t machine.Trap) bool {
	if t.Kind != machine.TrapSyscall || s.cfg.Mode == ModeNone || s.cfg.Sig >= SigSync {
		return false
	}
	switch t.Num {
	case kernel.SysGetRID, kernel.SysGetPrimary, kernel.SysFTAddTrace, kernel.SysGetEvent, kernel.SysNull, kernel.SysPutc:
	default:
		return false
	}
	if s.m.Mem().StuckBits() != 0 {
		return false
	}
	r, e := s.entryOf(c)
	if e != entryOpen || r.chasing || r.K.Err != nil || !r.K.CanaryKnown() || s.syncPending() {
		return false
	}
	return !c.BP.Enabled && !c.SingleStep && !c.BranchWatch.Enabled && !c.BlockWatch.Enabled
}

// kernelException fail-stops one replica. Peers detect the loss through a
// barrier timeout; an unreplicated system simply dies.
func (s *System) kernelException(r *Replica) {
	s.record(DetectKernelException, r.ID, false)
	r.Core().Halt()
	if s.cfg.Mode == ModeNone {
		s.halt("kernel exception")
	}
}

// onIRQ handles device interrupts and IPIs. Device interrupts reach only
// the primary, which opens a synchronisation generation and kicks the
// other replicas with IPIs (§III-C).
func (s *System) onIRQ(r *Replica) {
	c := r.Core()
	lines := c.PendingIRQ()
	c.AckIRQ(lines)
	if c.IPIPending() {
		c.AckIPI()
	}
	if s.cfg.Mode == ModeNone {
		s.deliverLines(r, lines)
		s.afterKernel(r)
		return
	}
	if lines != 0 {
		s.requestSync(r.ID, syncIRQ, lines)
	}
	s.enterRendezvous(r)
}

// deliverLines performs local interrupt delivery: the timer line preempts,
// other lines wake their waiters.
func (s *System) deliverLines(r *Replica, lines uint64) {
	k := r.K
	for line := 0; line < 64; line++ {
		if lines&(1<<uint(line)) == 0 {
			continue
		}
		if line == TimerLine {
			k.Preempt()
		} else {
			k.WakeIRQWaiters(line)
		}
	}
	if k.CurrentTID() < 0 {
		k.Schedule()
	}
}

// onUserFault handles user-level exceptions. The fault fingerprint is
// folded into the signature, so a replica faulting alone diverges the
// vote; with exception barriers the replica additionally forces a
// synchronisation immediately, bounding detection latency (Table VII's
// Arm configuration).
func (s *System) onUserFault(r *Replica, t machine.Trap) {
	r.UserFaults++
	if t.Kind == machine.TrapMemFault {
		r.UserMemFaults++
	}
	s.record(DetectUserFault, r.ID, false)
	s.trEvent(r, trace.KindUserFault, uint64(t.Kind), t.Addr)
	k := r.K
	if s.cfg.Mode == ModeNone {
		if !k.ExitCurrent(^uint64(0)) {
			s.finishReplica(r)
			return
		}
		s.afterKernel(r)
		return
	}
	// Fault addresses are canonicalized: decorrelated replicas faulting on
	// the same logical address (e.g. all dereference the same NULL-ish
	// pointer relative to their own layout) fold identical fingerprints.
	k.AddTrace(0xFA01, uint64(t.Kind), k.CanonVA(t.Addr), t.PC)
	if s.cfg.ExceptionBarriers {
		s.requestSync(r.ID, syncIRQ, 0)
	}
	// Kill the faulting thread; if every replica faults identically the
	// signatures stay equal and all replicas continue consistently.
	if !k.ExitCurrent(^uint64(0)) {
		s.finishReplica(r)
		return
	}
	s.afterKernel(r)
}

// onSyscall is the main deterministic-event path: bump the logical clock,
// fold arguments per the signature configuration, optionally vote, then
// dispatch.
func (s *System) onSyscall(r *Replica, t machine.Trap) {
	k := r.K
	c := r.Core()
	num := t.Num
	args := [4]uint64{c.Regs[1], c.Regs[2], c.Regs[3], c.Regs[4]}
	ev := k.BumpEvent()
	k.Syscalls++
	s.trEvent(r, trace.KindSyscall, uint64(uint32(num)), args[0])
	if s.cfg.Mode != ModeNone {
		if r.chasing {
			// A syscall while chasing means the replica diverged from
			// the leader's instruction stream; drop the chase and let
			// the rendezvous timeout catch it if it persists.
			s.clearChase(r)
		}
		if s.cfg.Sig >= SigArgs {
			// Fold the syscall number and its actual parameters. Unused
			// argument registers legitimately differ across replicas
			// (e.g. they may hold a SysGetRID result) and must not enter
			// the signature.
			cargs := canonSigArgs(k, num, args)
			words := [5]uint64{uint64(uint32(num)), cargs[0], cargs[1], cargs[2], cargs[3]}
			k.AddTrace(words[:1+argCount(num)]...)
		}
		if s.cfg.Sig == SigSync && num != int32(kernel.SysFTMemAccess) && num != int32(kernel.SysFTMemRep) {
			s.stats.SyscallVotes++
			desc := parkDesc{kind: parkEventVote, ev: ev, num: num, args: args}
			s.eventBarrier(r, desc, nil, func() {
				s.dispatch(r, num, args)
			})
			return
		}
	}
	s.dispatch(r, num, args)
}

// canonSigArgs returns args with the pointer-typed positions mapped to
// the canonical layout (kernel.CanonVA), so decorrelated replicas fold
// identical signature words for the same logical pointer. Only positions
// that are pointers *by the syscall's contract* are touched: heuristic
// canonicalization of arbitrary values would itself diverge (a non-pointer
// constant that happens to land in one replica's shifted window but not
// another's would canonicalize differently).
func canonSigArgs(k *kernel.Kernel, num int32, args [4]uint64) [4]uint64 {
	switch num {
	case kernel.SysSpawn:
		args[1] = k.CanonVA(args[1]) // stack top (entry is text: unshifted)
	case kernel.SysAtomicAdd, kernel.SysFTAddTrace, kernel.SysFTMemRep:
		args[0] = k.CanonVA(args[0]) // user buffer address
	case kernel.SysFTMemAccess:
		args[2] = k.CanonVA(args[2]) // user-side VA of the transfer
	}
	return args
}

// argCount returns how many argument registers a syscall consumes.
func argCount(num int32) int {
	switch num {
	case kernel.SysFTMemAccess:
		return 4
	case kernel.SysSpawn:
		return 3
	case kernel.SysAtomicAdd, kernel.SysFTAddTrace, kernel.SysFTMemRep:
		return 2
	case kernel.SysExit, kernel.SysIRQWait, kernel.SysPutc, kernel.SysMapDevice:
		return 1
	default:
		return 0
	}
}

// setRet sets the syscall return value.
func setRet(r *Replica, v uint64) { r.Core().Regs[1] = v }

// dispatch executes one system call.
func (s *System) dispatch(r *Replica, num int32, args [4]uint64) {
	k := r.K
	switch num {
	case kernel.SysExit:
		s.sysExit(r, args[0])
		return
	case kernel.SysYield:
		k.Preempt()
	case kernel.SysSpawn:
		tid, err := k.CreateThread(args[0], args[1], args[2])
		if err != nil {
			setRet(r, ^uint64(0))
			break
		}
		if s.cfg.Mode != ModeNone {
			// Thread-table updates are critical kernel state: always in
			// the signature regardless of configuration (§III-C). The
			// stack-top argument is a pointer: canonicalize it.
			k.AddTrace(0xC001, args[0], k.CanonVA(args[1]))
		}
		setRet(r, uint64(tid))
	case kernel.SysAtomicAdd:
		old, err := k.ReadUserU(args[0], 8)
		if err != nil {
			setRet(r, ^uint64(0))
			break
		}
		if err := k.WriteUserU(args[0], 8, old+args[1]); err != nil {
			setRet(r, ^uint64(0))
			break
		}
		setRet(r, old)
	case kernel.SysFTAddTrace:
		s.sysFTAddTrace(r, args[0], args[1])
	case kernel.SysFTMemAccess:
		s.sysFTMemAccess(r, args)
		return // continuation-based: afterKernel runs inside
	case kernel.SysFTMemRep:
		s.sysFTMemRep(r, args[0], args[1])
		return
	case kernel.SysIRQWait:
		line := int(args[0] & 63)
		setRet(r, 0)
		if k.ConsumeIRQLatch(line) {
			break // a wake was already latched: return immediately
		}
		if !k.BlockCurrent(line) {
			s.goIdle(r)
			return
		}
	case kernel.SysPutc:
		// Console output: contributes to the signature like any driver
		// output so that diverging prints are caught.
		if s.cfg.Mode != ModeNone {
			k.AddTrace(0xC0A5, args[0])
		}
		setRet(r, 0)
	case kernel.SysGetRID:
		setRet(r, uint64(r.ID))
	case kernel.SysGetPrimary:
		setRet(r, uint64(s.Primary()))
	case kernel.SysMapShared:
		k.MapSegment(machine.Segment{
			VBase: kernel.SharedVA, PBase: inputBufPA(), Size: inputSize,
			Perm: machine.PermR | machine.PermW,
		})
		if s.cfg.Mode != ModeNone {
			k.AddTrace(0xC002, kernel.SharedVA, inputSize)
		}
		setRet(r, kernel.SharedVA)
	case kernel.SysMapDevice:
		s.sysMapDevice(r, args[0])
	case kernel.SysGetEvent:
		setRet(r, k.EventCount())
	case kernel.SysNull:
		setRet(r, 0)
	default:
		setRet(r, ^uint64(0))
	}
	s.afterKernel(r)
}

// sysExit terminates the calling thread; the last exit completes the
// replica's workload and triggers the final synchronisation.
func (s *System) sysExit(r *Replica, code uint64) {
	if s.cfg.Mode != ModeNone {
		r.K.AddTrace(0xC003, code)
	}
	if !r.K.ExitCurrent(code) {
		s.finishReplica(r)
		return
	}
	s.afterKernel(r)
}

// finishReplica marks a replica's workload complete. Replicated systems
// meet at a final rendezvous and vote before declaring success.
func (s *System) finishReplica(r *Replica) {
	r.finished = true
	if s.rec != nil {
		_, sum := r.K.Signature()
		s.trEvent(r, trace.KindFinish, sum, 0)
	}
	s.sh.setRepWord(r.ID, rwDoneFlag, 1)
	if s.cfg.Mode == ModeNone {
		r.Core().Halt()
		s.finished = true
		return
	}
	s.requestSync(r.ID, syncFinal, 0)
	s.enterRendezvous(r)
}

// sysFTAddTrace folds a user buffer into the state signature
// (the FT_Add_Trace call drivers use to contribute output data, §III-C).
func (s *System) sysFTAddTrace(r *Replica, va, n uint64) {
	if n > inputSize {
		setRet(r, ^uint64(0))
		return
	}
	buf, err := r.K.ReadUser(va, int(n))
	if err != nil {
		setRet(r, ^uint64(0))
		return
	}
	if s.cfg.Mode != ModeNone {
		r.K.AddTraceBytes(buf)
	}
	setRet(r, 0)
}

// sysMapDevice maps a registered device's MMIO window and the DMA region
// into the calling process. All replicas receive the mappings (the
// surviving replica must be able to reach the device after a downgrade);
// SoR-aware driver code ensures only the primary touches them.
func (s *System) sysMapDevice(r *Replica, idx uint64) {
	w, ok := s.deviceWindow(int(idx))
	if !ok {
		setRet(r, ^uint64(0))
		return
	}
	r.K.MapSegment(machine.Segment{
		VBase: kernel.DeviceVA, PBase: w.base, Size: w.size,
		Perm: machine.PermR | machine.PermW,
	})
	r.K.MapSegment(machine.Segment{
		VBase: kernel.DMAVA, PBase: dmaBase, Size: dmaSize,
		Perm: machine.PermR | machine.PermW, DMA: true,
	})
	if s.cfg.Mode != ModeNone {
		r.K.AddTrace(0xC004, w.base, w.size)
	}
	setRet(r, kernel.DeviceVA)
}

// sysFTMemAccess performs a device-memory access on behalf of a CC-RCoE
// driver (§III-E). It is a synchronisation point: the access happens only
// once all replicas are in sync. Reads are performed by the primary
// kernel and replicated to every replica through the input buffer; writes
// are folded into the signature and performed by the primary kernel.
func (s *System) sysFTMemAccess(r *Replica, args [4]uint64) {
	accessType, pa, va, n := args[0], args[1], args[2], args[3]
	if n > inputSize {
		setRet(r, ^uint64(0))
		s.afterKernel(r)
		return
	}
	if s.cfg.Mode == ModeNone {
		setRet(r, s.doDeviceAccess(r, accessType, pa, va, n))
		s.afterKernel(r)
		return
	}
	ev := r.K.EventCount()
	desc := parkDesc{kind: parkEventMemAccess, ev: ev, args: args}
	action, cont := s.ftMemAccessFuncs(r, args)
	s.eventBarrier(r, desc, action, cont)
}

// ftMemAccessFuncs builds the device-side action and per-replica
// continuation for an FT_Mem_Access event barrier. Factored out so a
// snapshot restore can rebuild the closures from the recorded arguments.
func (s *System) ftMemAccessFuncs(r *Replica, args [4]uint64) (action, cont func()) {
	accessType, pa, va, n := args[0], args[1], args[2], args[3]
	action = func() {
		// Executed once, at completion, on behalf of the primary kernel.
		s.sh.setWord(wIOBusy, 1)
		prim := s.reps[s.Primary()]
		if accessType == 0 {
			// Device read into the shared input buffer.
			for off := uint64(0); off < n; off++ {
				v, err := s.m.PhysReadU(pa+off, 1)
				if err != nil {
					v = 0
				}
				_ = s.m.Mem().WriteU(inputBufPA()+off, 1, v)
			}
			s.stats.InputBytes += n
		} else {
			// Device write: data comes from the primary's copy.
			buf, err := prim.K.ReadUser(va, int(n))
			if err == nil {
				for off := uint64(0); off < n; off++ {
					_ = s.m.PhysWriteU(pa+off, 1, uint64(buf[off]))
				}
			}
		}
		prim.Core().AddStall(int(n) / 4)
		s.sh.setWord(wIOBusy, 0)
	}
	cont = func() {
		if accessType == 0 {
			// Every replica copies the replicated input into its own
			// address space.
			_ = r.K.CopyPhysToUser(va, inputBufPA(), int(n))
			r.Core().AddStall(int(n) / 8)
		} else {
			// Output data contributes to the signature so diverging
			// writes are caught.
			buf, err := r.K.ReadUser(va, int(n))
			if err == nil {
				r.K.AddTraceBytes(buf)
			}
		}
		setRet(r, 0)
		s.afterKernel(r)
	}
	return action, cont
}

// sysFTMemRep replicates a DMA buffer (§III-E): the primary copies its
// buffer to the shared region; the other replicas copy from the shared
// region into their address spaces.
func (s *System) sysFTMemRep(r *Replica, va, n uint64) {
	if n > inputSize {
		setRet(r, ^uint64(0))
		s.afterKernel(r)
		return
	}
	if s.cfg.Mode == ModeNone {
		setRet(r, 0)
		s.afterKernel(r)
		return
	}
	ev := r.K.EventCount()
	desc := parkDesc{kind: parkEventMemRep, ev: ev, va: va, n: n}
	action, cont := s.ftMemRepFuncs(r, va, n)
	s.eventBarrier(r, desc, action, cont)
}

// ftMemRepFuncs builds the action and continuation for an FT_Mem_Rep
// event barrier (restore-rebuildable, like ftMemAccessFuncs).
func (s *System) ftMemRepFuncs(r *Replica, va, n uint64) (action, cont func()) {
	action = func() {
		prim := s.reps[s.Primary()]
		buf, err := prim.K.ReadUser(va, int(n))
		if err == nil {
			_ = s.m.Mem().Write(inputBufPA(), buf)
			s.stats.InputBytes += n
		}
		prim.Core().AddStall(int(n) / 4)
	}
	cont = func() {
		if r.ID != s.Primary() {
			_ = r.K.CopyPhysToUser(va, inputBufPA(), int(n))
			r.Core().AddStall(int(n) / 8)
		}
		setRet(r, 0)
		s.afterKernel(r)
	}
	return action, cont
}

// doDeviceAccess is the unreplicated device-access path.
func (s *System) doDeviceAccess(r *Replica, accessType, pa, va, n uint64) uint64 {
	if accessType == 0 {
		for off := uint64(0); off < n; off++ {
			v, err := s.m.PhysReadU(pa+off, 1)
			if err != nil {
				return ^uint64(0)
			}
			if err := r.K.WriteUserU(va+off, 1, v); err != nil {
				return ^uint64(0)
			}
		}
		return 0
	}
	for off := uint64(0); off < n; off++ {
		v, err := r.K.ReadUserU(va+off, 1)
		if err != nil {
			return ^uint64(0)
		}
		if err := s.m.PhysWriteU(pa+off, 1, v); err != nil {
			return ^uint64(0)
		}
	}
	return 0
}

// goIdle parks a replica core that has no runnable thread. The core
// resumes when an interrupt (or IPI) arrives, which re-enters the kernel
// through the normal trap path.
func (s *System) goIdle(r *Replica) {
	if s.cfg.Mode != ModeNone && s.syncPending() && !s.released(r) {
		s.enterRendezvous(r)
		return
	}
	s.armIdlePark(r)
}

// armIdlePark installs the idle park (the restore-safe half of goIdle:
// no rendezvous check, no side effects).
func (s *System) armIdlePark(r *Replica) {
	r.park = parkDesc{kind: parkIdle}
	c := r.Core()
	// Interrupts and IPIs come from devices or other cores and move the park
	// epoch as they are latched; thread wakeups and a halt are kernel code.
	// Time alone never wakes the core: the devices' own NextEvent schedules
	// bound the skip.
	s.park(c, machine.NoEvent, func() bool {
		return s.halted || c.IPIPending() || c.PendingIRQ() != 0 || r.K.HasReady()
	}, func() {
		if s.halted {
			c.Halt()
			return
		}
		if r.K.HasReady() && c.PendingIRQ() == 0 && !c.IPIPending() {
			r.K.Schedule()
		}
		// Otherwise the pending interrupt is delivered by the machine on
		// the next cycle, before any stale user state executes.
	})
}

// afterKernel is the common kernel-exit path: join a pending rendezvous,
// park if idle, or resume user execution.
func (s *System) afterKernel(r *Replica) {
	if s.halted {
		r.Core().Halt()
		return
	}
	if r.K.Err != nil {
		s.kernelException(r)
		return
	}
	if s.cfg.Mode != ModeNone && s.syncPending() && !s.released(r) && !r.chasing {
		s.enterRendezvous(r)
		return
	}
	if r.K.CurrentTID() < 0 && !r.finished {
		s.goIdle(r)
	}
}
