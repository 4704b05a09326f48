package kernel

import (
	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
)

// This file is the kernel's state walk for the checkpoint/restore
// subsystem (internal/snapshot). Everything that lives in simulated RAM —
// thread contexts, the signature block, the canary page, user memory — is
// covered by the machine layer's memory image; only the Go-side scheduling
// metadata is walked here. The fields left out, and why, are listed in
// internal/snapshot/boundary_test.go.
//
// The replicated-system layer (internal/core) owns the kernels and gives
// each replica's one section of its own walk.

// State walks the kernel's scheduling state, error latch, decorrelation
// delta, and user address-space mappings. Loading restores the address
// space into the existing AddrSpace object in place (with a generation
// bump), preserving the pointer identity shared with the core and any live
// translation-cache validation; the core's AS is then re-pointed at it,
// covering the post-reintegration case where the saved kernel had swapped
// in a rebased address space.
func (k *Kernel) State(c *snapshot.Codec) {
	snapshot.List(c, &k.threads, func(t **Thread) {
		if *t == nil {
			*t = &Thread{}
		}
		c.Int(&(*t).TID)
		snapshot.Word(c, &(*t).State)
		c.Int(&(*t).WaitLine)
		c.U64(&(*t).ExitCode)
	})
	snapshot.List(c, &k.runq, c.Int)
	c.Int(&k.cur)
	for i := range k.irqLatch {
		snapshot.Word(c, &k.irqLatch[i])
	}
	c.U64(&k.Preemptions)
	c.U64(&k.Syscalls)
	hasErr := k.Err != nil
	if c.Bool(&hasErr); !hasErr {
		k.Err = nil
	} else {
		if c.Loading() {
			k.Err = &KernelError{}
		}
		c.Int(&k.Err.RID)
		c.String(&k.Err.Reason)
	}
	c.U64(&k.layoutDelta)
	hasAS := k.as != nil
	if c.Bool(&hasAS); !hasAS {
		k.as = nil
		return
	}
	if k.as == nil {
		k.as = &machine.AddrSpace{}
	}
	snapshot.List(c, &k.as.Segs, func(s *machine.Segment) {
		c.U64(&s.VBase)
		c.U64(&s.PBase)
		c.U64(&s.Size)
		snapshot.Word(c, &s.Perm)
		c.Bool(&s.DMA)
	})
	if c.Loading() {
		k.as.Invalidate()
		k.core.AS = k.as
	}
}
