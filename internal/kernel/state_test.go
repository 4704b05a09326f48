package kernel

import (
	"errors"
	"testing"

	"rcoe/internal/snapshot"
)

// section is the walk the owning layer gives a kernel: one section.
func section(k *Kernel) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) { c.Section("kernel.0", k.State) }
}

// TestKernelStateRoundTrip exercises the kernel's Go-side bookkeeping
// through a save/restore cycle: thread table, ready queue, IRQ latches,
// counters, and the user address space restored in place.
func TestKernelStateRoundTrip(t *testing.T) {
	k := newTestKernel(t)
	if err := k.LoadProcess(ProcessConfig{Prog: simpleProg(t), DataBytes: 4096, Arg: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateThread(TextVA, StackTopVA-4096, 7); err != nil {
		t.Fatal(err)
	}
	if !k.Schedule() {
		t.Fatal("no thread scheduled")
	}
	k.BlockCurrent(3)
	k.WakeIRQWaiters(9) // no waiter: latches
	k.Preemptions = 5
	k.Syscalls = 11

	w := snapshot.NewWriter()
	if err := w.Walk(section(k)); err != nil {
		t.Fatal(err)
	}
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a second kernel built through the same path (the
	// snapshot restore contract), then verify the state transferred.
	k2 := newTestKernel(t)
	if err := k2.LoadProcess(ProcessConfig{Prog: simpleProg(t), DataBytes: 4096, Arg: 42}); err != nil {
		t.Fatal(err)
	}
	if err := snap.Walk(section(k2)); err != nil {
		t.Fatal(err)
	}

	if k2.NumThreads() != k.NumThreads() {
		t.Fatalf("threads: %d vs %d", k2.NumThreads(), k.NumThreads())
	}
	for i := 0; i < k.NumThreads(); i++ {
		a, b := k.Thread(i), k2.Thread(i)
		if *a != *b {
			t.Fatalf("thread %d: %+v vs %+v", i, *b, *a)
		}
	}
	if k2.CurrentTID() != k.CurrentTID() {
		t.Fatalf("cur: %d vs %d", k2.CurrentTID(), k.CurrentTID())
	}
	if k2.Preemptions != 5 || k2.Syscalls != 11 {
		t.Fatalf("counters: %d/%d", k2.Preemptions, k2.Syscalls)
	}
	if !k2.ConsumeIRQLatch(9) {
		t.Fatal("IRQ latch lost")
	}
	if k2.ConsumeIRQLatch(9) {
		t.Fatal("IRQ latch duplicated")
	}
	if len(k2.AddrSpace().Segs) != len(k.AddrSpace().Segs) {
		t.Fatalf("segs: %d vs %d", len(k2.AddrSpace().Segs), len(k.AddrSpace().Segs))
	}
	for i, s := range k.AddrSpace().Segs {
		if k2.AddrSpace().Segs[i] != s {
			t.Fatalf("seg %d: %+v vs %+v", i, k2.AddrSpace().Segs[i], s)
		}
	}
	if k2.Core().AS != k2.AddrSpace() {
		t.Fatal("core AS not re-pointed at the kernel address space")
	}
	// The restored queue must schedule identically.
	if got, want := k2.HasReady(), k.HasReady(); got != want {
		t.Fatalf("HasReady: %v vs %v", got, want)
	}
}

// TestKernelStateHostileCounts: a thread, run-queue or segment count far
// beyond the section's bytes is a named decode error, not a host
// allocation panic.
func TestKernelStateHostileCounts(t *testing.T) {
	// Zero threads, an empty run queue, cur, 64 IRQ latches, two counters,
	// no error latch, the layout delta, and an address space.
	toSegs := append(make([]uint64, 3+64+4), 1)
	for name, words := range map[string][]uint64{
		"threads": {1 << 60},
		"runq":    {0, 1 << 60},
		"segs":    append(toSegs, 1<<60),
	} {
		w := snapshot.NewWriter()
		e := w.Section("kernel.0")
		for _, v := range words {
			e.U64(v)
		}
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Walk(section(newTestKernel(t))); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s count 1<<60: got %v, want ErrBadSnapshot", name, err)
		}
	}
}
