package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rcoe/internal/machine"
)

// chaseConfig is the closely-coupled pair the park gate was sized on: a
// short tick keeps one replica parked at a rendezvous, and its peer
// chasing it with breakpoints, for most of the run.
var chaseConfig = Config{Mode: ModeCC, Replicas: 2, TickCycles: 2000}

// runToChase runs sys until one replica is parked at a rendezvous and its
// peer has just taken a catch-up breakpoint and is still behind — so the
// peer sits in the debug exception's stall for the next few hundred cycles
// with its breakpoint armed. It returns the parked replica.
func runToChase(tb testing.TB, sys *System) *Replica {
	tb.Helper()
	bpTrap := false
	machine.DebugTrace = func(_ int, kind machine.TrapKind, _, _ uint64) {
		bpTrap = kind == machine.TrapBreakpoint
	}
	defer func() { machine.DebugTrace = nil }()
	var parked *Replica
	err := sys.m.RunUntil(func() bool {
		hit := bpTrap
		bpTrap = false
		if !hit {
			return false
		}
		for i, r := range sys.reps {
			peer := sys.reps[1-i]
			if r.chasing && r.Core().BP.Enabled &&
				peer.Core().State == machine.CoreParked && peer.park.kind == parkRendezvous {
				parked = peer
				return true
			}
		}
		return false
	}, 50_000_000)
	if err != nil {
		tb.Fatalf("no replica ever chased a parked peer: %v", err)
	}
	return parked
}

// TestParkWatchStepAllocFree: with one replica parked at a rendezvous and
// its peer mid-chase, a machine Step — which, called by the host, makes the
// parked replica's poll evaluate the whole rendezvous predicate — must not
// allocate. (The alive set used to be a fresh slice, twice per poll.)
func TestParkWatchStepAllocFree(t *testing.T) {
	sys := newSys(t, chaseConfig, cpuLoop(t, 5_000_000))
	parked := runToChase(t, sys)
	m := sys.Machine()
	before := m.ParkStats()
	// 51 Steps: well inside the chaser's 450-cycle exception stall.
	if avg := testing.AllocsPerRun(50, m.Step); avg != 0 {
		t.Fatalf("Step with a parked peer allocates %.1f times", avg)
	}
	if parked.Core().State != machine.CoreParked {
		t.Fatalf("the rendezvous ended during the measurement")
	}
	if st := m.ParkStats(); st.Evals-before.Evals != 51 {
		t.Fatalf("51 Steps evaluated the predicate %d times", st.Evals-before.Evals)
	}
}

// BenchmarkParkedPeerStep measures the host cost of one simulated cycle
// of a closely-coupled pair, starting with one replica parked and its
// peer chasing: ns/op is ns per cycle, and evals/poll is the share of the
// parked replica's polls that ran the barrier predicate.
func BenchmarkParkedPeerStep(b *testing.B) {
	sys := newSys(b, chaseConfig, cpuLoop(b, 1<<40))
	runToChase(b, sys)
	m := sys.Machine()
	before := m.ParkStats()
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(uint64(b.N))
	b.StopTimer()
	if halted, reason := sys.Halted(); halted {
		b.Fatalf("system halted: %s", reason)
	}
	st := m.ParkStats()
	if polls := st.Polls - before.Polls; polls > 0 {
		b.ReportMetric(float64(st.Evals-before.Evals)/float64(polls), "evals/poll")
	}
}

// sysFingerprint renders what a finished run left behind.
func sysFingerprint(sys *System) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "now=%d finished=%v halted=%v reason=%q\n",
		sys.m.Now(), sys.finished, sys.halted, sys.haltReason)
	for _, r := range sys.reps {
		c := r.Core()
		ev, sum := r.K.Signature()
		fmt.Fprintf(&sb, "core%d state=%d cycles=%d instr=%d pc=%#x sig=(%d,%#x) alive=%v\n",
			r.ID, c.State, c.Cycles, c.Instructions, c.PC, ev, sum, sys.Alive(r.ID))
	}
	fmt.Fprintf(&sb, "stats=%+v detections=%+v\n", sys.stats, sys.detections)
	sb.WriteString(DebugShared(sys))
	return sb.String()
}

// memFault is a device that corrupts physical memory once, at a fixed
// machine cycle, from inside a run: no trap, no host call, only the page
// generation tells a watched park that its input changed.
type memFault struct {
	at    uint64
	apply func(mem *machine.Mem)
}

func (f *memFault) Tick(m *machine.Machine) {
	if m.Now() == f.at {
		f.apply(m.Mem())
	}
}

func (f *memFault) NextEvent(now uint64) uint64 {
	if now < f.at {
		return f.at
	}
	return machine.NoEvent
}

// TestParkWatchFaultReachability keeps the promise in shared.go — "all
// state lives in simulated RAM so that fault injection reaches it" — under
// the park gate. A replica is parked at a rendezvous (its peer chasing)
// or at an event barrier (its peer hung, the whole machine parked); a device
// then flips, sticks or DMA-overwrites a framework word the park reads.
// The park must leave on the same cycle, and the run end in the same
// state, as in a reference run stepped by the host one Step at a time,
// where every poll evaluates.
func TestParkWatchFaultReachability(t *testing.T) {
	word := func(w int) uint64 { return sharedBase + uint64(w)*8 }
	repWord := func(rid, w int) uint64 { return word(repBlockBase + rid*repBlockWords + w) }
	type target struct {
		name string
		addr func(peer int) uint64
		dma  func(gen uint64) uint64 // the value a DMA burst leaves there
	}
	scenarios := []struct {
		name string
		// build returns a system on its way to the park.
		build func(t *testing.T) *System
		// settle runs sys until the park under test is established and
		// returns the parked replica and the generation or event it waits on.
		settle  func(t *testing.T, sys *System) (*Replica, uint64)
		targets []target
	}{
		{
			name: "rendezvous",
			build: func(t *testing.T) *System {
				cfg := chaseConfig
				cfg.BarrierTimeout = 60_000 // a broken rendezvous times out within the budget
				return newSys(t, cfg, cpuLoop(t, 20_000))
			},
			settle: func(t *testing.T, sys *System) (*Replica, uint64) {
				r := runToChase(t, sys)
				return r, r.park.gen
			},
			targets: []target{
				{"wReleaseGen", func(int) uint64 { return word(wReleaseGen) }, func(gen uint64) uint64 { return gen }},
				{"wAliveMask", func(int) uint64 { return word(wAliveMask) }, func(uint64) uint64 { return 0 }},
				{"peer.rwParkedGen", func(p int) uint64 { return repWord(p, rwParkedGen) }, func(gen uint64) uint64 { return gen }},
				{"peer.rwEvents", func(p int) uint64 { return repWord(p, rwEvents) }, func(uint64) uint64 { return 1 << 40 }},
			},
		},
		{
			name: "event-barrier",
			build: func(t *testing.T) *System {
				// No batch, so no idle credit: with the whole machine
				// parked, every cycle polls, and the gate alone carries the
				// wait.
				return newSys(t, Config{Mode: ModeLC, Replicas: 2, Sig: SigSync, TickCycles: 20_000,
					BarrierTimeout: 60_000, DisableSuperblock: true}, syscallLoop(t, 400))
			},
			settle: func(t *testing.T, sys *System) (*Replica, uint64) {
				sys.RunCycles(7000)
				sys.InjectStall(1)
				r := sys.reps[0]
				if err := sys.m.RunUntil(func() bool {
					return sys.reps[1].park.kind == parkStall &&
						r.Core().State == machine.CoreParked && r.park.kind == parkEventVote
				}, 1_000_000); err != nil {
					t.Fatalf("replica 0 never waited on its hung peer: %v", err)
				}
				return r, r.park.ev
			},
			targets: []target{
				{"wVoteRelease", func(int) uint64 { return word(wVoteRelease) }, func(ev uint64) uint64 { return ev }},
				{"wAliveMask", func(int) uint64 { return word(wAliveMask) }, func(uint64) uint64 { return 1 }},
				{"peer.rwVoteEvent", func(p int) uint64 { return repWord(p, rwVoteEvent) }, func(ev uint64) uint64 { return ev }},
			},
		},
	}
	faults := []struct {
		name  string
		apply func(mem *machine.Mem, addr, dma uint64)
	}{
		{"FlipBit", func(mem *machine.Mem, addr, _ uint64) { _ = mem.FlipBit(addr, 0) }},
		{"SetStuck", func(mem *machine.Mem, addr, _ uint64) {
			cur, _ := mem.ReadU(addr, 1)
			_ = mem.SetStuck(addr, 0, uint(^cur&1))
		}},
		{"Slice", func(mem *machine.Mem, addr, dma uint64) {
			if b, err := mem.Slice(addr, 8); err == nil {
				binary.LittleEndian.PutUint64(b, dma)
			}
		}},
	}
	const budget = 250_000
	skipped := uint64(0) // polls the gate skipped, over every case
	for _, sc := range scenarios {
		for _, tg := range sc.targets {
			for _, f := range faults {
				t.Run(sc.name+"/"+tg.name+"/"+f.name, func(t *testing.T) {
					// run plays the scenario with the fault 40 cycles into
					// the park; stepped selects the every-poll reference.
					run := func(stepped bool) (left uint64, fp string, st machine.ParkStats) {
						sys := sc.build(t)
						parked, gen := sc.settle(t, sys)
						m := sys.m
						addr, dma := tg.addr(1-parked.ID), tg.dma(gen)
						m.AddDevice(&memFault{at: m.Now() + 40, apply: func(mem *machine.Mem) { f.apply(mem, addr, dma) }})
						desc := parked.park
						st0 := m.ParkStats()
						stillParked := func() bool {
							return parked.Core().State == machine.CoreParked && parked.park == desc
						}
						done := func() bool { return sys.finished || sys.halted }
						start := m.Now()
						if stepped {
							for stillParked() && m.Now()-start < budget {
								m.Step()
							}
							left = m.Now()
							for !done() && m.Now()-start < budget {
								m.Step()
							}
						} else {
							_ = m.RunUntil(func() bool { return !stillParked() }, budget)
							left = m.Now()
							if spent := m.Now() - start; spent < budget {
								_ = m.RunUntil(done, budget-spent)
							}
						}
						st = m.ParkStats()
						st.Polls -= st0.Polls
						st.Evals -= st0.Evals
						return left, sysFingerprint(sys), st
					}
					refLeft, refFP, refSt := run(true)
					left, fp, st := run(false)
					if left != refLeft {
						t.Fatalf("park left at cycle %d, every-poll reference at %d", left, refLeft)
					}
					if fp != refFP {
						t.Fatalf("run diverged from the every-poll reference:\n--- gated\n%s--- reference\n%s", fp, refFP)
					}
					if refSt.Evals != refSt.Polls {
						t.Fatalf("reference skipped evaluations: %+v", refSt)
					}
					skipped += st.Polls - st.Evals
					t.Logf("left the park at cycle %d; %s", left, fp[:strings.Index(fp, "\n")])
				})
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("the gate never skipped a poll: the cases no longer exercise it")
	}
}

// TestAliveMaskZeroFailStops is the regression test for a host panic: with
// the alive mask corrupted to zero, the next vote indexed the first of no
// voters. An empty alive set at a vote is a fail-stop like any other
// framework failure.
func TestAliveMaskZeroFailStops(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, Sig: SigSync, TickCycles: 20_000},
		syscallLoop(t, 5000))
	sys.RunCycles(7000)
	// Zero the mask while a replica waits at a per-syscall vote: its next
	// poll finds every alive replica (none) arrived and completes the vote.
	if err := sys.m.RunUntil(func() bool {
		r := sys.reps[0]
		return r.Core().State == machine.CoreParked && r.park.kind == parkEventVote
	}, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.m.Mem().WriteU(sharedBase+wAliveMask*8, 8, 0); err != nil {
		t.Fatal(err)
	}
	err := sys.Run(10_000_000)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("run with no alive replicas: %v, want ErrHalted", err)
	}
	halted, reason := sys.Halted()
	if !halted || !strings.Contains(reason, "alive mask empty") {
		t.Fatalf("halted=%v reason=%q, want an alive-mask fail-stop", halted, reason)
	}
	if sys.AliveCount() != 0 {
		t.Fatalf("alive count = %d after zeroing the mask", sys.AliveCount())
	}
}

// TestAliveMaskIgnoresUnownedBits: bits of a corrupted mask that no
// configured replica owns are not voters.
func TestAliveMaskIgnoresUnownedBits(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20_000}, syscallLoop(t, 200))
	sys.sh.setWord(wAliveMask, sys.sh.word(wAliveMask)|1<<2|1<<40|1<<63)
	if got := sys.aliveSet(); got != 0b11 || sys.AliveCount() != 2 {
		t.Fatalf("alive set = %#b (count %d), want the two configured replicas", got, sys.AliveCount())
	}
}

// TestAliveMaskUnownedBitDoesNotBlockRelease: the last replica out of a
// rendezvous clears the synchronisation words even when the alive mask
// carries a bit no configured replica owns — that bit never releases, and
// comparing against the raw mask would leave the words set and stall the
// next rendezvous into a run timeout.
func TestAliveMaskUnownedBitDoesNotBlockRelease(t *testing.T) {
	sys := newSys(t, Config{Mode: ModeLC, Replicas: 2, TickCycles: 20_000}, syscallLoop(t, 200))
	sys.sh.setWord(wAliveMask, sys.sh.word(wAliveMask)|1<<5)
	if err := sys.m.RunUntil(func() bool { return sys.stats.Syncs > 0 && !sys.syncPending() }, 2_000_000); err != nil {
		t.Fatalf("the first rendezvous never drained (wSyncGen %d, released %#b): %v",
			sys.sh.word(wSyncGen), sys.releasedSet, err)
	}
	mustFinish(t, sys, 2_000_000)
	if gen := sys.sh.word(wSyncGen); gen != 0 {
		t.Fatalf("wSyncGen = %d after the last release", gen)
	}
}

// TestParkWatchNeedsOneFrameworkPage: the watch is on one page, so a
// configuration whose replica blocks spill past it declares none.
func TestParkWatchNeedsOneFrameworkPage(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		watched  bool
	}{{3, true}, {31, true}, {32, false}} {
		prof := machine.X86()
		prof.Cores = tc.replicas
		sys, err := NewSystem(Config{Mode: ModeLC, Replicas: tc.replicas, Profile: prof, PartitionBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.parkGen != nil; got != tc.watched {
			t.Fatalf("%d replicas: watch declared = %v, want %v", tc.replicas, got, tc.watched)
		}
	}
}
