package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rcoe"
	"rcoe/internal/machine"
)

// dhrystone boots LC-DMR Dhrystone, the workload whose replicas run far
// ahead of machine time between syncs.
func dhrystone(t *testing.T, loops int64) *rcoe.System {
	t.Helper()
	sys, err := rcoe.BuildSystem(rcoe.Config{Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000}, rcoe.Dhrystone(loops))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAheadSplitExact pins what lets runBlocks split a run at its probe and
// let the rest go on on another host thread: ahead(a) then ahead(b) leaves
// what ahead(a+b) leaves — the core's run state and block position, the
// undo log and the touched pages, all RAM and every cache line — at every
// split point. It runs on every core of each private-layout cause seed of
// FuzzBatchTrap, between its calls, on both replicas of LC-DMR Dhrystone in
// mid-run, and on two cores whose runs stop at a breakpoint inside a block;
// some split must land on the cycle a run stops at, inside a stall, on a
// block chain and on the breakpoint.
func TestAheadSplitExact(t *testing.T) {
	seen := machine.TrapSplits(t)
	sys := dhrystone(t, 2_000)
	sys.RunCycles(30_011)
	s := machine.AheadSplitCheck(t, sys.Machine(), 3072)
	if s.Points() < 2*2048 {
		t.Fatalf("Dhrystone: %d split points, want both replicas' runs to outlast the probe", s.Points())
	}
	seen.Add(s)
	seen.Add(machine.BPSplits(t))
	machine.CheckSplitCoverage(t, seen)
}

// TestRunAheadParallelExact runs the engine with runs that go on beside
// each other at GOMAXPROCS 1, where the coordinator runs every run itself,
// and at 2, where a helper thread claims one: LC-DMR Dhrystone, a two-core
// private layout whose runs outlast the probe (also against naive
// stepping), and every private-layout cause seed of FuzzBatchTrap must give
// identical fingerprints, and the first two must have run past the probe
// side by side (Overlapped). Under -race it checks that the runs share no
// written state.
func TestRunAheadParallelExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type result struct {
		print string
		st    machine.SuperblockStats
	}
	runs := map[int][]result{}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		sys := dhrystone(t, 2_000)
		if err := sys.Run(3_000_000_000); err != nil {
			t.Fatal(err)
		}
		m := sys.Machine()
		var b strings.Builder
		fmt.Fprintf(&b, "now=%d %+v\n", m.Now(), sys.Stats())
		for i := 0; i < m.NumCores(); i++ {
			c := m.Core(i)
			fmt.Fprintf(&b, "%d: %d %d %#x %v\n", i, c.Cycles, c.Instructions, c.PC, c.Regs)
		}
		b.WriteString(machine.MemState(m))
		runs[procs] = append(runs[procs], result{b.String(), m.SuperblockStats()})
		print, st := machine.LongRunScenario(t, true)
		runs[procs] = append(runs[procs], result{print, st})
		for _, seed := range machine.PrivCauseSeeds(t) {
			print, st := machine.TrapRender(t, seed)
			runs[procs] = append(runs[procs], result{print, st})
		}
	}
	naive, _ := machine.LongRunScenario(t, false)
	if got := runs[2][1].print; got != naive {
		t.Fatalf("two-core private layout: the batch engine diverged from naive stepping\n%s", machine.DiffLine(got, naive))
	}
	for i, r1 := range runs[1] {
		r2 := runs[2][i]
		if r1.print != r2.print || r1.st != r2.st {
			t.Fatalf("run %d differs between GOMAXPROCS 1 and 2\n%s\n%+v\n%+v", i, machine.DiffLine(r1.print, r2.print), r1.st, r2.st)
		}
		if i < 2 && r1.st.Overlapped == 0 {
			t.Fatalf("run %d: no cycle went on past the probe beside another core's run (%+v)", i, r1.st)
		}
	}
}
