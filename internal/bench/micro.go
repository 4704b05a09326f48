package bench

import (
	"fmt"

	"rcoe/internal/checksum"
	"rcoe/internal/core"
	"rcoe/internal/guest"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/stats"
	"rcoe/internal/vmm"
)

// Table1 demonstrates the voting algorithm on the two examples of the
// paper's Table I: one divergent checksum (consensus on the faulter) and
// all-different checksums (no consensus).
func Table1(Scale) (*stats.Table, error) {
	t := stats.NewTable("Table I: fault-vote examples",
		"case", "checksums", "consensus", "faulty")
	type tc struct {
		name string
		sums [3]uint64
	}
	for _, c := range []tc{
		{"one bad checksum", [3]uint64{0xdeadbeef, 0xdeadbeef, 0x0badf00d}},
		{"all different", [3]uint64{0x1111, 0x2222, 0x3333}},
	} {
		faulty, ok := core.VoteDemo(c.sums[:])
		f := "-"
		if ok {
			f = fmt.Sprintf("R%d", faulty)
		}
		t.AddRow(c.name, fmt.Sprintf("%x %x %x", c.sums[0], c.sums[1], c.sums[2]),
			fmt.Sprintf("%v", ok), f)
	}
	return t, nil
}

// DataRace reproduces §V-A1: racy multithreaded counters diverge across
// LC replicas with high probability and never under CC. Every
// (model, run) pair is an independent simulation and fans out on the
// engine.
func DataRace(s Scale) (*stats.Table, error) {
	runs := 5
	threads, iters, idle := 16, 80, 40
	if s == Full {
		runs = 20
		threads = 32
	}
	modes := []core.Mode{core.ModeLC, core.ModeCC}
	same, err := fanOut("datarace", len(modes)*runs, func(i int) (bool, error) {
		tick := 1_900 + uint64(i%runs)*311
		return dataRaceRun(modes[i/runs], threads, int64(iters), int64(idle), tick)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("§V-A1: data-race tolerance",
		"model", "runs", "replica divergences")
	for mi, mode := range modes {
		diverged := 0
		for r := 0; r < runs; r++ {
			if !same[mi*runs+r] {
				diverged++
			}
		}
		t.AddRow(mode.String(), fmt.Sprintf("%d", runs), fmt.Sprintf("%d", diverged))
	}
	return t, nil
}

func dataRaceRun(mode core.Mode, threads int, iters, idle int64, tick uint64) (bool, error) {
	p := guest.DataRace(threads, iters, idle)
	sys, err := guest.Boot(core.Config{Mode: mode, Replicas: 2, TickCycles: tick}, p)
	if err != nil {
		return false, err
	}
	if err := sys.Run(2_000_000_000); err != nil {
		return false, err
	}
	c0, err := sys.Replica(0).K.CopyFromUser(kernel.DataVA, 8)
	if err != nil {
		return false, err
	}
	c1, err := sys.Replica(1).K.CopyFromUser(kernel.DataVA, 8)
	if err != nil {
		return false, err
	}
	return string(c0) == string(c1), nil
}

// Table2 measures native Dhrystone and Whetstone across Base/LC-D/LC-T/
// CC-D/CC-T on both machine profiles. Every table cell is an independent
// sample and fans out on the engine; rows assemble in case order so the
// Base row still normalises the others.
func Table2(s Scale) (*stats.Table, error) {
	loops := int64(1500)
	reps := 3
	if s == Full {
		loops = 6000
		reps = 10
	}
	progs := []guest.Program{guest.Dhrystone(loops), guest.Whetstone(loops / 5)}
	profiles := []machine.Profile{machine.Arm(), machine.X86()}
	cases := stockCases()
	perCase := len(progs) * len(profiles)
	samples, err := fanOut("table2", len(cases)*perCase, func(i int) (*stats.Sample, error) {
		rc := cases[i/perCase]
		cfg := core.Config{
			Mode: rc.mode, Replicas: rc.replicas,
			Profile:    profiles[i%len(profiles)],
			TickCycles: 20_000,
		}
		return repeatRuns(cfg, progs[(i/len(profiles))%len(progs)], reps, 3_000_000_000)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table II: native benchmarks (kilocycles, mean (sd); factor vs base)",
		"config", "dhrystone/arm", "dhrystone/x86", "whetstone/arm", "whetstone/x86")
	base := make(map[string]float64)
	for ci, rc := range cases {
		row := []string{rc.label}
		for pi, p := range progs {
			for fi, prof := range profiles {
				sample := samples[ci*perCase+pi*len(profiles)+fi]
				key := p.Name + "/" + prof.Name
				mean := sample.Mean()
				if rc.mode == core.ModeNone {
					base[key] = mean
				}
				cell := stats.PaperFormat(mean/1000, sample.StdDev()/1000, 0)
				if rc.mode != core.ModeNone {
					cell += " " + factor(mean, base[key])
				}
				row = append(row, cell)
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table3 measures the virtualised Dhrystone/Whetstone (x86 only; the
// paper's seL4 had no Arm hypervisor mode): CC breakpoints force VM
// exits, so overheads rise sharply versus native CC. Cells and their
// repetitions fan out on the engine.
func Table3(s Scale) (*stats.Table, error) {
	loops := int64(1200)
	reps := 3
	if s == Full {
		loops = 5000
		reps = 10
	}
	progs := []guest.Program{guest.Dhrystone(loops), guest.Whetstone(loops / 5)}
	cases := []replCase{
		{"Base(VM)", core.ModeNone, 1},
		{"CC-D(VM)", core.ModeCC, 2},
		{"CC-T(VM)", core.ModeCC, 3},
	}
	type vmCell struct {
		sample *stats.Sample
		exits  uint64
	}
	type vmRun struct {
		cycles, exits uint64
	}
	cells, err := fanOut("table3", len(cases)*len(progs), func(i int) (vmCell, error) {
		rc := cases[i/len(progs)]
		p := progs[i%len(progs)]
		runs, err := fanOut("table3/"+rc.label+"/"+p.Name, reps, func(r int) (vmRun, error) {
			vm, err := vmm.Launch(vmm.GuestConfig{
				System: core.Config{
					Mode: rc.mode, Replicas: rc.replicas,
					TickCycles: 30_000 + uint64(r)*137,
				},
				Program: p,
			})
			if err != nil {
				return vmRun{}, err
			}
			cycles, err := vm.Run(3_000_000_000)
			if err != nil {
				return vmRun{}, err
			}
			return vmRun{cycles: cycles, exits: vm.VMExits()}, nil
		})
		if err != nil {
			return vmCell{}, err
		}
		var cell vmCell
		cell.sample = &stats.Sample{}
		for _, r := range runs {
			cell.sample.Add(float64(r.cycles))
			cell.exits += r.exits
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table III: virtualised benchmarks on x86 (kilocycles; factor vs base)",
		"config", "dhrystone", "whetstone", "vm-exits")
	base := make(map[string]float64)
	for ci, rc := range cases {
		row := []string{rc.label}
		var exits uint64
		for pi, p := range progs {
			cell := cells[ci*len(progs)+pi]
			exits += cell.exits
			mean := cell.sample.Mean()
			if rc.mode == core.ModeNone {
				base[p.Name] = mean
			}
			c := stats.PaperFormat(mean/1000, cell.sample.StdDev()/1000, 0)
			if rc.mode != core.ModeNone {
				c += " " + factor(mean, base[p.Name])
			}
			row = append(row, c)
		}
		row = append(row, fmt.Sprintf("%d", exits))
		t.AddRow(row...)
	}
	return t, nil
}

// Table4 runs the SPLASH-2-style kernels in a VM under CC-RCoE DMR and
// reports per-kernel overhead factors with the geometric mean, plus the
// NPROC=1 mean. Kernels fan out on the engine; each job runs its own
// base/CC pair.
func Table4(s Scale) (*stats.Table, error) {
	suite := guest.SplashSuite()
	if s == Quick {
		suite = []guest.SplashKernel{suite[1], suite[4], suite[8], suite[10]} // CHOLESKY, LU-C, RADIOSITY, RAYTRACE
	}
	single := suite
	if len(single) > 3 {
		single = single[:3]
	}
	type splashPair struct {
		baseC, ccC uint64
	}
	pairFor := func(k guest.SplashKernel, nproc int) (splashPair, error) {
		baseC, err := runSplashVM(k, core.ModeNone, 1, nproc)
		if err != nil {
			return splashPair{}, err
		}
		ccC, err := runSplashVM(k, core.ModeCC, 2, nproc)
		if err != nil {
			return splashPair{}, err
		}
		return splashPair{baseC: baseC, ccC: ccC}, nil
	}
	// The NPROC=2 suite and the NPROC=1 comparison subset are one job
	// list: kernels first, then the single-core reruns.
	pairs, err := fanOut("table4", len(suite)+len(single), func(i int) (splashPair, error) {
		if i < len(suite) {
			return pairFor(suite[i], 2)
		}
		return pairFor(single[i-len(suite)], 1)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table IV: SPLASH-2 kernels in a VM (CC-D vs base)",
		"kernel", "base kc", "CC-D kc", "factor", "paper")
	var factors []float64
	for i, k := range suite {
		p := pairs[i]
		f := float64(p.ccC) / float64(p.baseC)
		factors = append(factors, f)
		t.AddRow(k.Name, fmt.Sprintf("%d", p.baseC/1000), fmt.Sprintf("%d", p.ccC/1000),
			fmt.Sprintf("%.2f", f), fmt.Sprintf("%.2f", k.PaperFactor))
	}
	t.AddRow("geomean", "", "", fmt.Sprintf("%.2f", stats.GeoMean(factors)), "2.30")
	// NPROC=1 comparison (the paper reports the mean dropping to ~2.0).
	var f1 []float64
	for i := range single {
		p := pairs[len(suite)+i]
		f1 = append(f1, float64(p.ccC)/float64(p.baseC))
	}
	t.AddRow("geomean NPROC=1", "", "", fmt.Sprintf("%.2f", stats.GeoMean(f1)), "2.02")
	return t, nil
}

func runSplashVM(k guest.SplashKernel, mode core.Mode, replicas, nproc int) (uint64, error) {
	vm, err := vmm.Launch(vmm.GuestConfig{
		System:  core.Config{Mode: mode, Replicas: replicas, TickCycles: 30_000},
		Program: k.Program(nproc),
	})
	if err != nil {
		return 0, err
	}
	return vm.Run(6_000_000_000)
}

// Table5 measures memcpy memory bandwidth under replica contention on
// both profiles: on x86 one core saturates the bus, so DMR/TMR divide it;
// on Arm a single core cannot, leaving headroom. Cells fan out on the
// engine.
func Table5(s Scale) (*stats.Table, error) {
	bufBytes := uint64(2 << 20) // 4x the x86 per-core cache model
	reps := int64(2)
	if s == Full {
		bufBytes = 8 << 20
		reps = 4
	}
	cases := stockCases()
	profiles := []machine.Profile{machine.X86(), machine.Arm()}
	progFor := func(prof machine.Profile) guest.Program {
		// An x86 memcpy is a rep-movs block instruction; an Armv7
		// memcpy compiles to a copy loop.
		if prof.Name == "arm" {
			return guest.MembenchLoop(bufBytes, reps)
		}
		return guest.Membench(bufBytes, reps)
	}
	cycles, err := fanOut("table5", len(cases)*len(profiles), func(i int) (uint64, error) {
		rc := cases[i/len(profiles)]
		prof := profiles[i%len(profiles)]
		p := progFor(prof)
		cfg := core.Config{
			Mode: rc.mode, Replicas: rc.replicas, Profile: prof,
			TickCycles: 100_000,
		}
		return runProgram(cfg, p, 30_000_000_000)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table V: memcpy bandwidth (bytes/kilocycle per replica; % of base)",
		"config", "x86", "x86 %", "arm", "arm %")
	base := map[string]float64{}
	for ci, rc := range cases {
		row := []string{rc.label}
		var cells [4]string
		for pi, prof := range profiles {
			bw := float64(bufBytes) * float64(reps) / (float64(cycles[ci*len(profiles)+pi]) / 1000)
			if rc.mode == core.ModeNone {
				base[prof.Name] = bw
			}
			cells[pi*2] = fmt.Sprintf("%.1f", bw)
			cells[pi*2+1] = fmt.Sprintf("%.0f%%", 100*bw/base[prof.Name])
		}
		row = append(row, cells[:]...)
		t.AddRow(row...)
	}
	return t, nil
}

// AblateFletcher demonstrates why the signature checksum must be order
// sensitive: a pair of swapped state updates — two replicas applying the
// same updates in different orders after divergence — fools an additive
// checksum but not the Fletcher checksum (§III-C).
func AblateFletcher(Scale) (*stats.Table, error) {
	t := stats.NewTable("Ablation: Fletcher vs additive checksum on swapped updates",
		"update stream", "additive", "fletcher")
	streams := [][]uint64{
		{0x10, 0x20, 0x30},
		{0x30, 0x20, 0x10}, // same updates, different order
		{0x10, 0x20, 0x31}, // value change
	}
	for _, st := range streams {
		var add uint64
		for _, w := range st {
			add += w
		}
		t.AddRow(fmt.Sprintf("%x", st), fmt.Sprintf("%#x", add),
			fmt.Sprintf("%#x", checksum.Sum64(st)))
	}
	return t, nil
}
