package main

import (
	"context"
	"fmt"
	"time"

	"rcoe/internal/checksum"
	"rcoe/internal/cluster"
	"rcoe/internal/compilerpass"
	"rcoe/internal/core"
	"rcoe/internal/device"
	"rcoe/internal/exp"
	"rcoe/internal/faults"
	"rcoe/internal/guest"
	"rcoe/internal/harness"
	"rcoe/internal/isa"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/netstack"
	"rcoe/internal/snapshot"
	"rcoe/internal/vmm"
	"rcoe/internal/workload"

	"rcoe"
)

// Layer probes: each drives one module's exported API in a loop and
// reports its host cost. They are independent of the workload and seed.
// A probe reports the fastest of probeRuns runs — host noise only ever
// adds time — where a workload reports medians.
const probeRuns = 3

// sink keeps probe loops from being optimised away.
var sink uint64

// fastest returns the shortest duration f reports over probeRuns runs.
func fastest(f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < probeRuns; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// perItem is d spread over n items, in nanoseconds.
func perItem(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func mbPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type probeSet struct {
	sc  scale
	tr  *tracer
	out map[string]float64
}

// runProbes runs every layer probe and returns the per-layer metrics they
// produce, by name.
func runProbes(sc scale, tr *tracer) (map[string]float64, error) {
	p := &probeSet{sc: sc, tr: tr, out: map[string]float64{}}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"machine", p.machinePaths},
		{"core", p.coreSync},
		{"kernel", p.kernelEntry},
		{"vmm", p.vmExit},
		{"leaf", p.leafLayers},
		{"harness", p.harnessNode},
		{"cluster", p.clusterRouter},
		{"faults", p.faultCampaign},
		{"trace", p.traceCost},
	} {
		id := tr.begin("probe." + probe.name)
		err := probe.run()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", probe.name, err)
		}
	}
	return p.out, nil
}

// timeProgram builds cfg/prog fresh, runs it to the end, and returns the
// run's wall time with the finished system.
func (p *probeSet) timeProgram(cfg core.Config, prog guest.Program) (time.Duration, *core.System, error) {
	id := p.tr.begin("rcoe.BuildSystem")
	sys, err := rcoe.BuildSystem(cfg, prog)
	p.tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	ok := runToEnd(sys, nil)
	d := time.Since(t0)
	if !ok {
		_, reason := sys.Halted()
		return 0, nil, fmt.Errorf("%s under %s did not finish (%s)", prog.Name, cfg.Mode, reason)
	}
	return d, sys, nil
}

// fastestProgram is timeProgram repeated, keeping the fastest run.
func (p *probeSet) fastestProgram(cfg core.Config, prog guest.Program) (time.Duration, *core.System, error) {
	var last *core.System
	d, err := fastest(func() (time.Duration, error) {
		d, sys, err := p.timeProgram(cfg, prog)
		last = sys
		return d, err
	})
	return d, last, err
}

// machinePaths measures host ns per guest instruction on each execution
// path of internal/machine, selected through Config.Disable*, and on the
// two- and three-core rotations.
func (p *probeSet) machinePaths() error {
	prog := guest.Dhrystone(p.sc.ProbeLoops)
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{Mode: core.ModeNone}},
		{"sb", core.Config{Mode: core.ModeNone, DisableExecCache: true}},
		{"ec", core.Config{Mode: core.ModeNone, DisableSuperblock: true}},
		{"naive", core.Config{Mode: core.ModeNone, DisableExecCache: true, DisableSuperblock: true}},
		{"pair", core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 20_000}},
		{"tri", core.Config{Mode: core.ModeLC, Replicas: 3, TickCycles: 20_000}},
	} {
		d, sys, err := p.fastestProgram(c.cfg, prog)
		if err != nil {
			return err
		}
		p.out["machine.ns_per_instr."+c.name] = perItem(d, instructions(sys))
	}
	return nil
}

// coreSync measures the host cost of one rendezvous + vote as the slope
// of wall time over sync count between a short and a long tick. The
// program is no longer than Dhrystone(100k): at tick 2000 twice that
// fail-stops with a barrier-timeout (see README, known limits).
func (p *probeSet) coreSync() error {
	prog := guest.Dhrystone(p.sc.ProbeSyncs)
	for _, c := range []struct {
		name     string
		replicas int
	}{{"core.sync_ns", 2}, {"core.sync_ns.tmr", 3}} {
		var wall [2]time.Duration
		var syncs [2]uint64
		for i, tick := range []uint64{2000, 200_000} {
			d, sys, err := p.fastestProgram(core.Config{Mode: core.ModeLC, Replicas: c.replicas, TickCycles: tick}, prog)
			if err != nil {
				return err
			}
			wall[i], syncs[i] = d, sys.Stats().Syncs
		}
		if syncs[0] > syncs[1] {
			p.out[c.name] = perItem(wall[0]-wall[1], syncs[0]-syncs[1])
		}
	}
	return nil
}

// kernelEntry measures one kernel entry: a syscall loop's wall time minus
// what its instructions alone cost on the default path.
func (p *probeSet) kernelEntry() error {
	d, sys, err := p.fastestProgram(core.Config{Mode: core.ModeNone}, guest.AtomicCounter(1, p.sc.ProbeLoops))
	if err != nil {
		return err
	}
	instrNS := p.out["machine.ns_per_instr.default"] * float64(instructions(sys))
	p.out["kernel.entry_ns"] = (float64(d.Nanoseconds()) - instrNS) / float64(sys.Replica(0).K.EventCount())
	return nil
}

// vmExit measures one forced VM exit: the same CC-D run in a VM and
// native, difference over exits.
func (p *probeSet) vmExit() error {
	kern := guest.SplashSuite()[quickSplash[0]]
	kern.Outer = p.sc.SplashOuter
	cfg := core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: 30_000}
	native, _, err := p.fastestProgram(cfg, kern.Program(2))
	if err != nil {
		return err
	}
	var exits uint64
	inVM, err := fastest(func() (time.Duration, error) {
		id := p.tr.begin("vmm.Launch")
		vm, err := vmm.Launch(vmm.GuestConfig{System: cfg, Program: kern.Program(2)})
		p.tr.end(id)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		ok := runToEnd(vm.System(), nil)
		d := time.Since(t0)
		if !ok {
			return 0, fmt.Errorf("%s did not finish in a VM", kern.Name)
		}
		exits = vm.VMExits()
		return d, nil
	})
	if err != nil {
		return err
	}
	p.out["vmm.exit_ns"] = perItem(inVM-native, exits)
	return nil
}

// kvProgram is the key-value server image a node boots, with the NIC it
// is built against.
func kvProgram() (guest.Program, *device.NIC) {
	dmaBase, _ := core.DMARegion()
	const mmio = 0xF000_0000
	nic := device.NewNIC(mmio, dmaBase, harness.NICLine)
	return guest.KVApp(guest.KVConfig{
		Driver: guest.DriverLC, Requests: 1 << 32, Slots: 4096, TraceOutput: true,
		IRQLine:  harness.NICLine,
		RxFlagPA: nic.RxFlagPA(), RxLenPA: nic.RxLenPA(), RxDataPA: nic.RxDataPA(),
		TxFlagPA: nic.TxFlagPA(), TxLenPA: nic.TxLenPA(), TxDataPA: nic.TxDataPA(),
		DoorbellPA: mmio + device.RegTxDoorbell,
	}), nic
}

// leafLayers covers the modules with no state of their own: checksum,
// asm, compilerpass, isa, device.NIC, netstack, workload, metrics.
func (p *probeSet) leafLayers() error {
	const words = 1 << 20
	d, _ := fastest(func() (time.Duration, error) {
		var f checksum.Fletcher
		t0 := time.Now()
		for i := uint64(0); i < words; i++ {
			f.Add(i * 0x9E3779B97F4A7C15)
		}
		sink += f.Sum()
		return time.Since(t0), nil
	})
	p.out["checksum.fletcher_ns_per_word"] = perItem(d, words)
	buf := make([]byte, 1<<20)
	d, _ = fastest(func() (time.Duration, error) {
		var f checksum.Fletcher
		t0 := time.Now()
		for i := 0; i < 8; i++ {
			f.AddBytes(buf)
		}
		sink += f.Sum()
		return time.Since(t0), nil
	})
	p.out["checksum.fletcher_mb_per_s"] = mbPerS(8*len(buf), d)

	kv, nic := kvProgram()
	var prog []isa.Instr
	d, err := fastest(func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		prog, err = kv.Build().Assemble(kernel.TextVA)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["asm.assemble_us"] = float64(d.Nanoseconds()) / 1e3
	d, _ = fastest(func() (time.Duration, error) {
		b := kv.Build()
		t0 := time.Now()
		compilerpass.Instrument(b)
		return time.Since(t0), nil
	})
	p.out["compilerpass.instrument_us"] = float64(d.Nanoseconds()) / 1e3
	img := isa.EncodeProgram(prog)
	const decodePasses = 64
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for pass := 0; pass < decodePasses; pass++ {
			for off := 0; off+isa.InstrBytes <= len(img); off += isa.InstrBytes {
				ins, err := isa.Decode(img[off : off+isa.InstrBytes])
				if err != nil {
					return 0, err
				}
				sink += uint64(ins.Op)
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out["isa.decode_ns"] = perItem(d, uint64(decodePasses*len(prog)))

	// NIC: one frame in through the RX mailbox, one out through the TX
	// mailbox, the host standing in for the driver's flag writes.
	frames := uint64(p.sc.ProbeOps) * 4
	set, err := netstack.EncodeRequest(netstack.Request{Op: netstack.OpSet, ReqID: 1, Key: workload.Key(1), Value: workload.Value(1, 0)})
	if err != nil {
		return err
	}
	m := machine.New(machine.X86(), 1<<20)
	mem := m.Mem()
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			nic.Inject(set)
			nic.Tick(m)
			if err := mem.WriteU(nic.RxFlagPA(), 8, 0); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out["device.nic_inject_ns"] = perItem(d, frames)
	resp := netstack.EncodeResponse(netstack.Response{Status: netstack.StatusOK, ReqID: 1, Value: workload.Value(1, 0)})
	var drained [][]byte
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			if err := mem.Write(nic.TxDataPA(), resp); err != nil {
				return 0, err
			}
			_ = mem.WriteU(nic.TxLenPA(), 8, uint64(len(resp)))
			_ = mem.WriteU(nic.TxFlagPA(), 8, 1)
			nic.MMIOWrite(nic.MMIOBase()+device.RegTxDoorbell, 8, 1)
			nic.Tick(m)
			drained = nic.DrainResponses(drained[:0])
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	if len(drained) != 1 || string(drained[0]) != string(resp) {
		return fmt.Errorf("NIC TX path returned %d frames, want the one sent", len(drained))
	}
	p.out["device.nic_drain_ns"] = perItem(d, frames)

	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			f, err := netstack.EncodeRequest(netstack.Request{Op: netstack.OpSet, ReqID: uint32(i), Key: set[8:20], Value: resp[8:]})
			if err != nil {
				return 0, err
			}
			sink += uint64(len(f))
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out["netstack.encode_ns"] = perItem(d, frames)
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			r, err := netstack.DecodeResponse(resp)
			if err != nil {
				return 0, err
			}
			sink += uint64(r.ReqID)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out["netstack.decode_ns"] = perItem(d, frames)

	d, _ = fastest(func() (time.Duration, error) {
		g := workload.NewGenerator(workload.YCSBA, p.sc.KVRecords, 1)
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			sink += uint64(len(g.Next()))
		}
		return time.Since(t0), nil
	})
	p.out["workload.next_ns"] = perItem(d, frames)
	d, _ = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			sink += uint64(len(workload.Key(i)))
		}
		return time.Since(t0), nil
	})
	p.out["workload.key_ns"] = perItem(d, frames)

	const incs = 1 << 22
	d, _ = fastest(func() (time.Duration, error) {
		var c metrics.Counter
		t0 := time.Now()
		for i := 0; i < incs; i++ {
			c.Inc()
		}
		sink += c.Value()
		return time.Since(t0), nil
	})
	p.out["metrics.counter_inc_ns"] = perItem(d, incs)
	return nil
}

// probeWindow is the in-flight request window of the probe's own client,
// the single-node client's default.
const probeWindow = 8

// serveFrames is the benchmark's own minimal client: it pushes
// pre-encoded frames through a node, probeWindow in flight, doing nothing
// else — no retry, validation or bookkeeping — so its wall time is the
// node's alone.
func serveFrames(n *harness.Node, frames [][]byte) error {
	var buf [][]byte
	next, inflight, done := 0, 0, 0
	deadline := n.Now() + 2_000_000_000
	for done < len(frames) {
		for inflight < probeWindow && next < len(frames) {
			n.InjectRetained(frames[next])
			next++
			inflight++
		}
		n.RunCycles(kvChunk)
		buf = n.DrainResponses(buf[:0])
		inflight -= len(buf)
		done += len(buf)
		if halted, reason := n.Halted(); halted || n.Now() > deadline {
			return fmt.Errorf("node stopped serving after %d of %d frames (%s)", done, len(frames), reason)
		}
	}
	return nil
}

func encodeAll(reqs []netstack.Request) ([][]byte, error) {
	frames := make([][]byte, len(reqs))
	for i, r := range reqs {
		f, err := netstack.EncodeRequest(r)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return frames, nil
}

// harnessNode measures node boot, the node's own serving cost under the
// minimal client, the share the full single-node client adds on the same
// operations, and the state layer on the preloaded node.
func (p *probeSet) harnessNode() error {
	kv := kvOptions(p.sc, 1)
	kv.Operations = p.sc.ProbeOps
	nodeOpts := harness.NodeOptions{System: kv.System, Slots: nextPow2(kv.Records * 4), TraceOutput: true}

	gen := workload.NewGenerator(kv.Workload, kv.Records, kv.Seed)
	load, err := encodeAll(gen.LoadRequests())
	if err != nil {
		return err
	}
	var ops []netstack.Request
	for i := uint64(0); i < kv.Operations; i++ {
		ops = append(ops, gen.Next()...)
	}
	run, err := encodeAll(ops)
	if err != nil {
		return err
	}

	var node *harness.Node
	var boot time.Duration
	serve, err := fastest(func() (time.Duration, error) {
		t0 := time.Now()
		id := p.tr.begin("harness.NewNode")
		n, err := harness.NewNode(nodeOpts)
		p.tr.end(id)
		if err != nil {
			return 0, err
		}
		if d := time.Since(t0); boot == 0 || d < boot {
			boot = d
		}
		if err := serveFrames(n, load); err != nil {
			return 0, err
		}
		node = n
		t1 := time.Now()
		err = serveFrames(n, run)
		return time.Since(t1), err
	})
	if err != nil {
		return err
	}
	p.out["harness.node_boot_ms"] = float64(boot.Nanoseconds()) / 1e6
	p.out["harness.node_serve_us_per_op"] = perItem(serve, kv.Operations) / 1e3

	full, err := fastest(func() (time.Duration, error) {
		id := p.tr.begin("harness.NewKV")
		r, err := harness.NewKV(kv)
		p.tr.end(id)
		if err != nil {
			return 0, err
		}
		pumpKV(r, nil, r.LoadPhaseDone)
		t0 := time.Now()
		pumpKV(r, nil, r.Done)
		d := time.Since(t0)
		if res := r.Snapshot(); kvFailed(res, kv.Operations) != 0 {
			return 0, fmt.Errorf("KV run failed %d of %d operations", kvFailed(res, kv.Operations), kv.Operations)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	p.out["harness.client_share"] = 1 - ratio(serve, full)

	return p.stateLayer(node, nodeOpts)
}

func nextPow2(v uint64) uint64 {
	n := uint64(64)
	for n < v {
		n <<= 1
	}
	return n
}

// stateLayer measures snapshot save, parse and load on a served node,
// each apart: Cluster.Checkpoint's cost beyond Node.SaveState is the
// cluster's, not the serializer's.
func (p *probeSet) stateLayer(node *harness.Node, opts harness.NodeOptions) error {
	var data []byte
	d, err := fastest(func() (time.Duration, error) {
		t0 := time.Now()
		id := p.tr.begin("Node.SaveState")
		w := snapshot.NewWriter()
		err := node.SaveState(w)
		if err == nil {
			data, err = w.Bytes()
		}
		p.tr.end(id)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["snapshot.bytes"] = float64(len(data))
	p.out["snapshot.save_mb_per_s"] = mbPerS(len(data), d)

	var snap *snapshot.Snapshot
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		id := p.tr.begin("snapshot.Parse")
		var err error
		snap, err = snapshot.Parse(data)
		p.tr.end(id)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["snapshot.sections"] = float64(len(snap.Sections()))
	p.out["snapshot.parse_mb_per_s"] = mbPerS(len(data), d)

	d, err = fastest(func() (time.Duration, error) {
		fresh, err := harness.NewNode(opts)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		id := p.tr.begin("Node.LoadState")
		err = fresh.LoadState(snap)
		p.tr.end(id)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["snapshot.load_mb_per_s"] = mbPerS(len(data), d)
	return nil
}

// clusterRouter measures a ring lookup and what the fork-join pool buys:
// the same small cluster's run phase at one worker and at hostWorkers().
func (p *probeSet) clusterRouter() error {
	ring := cluster.NewRingFromShards(p.sc.ClusterShards, 0)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
	}
	const lookups = 1 << 18
	d, _ := fastest(func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			s, _ := ring.Lookup(keys[i%len(keys)])
			sink += uint64(s)
		}
		return time.Since(t0), nil
	})
	p.out["cluster.ring_lookup_ns"] = perItem(d, lookups)

	runPhase := func(workers int) (time.Duration, error) {
		return fastest(func() (time.Duration, error) {
			opts := clusterOptions(p.sc, 1)
			opts.Records, opts.Operations, opts.ShardWorkers = p.sc.KVRecords, p.sc.ProbeOps, workers
			id := p.tr.begin("cluster.New")
			c, err := cluster.New(opts)
			p.tr.end(id)
			if err != nil {
				return 0, err
			}
			res, err := c.Run()
			if err != nil {
				return 0, err
			}
			if res.Ops != opts.Operations || res.Errors+res.Corruptions != 0 {
				return 0, fmt.Errorf("probe cluster completed %d of %d operations", res.Ops, opts.Operations)
			}
			return time.Duration(c.HostProfile().RunNS), nil
		})
	}
	serial, err := runPhase(1)
	if err != nil {
		return err
	}
	pooled, err := runPhase(hostWorkers())
	if err != nil {
		return err
	}
	p.out["cluster.pool_speedup"] = ratio(serial, pooled)
	return nil
}

// faultCampaign measures the warm-start machinery: building the
// template, a trial forked from it against a trial booted cold, the
// engine's per-job overhead and what its workers buy.
func (p *probeSet) faultCampaign() error {
	opts := campaignOptions(p.sc, 1)
	opts.Trials = p.sc.ProbeTrials
	var tmpl []byte
	d, err := fastest(func() (time.Duration, error) {
		t0 := time.Now()
		id := p.tr.begin("faults.WarmTemplate")
		var err error
		tmpl, err = faults.WarmTemplate(opts.KV, opts.Seed)
		p.tr.end(id)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["faults.template_ms"] = float64(d.Nanoseconds()) / 1e6

	campaign := func(warm bool, workers int) (time.Duration, error) {
		return fastest(func() (time.Duration, error) {
			o := opts
			o.Workers, o.WarmStart, o.Template = workers, warm, nil
			if warm {
				o.Template = tmpl
			}
			t0 := time.Now()
			id := p.tr.begin("faults.MemCampaign")
			_, err := faults.MemCampaign(o)
			p.tr.end(id)
			return time.Since(t0), err
		})
	}
	warm, err := campaign(true, 1)
	if err != nil {
		return err
	}
	cold, err := campaign(false, 1)
	if err != nil {
		return err
	}
	pooled, err := campaign(true, hostWorkers())
	if err != nil {
		return err
	}
	p.out["faults.warm_trial_ms"] = perItem(warm, uint64(opts.Trials)) / 1e6
	p.out["faults.cold_trial_ms"] = perItem(cold, uint64(opts.Trials)) / 1e6
	p.out["faults.warm_speedup"] = ratio(cold, warm)
	p.out["exp.workers_speedup"] = ratio(warm, pooled)

	const jobs = 20_000
	noop := make([]exp.Job[int], jobs)
	for i := range noop {
		noop[i] = exp.Job[int]{Run: func(context.Context, uint64) (int, error) { return 0, nil }}
	}
	d, err = fastest(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := exp.Run(exp.Options{Workers: hostWorkers()}, noop)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out["exp.job_overhead_ns"] = perItem(d, jobs)
	return nil
}

// traceCost measures what the flight recorder costs when it is on: the
// same KV run phase with Trace.Enabled over without.
func (p *probeSet) traceCost() error {
	runPhase := func(enabled bool) (time.Duration, error) {
		return fastest(func() (time.Duration, error) {
			kv := kvOptions(p.sc, 1)
			kv.Operations = p.sc.ProbeOps
			kv.System.Trace = core.TraceConfig{Enabled: enabled}
			r, err := harness.NewKV(kv)
			if err != nil {
				return 0, err
			}
			pumpKV(r, nil, r.LoadPhaseDone)
			t0 := time.Now()
			pumpKV(r, nil, r.Done)
			d := time.Since(t0)
			if !r.Done() {
				return 0, fmt.Errorf("KV run with trace=%v did not complete", enabled)
			}
			return d, nil
		})
	}
	off, err := runPhase(false)
	if err != nil {
		return err
	}
	on, err := runPhase(true)
	if err != nil {
		return err
	}
	p.out["trace.on_cost_ratio"] = ratio(on, off)
	return nil
}
