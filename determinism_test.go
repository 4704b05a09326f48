package rcoe_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcoe"
	"rcoe/internal/faults"
	"rcoe/internal/harness"
	"rcoe/internal/workload"
)

// These differential tests are the host-optimisation determinism
// contract: for every tier-1 scenario, a run with the execution cache
// (predecoded instructions + translation memos) and/or the superblock
// engine (batched straight-line execution and bulk-credited idle windows)
// enabled must be bit-identical — final machine cycle, per-core counters
// and registers, kernel signatures, detections, stats, metrics — to the
// same run stepped naively cycle by cycle with every cache off. Any
// drift means an optimisation skipped or memoised something the naive
// loop would have observed differently.

// hostVariant is one corner of the {exec-cache × superblock} accelerator
// square.
type hostVariant struct {
	name       string
	noEC, noSB bool
}

func (v hostVariant) apply(cfg *rcoe.Config) {
	cfg.DisableExecCache = v.noEC
	cfg.DisableSuperblock = v.noSB
}

// hostVariants enumerates all four host-optimisation combinations each
// scenario runs under. The first entry is the baseline everything-on
// configuration the others are compared against; the last is the naive
// reference, stepped cycle by cycle.
var hostVariants = []hostVariant{
	{"all-on", false, false},
	{"no-execcache", true, false},
	{"no-superblock", false, true},
	{"naive", true, true},
}

// systemFingerprint renders everything observable about a finished system
// into a canonical string, so differences show up as a readable diff.
func systemFingerprint(sys *rcoe.System) string {
	var sb strings.Builder
	m := sys.Machine()
	halted, reason := sys.Halted()
	fmt.Fprintf(&sb, "now=%d finished=%v halted=%v reason=%q\n",
		m.Now(), sys.Finished(), halted, reason)
	for i := 0; i < sys.NumReplicas(); i++ {
		c := m.Core(i)
		var regs uint64
		for _, r := range c.Regs {
			regs = regs*0x100000001b3 ^ r
		}
		ev, sum := sys.Replica(i).K.Signature()
		fmt.Fprintf(&sb, "core%d state=%d cycles=%d instr=%d branches=%d pc=%#x regs=%#x sig=(%d,%#x)\n",
			i, c.State, c.Cycles, c.Instructions, c.UserBranches, c.PC, regs, ev, sum)
	}
	fmt.Fprintf(&sb, "stats=%+v\n", sys.Stats())
	for _, d := range sys.Detections() {
		fmt.Fprintf(&sb, "detection=%+v\n", d)
	}
	if sys.Metrics() != nil {
		sb.WriteString(sys.MetricsSnapshot().Table("metrics"))
	}
	return sb.String()
}

// diffLine reports the first line two fingerprints disagree on.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  fast:  %s\n  naive: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

func assertIdentical(t *testing.T, name, fast, slow string) {
	t.Helper()
	if fast != slow {
		t.Fatalf("%s: accelerated run diverged from the baseline\n%s", name, diffLine(fast, slow))
	}
}

// table2Configs and table2Programs span the Table II scenario grid.
var table2Configs = []struct {
	name string
	cfg  rcoe.Config
}{
	{"base", rcoe.Config{Mode: rcoe.ModeNone, Replicas: 1, TickCycles: 20_000}},
	{"lc-dmr", rcoe.Config{Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000}},
	{"lc-tmr", rcoe.Config{Mode: rcoe.ModeLC, Replicas: 3, TickCycles: 20_000}},
	{"cc-dmr", rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 20_000}},
}

var table2Programs = []struct {
	name string
	prog rcoe.Program
}{
	{"dhrystone", rcoe.Dhrystone(300)},
	{"whetstone", rcoe.Whetstone(30)},
}

// runToFinish builds cfg under variant v, runs prog to completion and
// returns the system's fingerprint.
func runToFinish(t *testing.T, cfg rcoe.Config, prog rcoe.Program, v hostVariant) string {
	t.Helper()
	v.apply(&cfg)
	sys, err := rcoe.BuildSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(500_000_000); err != nil {
		t.Fatalf("run (%s): %v", v.name, err)
	}
	return systemFingerprint(sys)
}

func TestDeterminismTable2Kernels(t *testing.T) {
	for _, p := range table2Programs {
		for _, c := range table2Configs {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				base := runToFinish(t, c.cfg, p.prog, hostVariants[0])
				for _, v := range hostVariants[1:] {
					assertIdentical(t, p.name+"/"+c.name+"/"+v.name, base, runToFinish(t, c.cfg, p.prog, v))
				}
			})
		}
	}
}

// runKVUnderYCSB serves YCSB-A on a traced LC-TMR node under variant v.
func runKVUnderYCSB(t *testing.T, v hostVariant) (harness.KVResult, string) {
	t.Helper()
	cfg := rcoe.Config{
		Mode:       rcoe.ModeLC,
		Replicas:   3,
		TickCycles: 50_000,
		Trace:      rcoe.TraceConfig{Enabled: true},
	}
	v.apply(&cfg)
	opts := harness.KVOptions{
		System:     cfg,
		Workload:   workload.YCSBA,
		Records:    40,
		Operations: 80,
		Seed:       11,
	}
	kv, err := harness.NewKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kv.Run()
	if err != nil {
		t.Fatalf("kv run (%s): %v", v.name, err)
	}
	return res, systemFingerprint(kv.Sys)
}

func TestDeterminismKVUnderYCSB(t *testing.T) {
	baseRes, baseFP := runKVUnderYCSB(t, hostVariants[0])
	for _, v := range hostVariants[1:] {
		res, fp := runKVUnderYCSB(t, v)
		assertIdentical(t, "kv-ycsba/"+v.name, baseFP, fp)
		if !reflect.DeepEqual(baseRes, res) {
			t.Fatalf("KV results diverged (%s):\nbase: %+v\ngot:  %+v", v.name, baseRes, res)
		}
	}
}

// runMaskingDowngrade hangs one replica of a masking TMR system, so its
// peers eject it on the barrier timeout and finish as DMR.
func runMaskingDowngrade(t *testing.T, v hostVariant) string {
	t.Helper()
	cfg := rcoe.Config{
		Mode:           rcoe.ModeLC,
		Replicas:       3,
		Masking:        true,
		TickCycles:     20_000,
		BarrierTimeout: 200_000,
	}
	v.apply(&cfg)
	sys, err := rcoe.BuildSystem(cfg, rcoe.Dhrystone(20_000))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(50_000)
	sys.InjectStall(2)
	if err := sys.Run(500_000_000); err != nil {
		t.Fatalf("run (%s): %v", v.name, err)
	}
	if len(sys.Detections()) == 0 {
		t.Fatalf("stall produced no detection (%s)", v.name)
	}
	return systemFingerprint(sys)
}

func TestDeterminismMaskingDowngrade(t *testing.T) {
	base := runMaskingDowngrade(t, hostVariants[0])
	for _, v := range hostVariants[1:] {
		assertIdentical(t, "masking-downgrade/"+v.name, base, runMaskingDowngrade(t, v))
	}
}

// runSoakCycle runs two chaos-soak lifecycle cycles under variant v.
func runSoakCycle(t *testing.T, v hostVariant) faults.SoakResult {
	t.Helper()
	var cfg rcoe.Config
	v.apply(&cfg)
	res, err := rcoe.Soak(rcoe.SoakOptions{
		System: cfg,
		Cycles: 2,
		Seed:   5,
	})
	if err != nil {
		t.Fatalf("soak (%s): %v", v.name, err)
	}
	return res
}

func TestDeterminismSoakCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("naive-mode soak is slow")
	}
	base := runSoakCycle(t, hostVariants[0])
	for _, v := range hostVariants[1:] {
		got := runSoakCycle(t, v)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("soak campaigns diverged (%s):\nbase: cycles=%+v windows=%v ops=%d violations=%v\ngot:  cycles=%+v windows=%v ops=%d violations=%v",
				v.name, base.Cycles, base.Windows, base.Ops, base.Violations,
				got.Cycles, got.Windows, got.Ops, got.Violations)
		}
	}
}

// TestDeterminismFaultCampaigns runs shortened versions of the Table VII
// memory and Table VIII register fault-injection studies with the
// execution cache and the superblock engine toggled. Fault injection
// exercises the invalidation protocols hardest — bit-flips land in live
// instruction bytes, sometimes under a cached superblock mid-batch — so
// the tallies must be byte-identical across modes.
func TestDeterminismFaultCampaigns(t *testing.T) {
	memBase := runMemCampaign(t, false, false)
	if got := runMemCampaign(t, true, false); !reflect.DeepEqual(memBase, got) {
		t.Fatalf("mem campaign tallies diverged (no-execcache):\ncached: %+v\nnaive:  %+v", memBase, got)
	}
	if got := runMemCampaign(t, false, true); !reflect.DeepEqual(memBase, got) {
		t.Fatalf("mem campaign tallies diverged (no-superblock):\nbatched: %+v\nstepped: %+v", memBase, got)
	}

	regBase := runRegCampaign(t, false, false)
	if got := runRegCampaign(t, true, false); !reflect.DeepEqual(regBase, got) {
		t.Fatalf("reg campaign tallies diverged (no-execcache):\ncached: %+v\nnaive:  %+v", regBase, got)
	}
	if got := runRegCampaign(t, false, true); !reflect.DeepEqual(regBase, got) {
		t.Fatalf("reg campaign tallies diverged (no-superblock):\nbatched: %+v\nstepped: %+v", regBase, got)
	}
}

// runMemCampaign is the shortened Table VII memory-fault study.
func runMemCampaign(t *testing.T, noEC, noSB bool) *faults.Tally {
	t.Helper()
	tally, err := rcoe.MemCampaign(rcoe.MemCampaignOptions{
		KV: harness.KVOptions{
			System: rcoe.Config{
				Mode:              rcoe.ModeLC,
				Replicas:          3,
				TickCycles:        50_000,
				DisableExecCache:  noEC,
				DisableSuperblock: noSB,
			},
			Workload:   workload.YCSBA,
			Records:    20,
			Operations: 40,
			Seed:       7,
		},
		Trials:          6,
		FlipEveryCycles: 40_000,
		MaxFlips:        40,
		Seed:            21,
	})
	if err != nil {
		t.Fatalf("mem campaign (noEC=%v noSB=%v): %v", noEC, noSB, err)
	}
	return tally
}

// runRegCampaign is the shortened Table VIII register-fault study.
func runRegCampaign(t *testing.T, noEC, noSB bool) faults.RegTally {
	t.Helper()
	tally, err := rcoe.RegCampaign(rcoe.RegCampaignOptions{
		System: rcoe.Config{
			Mode:              rcoe.ModeCC,
			Replicas:          2,
			TickCycles:        50_000,
			DisableExecCache:  noEC,
			DisableSuperblock: noSB,
		},
		MessageBytes: 512,
		Trials:       6,
		Seed:         33,
	})
	if err != nil {
		t.Fatalf("reg campaign (noEC=%v noSB=%v): %v", noEC, noSB, err)
	}
	return tally
}

// TestDeterminismHardFaultMatrix runs one trial of every hard-fault class
// — stuck bits re-asserted on each access, duty-cycled intermittent
// faults, NIC DMA corruption — under every host variant, with structural
// decorrelation both off and on. Stuck bits are the hardest case for the
// execution cache (they must stay visible without ever entering
// predecoded state), and intermittent faults toggle on machine-time phases
// a batch's credit must not jump over; every variant must classify every
// trial identically.
func TestDeterminismHardFaultMatrix(t *testing.T) {
	for _, decorr := range []bool{false, true} {
		name := "correlated"
		if decorr {
			name = "decorrelated"
		}
		t.Run(name, func(t *testing.T) {
			base := runHardCampaign(t, decorr, hostVariants[0])
			for _, v := range hostVariants[1:] {
				if got := runHardCampaign(t, decorr, v); !reflect.DeepEqual(base, got) {
					t.Fatalf("hard-fault tallies diverged (%s):\nbase: %+v\ngot:  %+v",
						v.name, base, got)
				}
			}
		})
	}
}

// runHardCampaign runs one trial of every hard-fault class under variant v.
func runHardCampaign(t *testing.T, decorr bool, v hostVariant) map[rcoe.FaultClass]*faults.Tally {
	t.Helper()
	cfg := rcoe.Config{
		Mode:        rcoe.ModeLC,
		Replicas:    3,
		Masking:     true,
		Decorrelate: decorr,
		TickCycles:  50_000,
	}
	v.apply(&cfg)
	tallies, err := rcoe.HardCampaign(rcoe.HardCampaignOptions{
		KV: harness.KVOptions{
			System:     cfg,
			Workload:   workload.YCSBA,
			Records:    20,
			Operations: 40,
		},
		TrialsPerClass: 1,
		Seed:           17,
	})
	if err != nil {
		t.Fatalf("hard campaign (%s): %v", v.name, err)
	}
	return tallies
}
