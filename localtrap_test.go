package rcoe_test

import (
	"fmt"
	"testing"

	"rcoe"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/workload"
)

// TestLocalTrapShadow checks core.System.LocalTrap's promise on the systems
// where local kernel entries happen: with machine.DebugLocalShadow set,
// every entry it calls local first brings the other cores to machine time,
// and whatever the handler changes of another core — its run state,
// latches, debug registers, scheduling state, address space or cache — or
// of a page one of their runs touched is a violation. It runs LC-DMR and
// LC-TMR key-value nodes, LC-DMR Dhrystone and a closely-coupled DataRace,
// each three ways: with the superblock engine off, on under the shadow, and
// on without it (where local entries leave the other cores' runs ahead).
// All three must agree on the fingerprint, and the shadowed run must see no
// violation. The key-value nodes must have taken local entries (GetRID,
// GetPrimary and FT_Add_Trace in their drivers); Dhrystone and DataRace make
// no local syscall, so there the test pins that the predicate stays false.
func TestLocalTrapShadow(t *testing.T) {
	var violations []string
	machine.DebugLocalShadow = func(coreID int, now uint64, what string) {
		if len(violations) < 10 {
			violations = append(violations, fmt.Sprintf("core %d's local entry at cycle %d changed %s", coreID, now, what))
		}
	}
	defer func() { machine.DebugLocalShadow = nil }()

	kv := func(replicas int) func(t *testing.T, noSB bool) (string, machine.SuperblockStats) {
		return func(t *testing.T, noSB bool) (string, machine.SuperblockStats) {
			run, err := harness.NewKV(harness.KVOptions{
				System: rcoe.Config{Mode: rcoe.ModeLC, Replicas: replicas, TickCycles: 60_000,
					DisableSuperblock: noSB},
				Workload:   workload.YCSBA,
				Records:    30,
				Operations: 120,
				Seed:       3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Run(); err != nil {
				t.Fatal(err)
			}
			return systemFingerprint(run.Sys), run.Sys.Machine().SuperblockStats()
		}
	}
	system := func(cfg rcoe.Config, prog rcoe.Program) func(t *testing.T, noSB bool) (string, machine.SuperblockStats) {
		return func(t *testing.T, noSB bool) (string, machine.SuperblockStats) {
			cfg.DisableSuperblock = noSB
			sys, err := rcoe.BuildSystem(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(500_000_000); err != nil {
				t.Fatal(err)
			}
			return systemFingerprint(sys), sys.Machine().SuperblockStats()
		}
	}
	for _, sc := range []struct {
		name      string
		needLocal bool
		run       func(t *testing.T, noSB bool) (string, machine.SuperblockStats)
	}{
		{"lc-dmr-kv", true, kv(2)},
		{"lc-tmr-kv", true, kv(3)},
		{"lc-dmr-dhrystone", false, system(rcoe.Config{Mode: rcoe.ModeLC, Replicas: 2, TickCycles: 20_000}, rcoe.Dhrystone(300))},
		{"cc-dmr-datarace", false, system(rcoe.Config{Mode: rcoe.ModeCC, Replicas: 2, TickCycles: 2000}, rcoe.DataRace(4, 40, 10))},
	} {
		t.Run(sc.name, func(t *testing.T) {
			violations = violations[:0]
			naive, _ := sc.run(t, true)
			shadowed, st := sc.run(t, false)
			if len(violations) != 0 {
				t.Fatalf("local entries changed what LocalTrap promised they leave alone:\n%v", violations)
			}
			machine.DebugLocalShadow = nil
			fast, fastSt := sc.run(t, false)
			machine.DebugLocalShadow = func(coreID int, now uint64, what string) {
				violations = append(violations, fmt.Sprintf("core %d's local entry at cycle %d changed %s", coreID, now, what))
			}
			assertIdentical(t, sc.name+"/shadowed", naive, shadowed)
			assertIdentical(t, sc.name+"/superblock", naive, fast)
			t.Logf("%d local entries shadowed, %d taken", st.Local, fastSt.Local)
			if sc.needLocal && (st.Local == 0 || fastSt.Local != st.Local) {
				t.Fatalf("%d local entries under the shadow, %d without it", st.Local, fastSt.Local)
			}
		})
	}
}
