package guest

import (
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/machine"
)

// TestAssembleBranchSites pins the one branch-counting decision: Assemble
// instruments the program and sets BranchSites exactly when the
// configuration counts branches in the compiler's register, and leaves the
// partition size to the caller.
func TestAssembleBranchSites(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeLC, core.ModeCC} {
		for _, prof := range []machine.Profile{machine.X86(), machine.Arm()} {
			for _, force := range []bool{false, true} {
				cfg := core.Config{
					Mode: mode, Replicas: 2, Profile: prof,
					ForceCompilerCounting: force,
				}
				want := cfg.CompilerCounting()
				if want != (mode == core.ModeCC && (prof.Name == "arm" || force)) {
					t.Fatalf("%v/%s force=%v: CompilerCounting() = %v", mode, prof.Name, force, want)
				}
				if _, err := Assemble(&cfg, Dhrystone(10)); err != nil {
					t.Fatal(err)
				}
				if got := len(cfg.BranchSites) > 0; got != want {
					t.Errorf("%v/%s force=%v: %d branch sites, want sites=%v",
						mode, prof.Name, force, len(cfg.BranchSites), want)
				}
				if cfg.PartitionBytes != 0 {
					t.Errorf("%v/%s force=%v: PartitionBytes = %d", mode, prof.Name, force, cfg.PartitionBytes)
				}
			}
		}
	}
}
