package vmm

import (
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/guest"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
)

func TestGuestRunsToCompletion(t *testing.T) {
	vm, err := Launch(GuestConfig{
		System:  core.Config{Mode: core.ModeNone, TickCycles: 20_000},
		Program: guest.Dhrystone(500),
	})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := vm.Run(1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatalf("no cycles")
	}
}

func TestCCVMForcesExits(t *testing.T) {
	native, err := nativeCycles(t)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := Launch(GuestConfig{
		System:  core.Config{Mode: core.ModeCC, Replicas: 2, TickCycles: 20_000},
		Program: guest.Whetstone(150),
	})
	if err != nil {
		t.Fatal(err)
	}
	virt, err := vm.Run(3_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if vm.VMExits() == 0 {
		t.Fatalf("CC VM run forced no VM exits")
	}
	if virt <= native {
		t.Fatalf("virtualised CC (%d) not slower than native CC (%d)", virt, native)
	}
	t.Logf("native CC=%d, virtualised CC=%d (%.2fx), exits=%d",
		native, virt, float64(virt)/float64(native), vm.VMExits())
}

func nativeCycles(t *testing.T) (uint64, error) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Mode: core.ModeCC, Replicas: 2, TickCycles: 20_000,
	})
	if err != nil {
		return 0, err
	}
	p := guest.Whetstone(150)
	prog, err := p.Build().Assemble(kernel.TextVA)
	if err != nil {
		return 0, err
	}
	if err := sys.Load(kernel.ProcessConfig{
		Prog: prog, DataBytes: p.DataBytes, Stacks: p.Stacks,
	}); err != nil {
		return 0, err
	}
	if err := sys.Run(3_000_000_000); err != nil {
		return 0, err
	}
	return sys.Machine().Now(), nil
}

func TestVMRequiresHypervisorSupport(t *testing.T) {
	_, err := Launch(GuestConfig{
		System:  core.Config{Mode: core.ModeCC, Replicas: 2, Profile: machine.Arm()},
		Program: guest.Dhrystone(100),
	})
	if err == nil {
		t.Fatalf("arm profile has no hypervisor mode; launch should fail")
	}
}

// TestCCVMForcedCompilerCounting launches a CC-DMR guest on x86 that
// counts branches in the reserved register: Launch must instrument the
// guest and hand core its branch sites.
func TestCCVMForcedCompilerCounting(t *testing.T) {
	vm, err := Launch(GuestConfig{
		System: core.Config{
			Mode: core.ModeCC, Replicas: 2, TickCycles: 20_000,
			Profile: machine.X86(), ForceCompilerCounting: true,
		},
		Program: guest.Dhrystone(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if ds := vm.System().Detections(); len(ds) != 0 {
		t.Fatalf("detections: %v", ds)
	}
}
