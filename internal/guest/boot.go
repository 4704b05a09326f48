package guest

import (
	"fmt"

	"rcoe/internal/compilerpass"
	"rcoe/internal/core"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
)

// Assemble builds p for cfg and returns the process to load. It is the one
// place a program meets the branch-counting pass: it defaults cfg's
// profile to x86 and, when cfg.CompilerCounting(), instruments the program
// and sets cfg.BranchSites to its instrumented branches. Every other field
// of cfg, PartitionBytes included, is left as the caller set it.
func Assemble(cfg *core.Config, p Program) (kernel.ProcessConfig, error) {
	if cfg.Profile.Name == "" {
		cfg.Profile = machine.X86()
	}
	b := p.Build()
	counting := cfg.CompilerCounting()
	if counting {
		compilerpass.Instrument(b)
	}
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		return kernel.ProcessConfig{}, fmt.Errorf("guest: assemble %s: %w", p.Name, err)
	}
	if counting {
		cfg.BranchSites = compilerpass.BranchSites(prog, kernel.TextVA)
	}
	return kernel.ProcessConfig{
		Prog: prog, DataBytes: p.DataBytes, Data: p.Data, Arg: p.Arg, Stacks: p.Stacks,
		Relocs: b.Relocs(),
	}, nil
}

// Boot assembles p for cfg, creates the replicated system and loads the
// program into every replica, ready to Run. A PartitionBytes of 0 becomes
// the smallest power of two of at least 1 MiB that holds the program's
// data plus 2 MiB for text, stacks and the kernel area.
func Boot(cfg core.Config, p Program) (*core.System, error) {
	pc, err := Assemble(&cfg, p)
	if err != nil {
		return nil, err
	}
	if cfg.PartitionBytes == 0 {
		cfg.PartitionBytes = 1 << 20
		for cfg.PartitionBytes < p.DataBytes+2<<20 {
			cfg.PartitionBytes <<= 1
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Load(pc); err != nil {
		return nil, err
	}
	return sys, nil
}
