package main

// replay.go implements the replay-triage subcommand: reproduce a detected
// divergence by restoring the last periodic checkpoint into a system with
// the flight recorder at full verbosity, re-applying the recorded fault,
// and re-deriving the first-divergence report. A production run keeps
// cheap, small rings; when something diverges, replay recovers the exact
// first divergent instruction without having paid for deep tracing up
// front.

import (
	"flag"
	"fmt"
	"os"

	"rcoe/internal/asm"
	"rcoe/internal/core"
	"rcoe/internal/kernel"
	"rcoe/internal/snapshot"
	"rcoe/internal/trace"
)

// traceSystemConfig is the replicated configuration the record and replay
// subcommands share; only the ring capacity varies between the production
// and replay phases.
func traceSystemConfig(m core.Mode, replicas, events int) core.Config {
	return core.Config{
		Mode: m, Replicas: replicas, TickCycles: 20_000,
		Sig: core.SigArgs, Masking: replicas >= 3, BarrierTimeout: 300_000,
		Trace: core.TraceConfig{Enabled: true, RingEvents: events},
	}
}

// ftTraceLoop is the replay workload: each iteration feeds the loop
// counter through FT_Add_Trace, so it is hashed into the vote signature
// and any corruption of it is detected at the next synchronisation — the
// prompt-detection substrate the checkpoint/replay window needs (the null
// syscall hashes no arguments, so a counter flip there only surfaces at
// loop exit).
func ftTraceLoop(n uint64) (kernel.ProcessConfig, error) {
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, n)
	b.Label("loop")
	b.Addi(1, 5, 0)
	b.Li(2, 0)
	b.Syscall(kernel.SysFTAddTrace)
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "loop")
	b.Li(1, 0)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		return kernel.ProcessConfig{}, err
	}
	return kernel.ProcessConfig{Prog: prog, DataBytes: 1 << 16}, nil
}

func buildTraceSystem(cfg core.Config, ops uint64) (*core.System, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	proc, err := ftTraceLoop(ops)
	if err != nil {
		return nil, err
	}
	if err := sys.Load(proc); err != nil {
		return nil, err
	}
	return sys, nil
}

// replayStudy is the outcome of one production run plus its replay.
type replayStudy struct {
	// ProdReport is the production system's frozen forensic report (nil
	// if the injected flips were never detected).
	ProdReport *core.DivergenceReport
	// ReplayReport is the forensic report captured by the re-run from the
	// checkpoint (nil if replay failed to reproduce the detection).
	ReplayReport *core.DivergenceReport
	// ReplayDivergence is the first-divergence analysis over the replay
	// window (the replay rings cover only the post-checkpoint run, so the
	// streams are trimmed to their common window first).
	ReplayDivergence trace.Divergence
	// Checkpoint is the cycle of the checkpoint the replay started from;
	// FlipCycle the cycle the replayed flip was applied at.
	Checkpoint uint64
	FlipCycle  uint64
	// Rounds is how many flip attempts the production run needed (a flip
	// can land while the value is dead and be silently overwritten).
	Rounds int
}

// replayWindowDivergence aligns streams recorded from a mid-run restore
// point. Each replay ring begins at the restore cycle with only partial
// coverage of its first logical time — a replica may have executed that
// LC's events just before the checkpoint was taken — so the comparison
// starts strictly after the newest first-retained LC across streams.
func replayWindowDivergence(streams [][]trace.Event) trace.Divergence {
	var start uint64
	for _, s := range streams {
		for _, ev := range s {
			if ev.Kind.Comparable() {
				if ev.LC > start {
					start = ev.LC
				}
				break
			}
		}
	}
	trimmed := make([][]trace.Event, len(streams))
	for i, s := range streams {
		k := 0
		for k < len(s) && s[k].LC <= start {
			k++
		}
		trimmed[i] = s[k:]
	}
	return trace.FirstDivergence(trimmed)
}

// runReplayStudy drives the production system with periodic checkpoints,
// corrupting a register of the chosen replica once per period until the
// divergence is detected, then replays from the last pre-detection
// checkpoint under the replay configuration. The two configurations must
// agree behaviorally; only host-side settings (ring capacity) may differ.
func runReplayStudy(prodCfg, replayCfg core.Config, ops uint64, flip int, every uint64) (replayStudy, error) {
	var st replayStudy
	sys, err := buildTraceSystem(prodCfg, ops)
	if err != nil {
		return st, err
	}
	sys.RunCycles(100_000) // past boot: flips should land in live user state

	detected := func(s *core.System) bool {
		if halted, _ := s.Halted(); halted {
			return true
		}
		return s.AliveCount() < prodCfg.Replicas
	}
	var cp []byte
	for round := 0; round < 200 && !detected(sys) && !sys.Finished(); round++ {
		st.Rounds = round + 1
		if cp, err = snapshot.Save(sys); err != nil {
			return st, err
		}
		st.Checkpoint = sys.Machine().Now()
		// Flip mid-interval, not at the checkpoint itself: the replicas run
		// skewed by a few hundred cycles, so a fault at the checkpoint cycle
		// can diverge an event some replica already executed just before the
		// save — an event the replay window then cannot contain. Half a
		// period of run-up keeps every replica's divergent events strictly
		// inside the window.
		sys.RunCycles(every / 2)
		if detected(sys) || sys.Finished() {
			break
		}
		st.FlipCycle = sys.Machine().Now()
		sys.Replica(flip).Core().Regs[5] ^= 1
		sys.RunCycles(every - every/2)
	}
	st.ProdReport = sys.TakeDivergenceReport()
	if st.ProdReport == nil {
		return st, nil
	}

	rep, err := buildTraceSystem(replayCfg, ops)
	if err != nil {
		return st, err
	}
	if err := snapshot.Restore(rep, cp); err != nil {
		return st, fmt.Errorf("restore checkpoint: %w", err)
	}
	// The restored recorder re-records from this point into the replay
	// rings; run up to the recorded fault cycle (RunCycles is cycle-exact),
	// re-apply the flip, and run to the (deterministic) detection. A flip
	// cycle before the checkpoint means detection crossed a checkpoint
	// boundary: the corruption is already inside the restored state, so
	// nothing is re-applied.
	if st.FlipCycle >= st.Checkpoint {
		if d := st.FlipCycle - rep.Machine().Now(); d > 0 {
			rep.RunCycles(d)
		}
		rep.Replica(flip).Core().Regs[5] ^= 1
	}
	deadline := rep.Machine().Now() + 4*every + 2_000_000
	for !detected(rep) && !rep.Finished() && rep.Machine().Now() < deadline {
		rep.RunCycles(every/4 + 1)
	}
	st.ReplayReport = rep.TakeDivergenceReport()
	if st.ReplayReport != nil && st.ReplayReport.Trace != nil {
		st.ReplayDivergence = replayWindowDivergence(st.ReplayReport.Trace.Streams())
	}
	return st, nil
}

// sameDivergentInstruction reports whether two first-divergence analyses
// blame the same instruction: same logical time, same odd replica, and
// the same per-replica events at the divergence point. Ring-local fields
// (Index, Compared, AlignedFrom) are expected to differ — the replay rings
// only cover the post-checkpoint window.
func sameDivergentInstruction(a, b trace.Divergence) bool {
	if !a.Found || !b.Found || a.LC != b.LC || a.Replica != b.Replica ||
		len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Missing[i] != b.Missing[i] {
			return false
		}
		if a.Missing[i] {
			continue
		}
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.LC != eb.LC || ea.Branches != eb.Branches ||
			ea.IP != eb.IP || ea.Arg1 != eb.Arg1 || ea.Arg2 != eb.Arg2 {
			return false
		}
	}
	return true
}

func runReplay(args []string) int {
	fs := flag.NewFlagSet("rcoe-trace replay", flag.ExitOnError)
	mode := fs.String("mode", "lc", "replication mode: lc or cc")
	replicas := fs.Int("replicas", 3, "replica count")
	ops := fs.Uint64("ops", 60_000, "syscalls the workload performs")
	flip := fs.Int("flip", 0, "replica whose loop register to corrupt")
	events := fs.Int("events", 512, "production ring capacity in events")
	replayEvents := fs.Int("replay-events", 1<<16, "replay ring capacity in events")
	every := fs.Uint64("every", 200_000, "checkpoint (and flip) period in cycles")
	out := fs.String("o", "", "save the replay trace to FILE")
	_ = fs.Parse(args)

	m, err := core.ParseMode(*mode)
	if err != nil || m == core.ModeNone {
		fmt.Fprintf(os.Stderr, "rcoe-trace: unknown mode %q\n", *mode)
		return 2
	}
	if *flip < 0 || *flip >= *replicas {
		fmt.Fprintf(os.Stderr, "rcoe-trace replay: no replica %d to flip\n", *flip)
		return 2
	}
	prodCfg := traceSystemConfig(m, *replicas, *events)
	replayCfg := traceSystemConfig(m, *replicas, *replayEvents)
	st, err := runReplayStudy(prodCfg, replayCfg, *ops, *flip, *every)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcoe-trace: %v\n", err)
		return 1
	}
	if st.ProdReport == nil {
		fmt.Println("flip was never detected (masked/dead value); nothing to replay")
		return 1
	}
	fmt.Printf("production detection after %d flip round(s):\n%s\n\n", st.Rounds, st.ProdReport)
	fmt.Printf("replaying from checkpoint at cycle %d (flip at %d) with %d-event rings...\n\n",
		st.Checkpoint, st.FlipCycle, *replayEvents)
	if st.ReplayReport == nil {
		fmt.Println("replay did not reproduce the detection")
		return 1
	}
	fmt.Printf("replay analysis:\n%s\n\n", st.ReplayDivergence)
	if *out != "" {
		if err := st.ReplayReport.Trace.SaveFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "rcoe-trace: save: %v\n", err)
			return 1
		}
		fmt.Printf("replay trace saved to %s\n", *out)
	}
	prodDiv, replayDiv := st.ProdReport.Divergence, st.ReplayDivergence
	switch {
	case sameDivergentInstruction(prodDiv, replayDiv):
		fmt.Println("replay confirms the production analysis: same first divergent instruction")
		return 0
	case prodDiv.Truncated && replayDiv.Found:
		// The production rings wrapped past the divergence point; the
		// replay ran with full-depth rings from the checkpoint, so its
		// (earlier) divergence is the authoritative one.
		fmt.Println("production rings wrapped; the replay analysis above is authoritative")
		return 0
	default:
		fmt.Println("replay analysis disagrees with the production report")
		return 1
	}
}
