// Package rcoe is the public interface to the RCoE reproduction: redundant
// co-execution of a complete software stack on a simulated COTS multicore,
// after "Fault Tolerance Through Redundant Execution on COTS Multicores:
// Exploring Trade-Offs" (DSN 2019).
//
// The package re-exports the building blocks a user needs:
//
//   - configure and build a replicated system (New, Config, Mode);
//   - write guest programs against the simulated ISA (NewProgram / the
//     asm builder) or use the stock workloads (Dhrystone, Whetstone, the
//     key-value server, MD5, SPLASH kernels);
//   - run the paper's experiments (Experiments, RunExperiment);
//   - run fault-injection campaigns (MemCampaign, RegCampaign,
//     HardCampaign, RecoveryTrial, SurvivalTrial, Soak);
//   - drive the Redis-stand-in system benchmark (RunKV);
//   - compose replicated nodes into a sharded cluster with
//     consistent-hash routing and state-transfer failover (RunCluster,
//     ClusterFailoverDrill — see cmd/rcoe-cluster);
//   - record per-replica flight-recorder traces and metrics for
//     divergence forensics (TraceConfig, MetricsSnapshot,
//     CaptureForensics — see cmd/rcoe-trace).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package rcoe

import (
	"rcoe/internal/asm"
	"rcoe/internal/bench"
	"rcoe/internal/cluster"
	"rcoe/internal/compilerpass"
	"rcoe/internal/core"
	"rcoe/internal/exp"
	"rcoe/internal/faults"
	"rcoe/internal/guest"
	"rcoe/internal/harness"
	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/stats"
	"rcoe/internal/trace"
	"rcoe/internal/vmm"
	"rcoe/internal/workload"
)

// Replication modes and configuration.
type (
	// Config describes a replicated system (mode, replica count,
	// signature configuration, machine profile, timer period, masking).
	Config = core.Config
	// Mode selects the coupling model: ModeNone, ModeLC, ModeCC.
	Mode = core.Mode
	// SigConfig selects signature effort: SigIO ("N"), SigArgs ("A"),
	// SigSync ("S").
	SigConfig = core.SigConfig
	// System is a replicated (or baseline) software stack.
	System = core.System
	// Detection records one error-detection event.
	Detection = core.Detection
	// Profile describes a machine profile.
	Profile = machine.Profile
	// ParkStats is System.Machine().ParkStats(): how many cycles parked
	// cores spent polling a barrier, and how many of those polls had to
	// evaluate its condition — the sync-point wait signal. Host-side
	// diagnostics, never part of an artifact.
	ParkStats = machine.ParkStats
)

// Re-exported mode and signature constants.
const (
	ModeNone = core.ModeNone
	ModeLC   = core.ModeLC
	ModeCC   = core.ModeCC

	SigIO   = core.SigIO
	SigArgs = core.SigArgs
	SigSync = core.SigSync
)

// X86 returns the profile standing in for the paper's Core i7-6700.
func X86() Profile { return machine.X86() }

// Arm returns the profile standing in for the paper's SABRE Lite
// (i.MX6 / Cortex-A9).
func Arm() Profile { return machine.Arm() }

// New builds a replicated system from a configuration.
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Guest programs.
type (
	// Program is a guest workload for the simulated ISA.
	Program = guest.Program
	// Builder is the assembly builder guest programs are written with.
	Builder = asm.Builder
)

// NewBuilder creates an empty assembly builder.
func NewBuilder() *Builder { return asm.New() }

// RewriteAtomics replaces canonical load-linked/store-conditional retry
// loops with the kernel-mediated atomic system call, as compiler-assisted
// CC-RCoE requires (§III-D). It returns the number of loops rewritten.
func RewriteAtomics(b *Builder) int { return compilerpass.RewriteAtomics(b) }

// Stock workloads from the paper's evaluation.
var (
	// Dhrystone builds the integer microbenchmark (Table II).
	Dhrystone = guest.Dhrystone
	// Whetstone builds the floating-point microbenchmark (Table II).
	Whetstone = guest.Whetstone
	// Membench builds the memory-bandwidth benchmark (Table V).
	Membench = guest.Membench
	// DataRace builds the racy-counter demonstrator (§V-A1).
	DataRace = guest.DataRace
	// AtomicCounter is DataRace's race-free, kernel-mediated variant.
	AtomicCounter = guest.AtomicCounter
	// MD5 builds the md5sum workload (Table VIII); pad input with MD5Pad.
	MD5 = guest.MD5
	// MD5Pad applies standard MD5 padding.
	MD5Pad = guest.MD5Pad
	// SplashSuite returns the fourteen SPLASH-2-style kernels (Table IV).
	SplashSuite = guest.SplashSuite
)

// Load assembles a program for the system's configuration — applying the
// compiler branch-counting pass when the configuration needs it — and
// loads it into every replica. Prefer BuildSystem, which sizes the system
// for the program; Load exists for pre-built systems whose configuration
// already matches.
func Load(sys *System, p Program) error {
	cfg := sys.Config()
	pc, err := guest.Assemble(&cfg, p)
	if err != nil {
		return err
	}
	return sys.Load(pc)
}

// BuildSystem creates a system sized for the program and loads it, ready
// to Run.
func BuildSystem(cfg Config, p Program) (*System, error) { return guest.Boot(cfg, p) }

// Virtual machines (Tables III/IV).
type (
	// VM is a guest running on the replicated hypervisor.
	VM = vmm.VM
	// GuestConfig configures a VM launch.
	GuestConfig = vmm.GuestConfig
)

// LaunchVM boots a guest program in a virtual-machine context.
func LaunchVM(cfg GuestConfig) (*VM, error) { return vmm.Launch(cfg) }

// The key-value system benchmark (Fig 3, Tables VII/IX).
type (
	// KVOptions configures a Redis-stand-in benchmark run.
	KVOptions = harness.KVOptions
	// KVResult is its outcome.
	KVResult = harness.KVResult
	// WorkloadKind selects the YCSB mix (workload A-F).
	WorkloadKind = workload.Kind
)

// YCSB workload kinds.
const (
	YCSBA = workload.YCSBA
	YCSBB = workload.YCSBB
	YCSBC = workload.YCSBC
	YCSBD = workload.YCSBD
	YCSBE = workload.YCSBE
	YCSBF = workload.YCSBF
)

// RunKV runs the replicated key-value server under YCSB-style load.
func RunKV(opts KVOptions) (KVResult, error) { return harness.RunKV(opts) }

// The sharded cluster (see cmd/rcoe-cluster and DESIGN.md §4j).
type (
	// Node is one self-contained replicated key-value server — the unit
	// the cluster composes and the state-transfer boundary of shard
	// failover.
	Node = harness.Node
	// NodeOptions configures a node boot.
	NodeOptions = harness.NodeOptions
	// ClusterOptions configures a sharded cluster run: shard count,
	// per-shard replication, the partitioned YCSB workload and the
	// client-stream layout.
	ClusterOptions = cluster.Options
	// ClusterResult is a cluster run's outcome, including the
	// acknowledged-write audit and per-shard statistics.
	ClusterResult = cluster.Result
	// Cluster is a constructed, steppable sharded system (failover,
	// per-shard redundancy control, checkpointing).
	Cluster = cluster.Cluster
	// ClusterRing is the consistent-hash router partitioning the
	// keyspace over shards.
	ClusterRing = cluster.Ring
	// ClusterArtifact is the rcoe-cluster/v1 result artifact.
	ClusterArtifact = cluster.Artifact
)

// NewNode boots one replicated key-value server node.
func NewNode(opts NodeOptions) (*Node, error) { return harness.NewNode(opts) }

// NewCluster builds a sharded cluster ready to step or Run.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// RunCluster runs a sharded cluster end to end: preload, run phase, and
// the acknowledged-write audit.
func RunCluster(opts ClusterOptions) (ClusterResult, error) { return cluster.Run(opts) }

// ClusterBench sweeps the standard per-shard replication configurations
// over one cluster shape, fanned across host workers; worker count
// never changes the artifact.
func ClusterBench(opts cluster.BenchOptions) (*ClusterArtifact, error) {
	return cluster.Bench(opts)
}

// ClusterFailoverDrill kills shard nodes mid-run, transfers state to
// fresh nodes, and audits that no acknowledged write was lost.
func ClusterFailoverDrill(opts cluster.FailoverOptions) (*ClusterArtifact, error) {
	return cluster.FailoverDrill(opts)
}

// Fault injection (Tables VII-X, Fig 4).
type (
	// MemCampaignOptions configures random memory-fault campaigns.
	MemCampaignOptions = faults.MemCampaignOptions
	// RegCampaignOptions configures register-fault campaigns on md5.
	RegCampaignOptions = faults.RegCampaignOptions
	// RecoveryOptions configures TMR-downgrade measurements.
	RecoveryOptions = faults.RecoveryOptions
	// Outcome classifies a fault trial.
	Outcome = faults.Outcome
	// FaultClass selects a hard-fault model (transient, stuck-at, burst,
	// intermittent, device).
	FaultClass = faults.FaultClass
	// FaultTally accumulates fault-trial outcomes per campaign.
	FaultTally = faults.Tally
	// FaultCategory is a dependability-taxonomy bucket (SDC, detected-
	// corrected, detected-uncorrected, masked).
	FaultCategory = faults.Category
	// HardCampaignOptions configures the hard-fault characterization
	// study across fault classes.
	HardCampaignOptions = faults.HardCampaignOptions
	// SurvivalOptions configures a permanent-fault survival trial.
	SurvivalOptions = faults.SurvivalOptions
	// SurvivalResult reports a permanent-fault survival trial.
	SurvivalResult = faults.SurvivalResult
	// SoakOptions configures the chaos-soak campaign.
	SoakOptions = faults.SoakOptions
	// SoakResult summarises a chaos-soak campaign.
	SoakResult = faults.SoakResult
	// SoakCycleReport reports one chaos-soak fault cycle.
	SoakCycleReport = faults.SoakCycle
	// SoakSweepOptions configures a sweep of independent soak campaigns
	// fanned across host cores.
	SoakSweepOptions = faults.SoakSweepOptions
	// SoakSweepResult aggregates a soak sweep, ordered by campaign index.
	SoakSweepResult = faults.SoakSweepResult
)

// Hard-fault classes (HardCampaignOptions.Classes).
const (
	ClassTransient    = faults.ClassTransient
	ClassStuckAt      = faults.ClassStuckAt
	ClassBurst        = faults.ClassBurst
	ClassIntermittent = faults.ClassIntermittent
	ClassDevice       = faults.ClassDevice
)

// Dependability-taxonomy categories (Categorize, Tally.Categories).
const (
	CategorySDC                 = faults.CategorySDC
	CategoryDetectedCorrected   = faults.CategoryDetectedCorrected
	CategoryDetectedUncorrected = faults.CategoryDetectedUncorrected
	CategoryMasked              = faults.CategoryMasked
)

// AllFaultClasses returns every hard-fault class in canonical order.
func AllFaultClasses() []FaultClass { return faults.AllClasses() }

// AllFaultCategories returns every taxonomy category in canonical order.
func AllFaultCategories() []FaultCategory { return faults.AllCategories() }

// ParseFaultClasses parses a comma-separated class list ("all" selects
// every class).
func ParseFaultClasses(s string) ([]FaultClass, error) { return faults.ParseClasses(s) }

// CategorizeOutcome maps a trial outcome into the SDC taxonomy.
func CategorizeOutcome(o Outcome) FaultCategory { return faults.Categorize(o) }

// Resilience-lifecycle sentinels, composable with errors.Is.
var (
	// ErrReintegrate wraps every live re-integration precondition failure.
	ErrReintegrate = core.ErrReintegrate
	// ErrNoDowngrade is returned by RecoveryTrial when no downgrade
	// occurred.
	ErrNoDowngrade = faults.ErrNoDowngrade
	// ErrNoEjection is returned by Soak when an injected stall was not
	// resolved by straggler ejection.
	ErrNoEjection = faults.ErrNoEjection
	// ErrTraceDisabled wraps forensics requests against a system built
	// without Config.Trace.Enabled.
	ErrTraceDisabled = core.ErrTraceDisabled
)

// Flight recorder & divergence forensics.
type (
	// TraceConfig enables the per-replica flight recorder (Config.Trace).
	TraceConfig = core.TraceConfig
	// TraceRecorder holds the per-replica and system event rings.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded event (kind, logical time, cycle, args).
	TraceEvent = trace.Event
	// TraceDivergence locates the first disagreeing event across replica
	// streams aligned by logical time.
	TraceDivergence = trace.Divergence
	// DivergenceReport is the frozen forensic bundle a detection captures.
	DivergenceReport = core.DivergenceReport
	// ReplicaForensics is one replica's architectural state in a report.
	ReplicaForensics = core.ReplicaForensics
	// MetricsSnapshot is a point-in-time copy of the system's counters
	// and histograms, renderable with its Table method.
	MetricsSnapshot = metrics.Snapshot
)

// FirstDivergence aligns replica event streams by logical time and
// locates the first disagreeing event.
func FirstDivergence(streams [][]TraceEvent) TraceDivergence {
	return trace.FirstDivergence(streams)
}

// SaveTrace writes a recorder's rings to a trace file cmd/rcoe-trace can
// dump, diff and summarize.
func SaveTrace(path string, rec *TraceRecorder) error { return rec.SaveFile(path) }

// LoadTrace reads a trace file written by SaveTrace.
func LoadTrace(path string) (*TraceRecorder, error) { return trace.LoadFile(path) }

// MemCampaign runs the Table VII memory fault-injection study.
func MemCampaign(opts MemCampaignOptions) (*FaultTally, error) {
	return faults.MemCampaign(opts)
}

// RegCampaign runs the Table VIII register fault-injection study.
func RegCampaign(opts RegCampaignOptions) (faults.RegTally, error) {
	return faults.RegCampaign(opts)
}

// RecoveryTrial measures one TMR->DMR downgrade (Table X / Fig 4).
func RecoveryTrial(opts RecoveryOptions) (faults.RecoveryResult, error) {
	return faults.RecoveryTrial(opts)
}

// HardCampaign runs the hard-fault characterization study: per fault
// class, outcomes tallied for the SDC/detected/masked taxonomy.
func HardCampaign(opts HardCampaignOptions) (map[FaultClass]*FaultTally, error) {
	return faults.HardCampaign(opts)
}

// SurvivalTrial runs one permanent-fault survival measurement: a stuck-at
// bit in a replica's signature accumulator that no overwrite can clear.
func SurvivalTrial(opts SurvivalOptions) (SurvivalResult, error) {
	return faults.SurvivalTrial(opts)
}

// Soak runs the chaos-soak campaign: repeated randomized faults against a
// masking TMR key-value system, with straggler ejection and live
// re-integration after every downgrade.
func Soak(opts SoakOptions) (SoakResult, error) { return faults.Soak(opts) }

// SoakSweep fans independent chaos-soak campaigns across host cores on
// the experiment engine and aggregates them; per-campaign seeds derive
// from the template's seed, so results are identical at any worker count.
func SoakSweep(opts SoakSweepOptions) (SoakSweepResult, error) {
	return faults.SoakSweep(opts)
}

// Experiments: the paper's tables and figures.
type (
	// Experiment is one reproducible table/figure.
	Experiment = bench.Experiment
	// Scale selects Quick or Full experiment sizing.
	Scale = bench.Scale
	// Table is a rendered result table.
	Table = stats.Table
)

// Experiment scales.
const (
	Quick = bench.Quick
	Full  = bench.Full
)

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return bench.All() }

// SetParallelism sets the experiment engine's host worker-pool size used
// by experiments, fault campaigns and soak sweeps (n < 1 restores the
// default, the host core count). Worker count is a host-side throughput
// knob only: campaigns produce identical results at any setting.
func SetParallelism(n int) { exp.SetDefaultWorkers(n) }

// Parallelism returns the engine's current host worker-pool size.
func Parallelism() int { return exp.DefaultWorkers() }

// DeriveSeed mixes a campaign master seed and a job index into a
// statistically independent, reproducible per-job seed (the engine's
// splitmix64 derivation).
func DeriveSeed(master uint64, index int) uint64 { return exp.DeriveSeed(master, index) }

// RunExperiment runs one experiment by ID ("table2", "fig3", ...).
func RunExperiment(id string, s Scale) (*Table, error) {
	e, ok := bench.Lookup(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(s)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "rcoe: unknown experiment " + string(e)
}
