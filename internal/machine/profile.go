// Package machine implements the deterministic multicore machine on which
// the replicated software stacks run.
//
// The machine stands in for the paper's COTS hardware (an Intel Core
// i7-6700 and an i.MX6 quad Cortex-A9). It provides the architectural
// features RCoE depends on — per-core cycle counters, a user-mode branch
// counter (PMU), instruction breakpoints with or without a resume flag,
// inter-processor interrupts, MMIO devices with DMA — and a simple
// cache/bus cost model that reproduces the memory-bandwidth contention the
// paper measures in Table V.
//
// Cores are stepped round-robin, one instruction-issue opportunity per
// global cycle. Per-core deterministic jitter makes replicas drift apart
// slightly, as real COTS cores do: this is the nondeterminism LC-RCoE must
// tolerate and that exposes data races (paper §V-A1).
//
// A parked core is polled once per stepped cycle. Every park declares what
// its condition reads and when time alone can make it true, and has the
// condition evaluated only when one of those inputs can have changed; see
// Core.Park.
//
// Hot straight-line code runs through the superblock engine
// (superblock.go, SetSuperblock): predecoded branch-to-branch runs executed
// in a batched loop. Inside a batch the cores are not interleaved cycle by
// cycle where nothing can tell the difference. A core may run ahead of the
// machine's clock while everything it touches is its own — its registers,
// its cache's resident lines, RAM pages no other core maps, text no other
// core can write — and whatever could observe it rewinds it first: the
// kernel at a trap, a device at an MMIO access, a park condition, the host
// when Run or RunUntil returns. The run is then undone and replayed up to
// the observed cycle, and put back afterwards when the observer left it
// alone. And while every other core is ahead, the one core that is not runs
// alone at the machine's clock, any instruction, with the others' credits
// settled by arithmetic. The same bulk credit carries idle windows: when
// every core is parked, halted or counting down a stall, the batch jumps to
// the first cycle at which anything can happen: every device declares its
// next event cycle (Device.NextEvent). Naive
// stepping (every accelerator off) stays the reference the differential
// suites compare against.
//
// RunUntil's condition must depend only on state that kernel, host or
// device code mutates, never on what a core changes by merely executing:
// the accelerators evaluate it only where such code can have run.
package machine

// AtomicModel selects the atomic-instruction family a profile supports.
type AtomicModel int

// Atomic models. LLSC machines pair load-linked with store-conditional in
// retry loops (Armv7 ldrex/strex); CAS machines have single-instruction
// compare-and-swap (x86 lock cmpxchg).
const (
	AtomicLLSC AtomicModel = iota + 1
	AtomicCAS
)

// Costs is the cycle cost model for one machine profile.
type Costs struct {
	// Simple ALU ops and branches.
	Int int
	// Multiply / divide.
	Mul int
	Div int
	// Floating-point add/mul, divide/sqrt, transcendental.
	FPSimple int
	FPDiv    int
	FPTrans  int
	// Cache hit (load/store) and per-line miss penalty on top of bus
	// arbitration.
	MemHit  int
	MemMiss int
	// Kernel entry/exit (trap cost), interrupt delivery, IPI latency.
	KernelEntry int
	IRQDeliver  int
	IPILatency  int
	// Debug exception handling; machines without a resume flag pay a
	// second (mismatch) exception per breakpoint.
	DebugException int
	// VM exit/entry round trip and guest page-table walk.
	VMExit    int
	GuestWalk int
}

// Profile describes one machine configuration; the two stock profiles
// mirror the evaluation platforms in the paper and differ in exactly the
// features the paper calls out.
type Profile struct {
	// Name identifies the profile ("x86" or "arm").
	Name string
	// Cores is the number of CPU cores.
	Cores int
	// PrecisePMU reports whether the PMU counts user-mode branches
	// exactly (Intel's BR_INST_RETIRED minus far branches). Without it,
	// CC-RCoE must use compiler-inserted counting on a reserved register.
	PrecisePMU bool
	// HasResumeFlag reports whether a breakpoint can be stepped over
	// without a second debug exception (the x86 RF flag).
	HasResumeFlag bool
	// HasSparePTEBit reports whether mappings have a spare bit for
	// marking DMA buffers, required for CC error masking (§IV-A).
	HasSparePTEBit bool
	// Atomics selects the atomic instruction family.
	Atomics AtomicModel
	// CacheBytes is the per-core cache capacity; CacheLine its line size.
	CacheBytes int
	CacheLine  int
	// BusBytesPerCycle is the memory-bus bandwidth shared by all cores.
	// CoreBytesPerCycle caps a single core's demand; when it is lower
	// than the bus bandwidth, one core cannot saturate the bus (the Arm
	// behaviour in Table V).
	BusBytesPerCycle  int
	CoreBytesPerCycle int
	// MemCopyChunk is the bytes a block op moves per issue slot.
	MemCopyChunk int
	// JitterShift sets deterministic per-core skew: a core pays one
	// extra stall cycle with probability 2^-JitterShift per issue.
	JitterShift uint
	// Costs is the cycle cost model.
	Costs Costs
}

// X86 returns the machine profile standing in for the paper's Core
// i7-6700 platform.
func X86() Profile {
	return Profile{
		Name:           "x86",
		Cores:          4,
		PrecisePMU:     true,
		HasResumeFlag:  true,
		HasSparePTEBit: true,
		Atomics:        AtomicCAS,
		CacheBytes:     1 << 21, // 2 MiB per core (8 MiB LLC / 4)
		CacheLine:      64,
		// One core's streaming demand equals the bus bandwidth, so a
		// single replica saturates memory and DMR/TMR divide it.
		BusBytesPerCycle:  16,
		CoreBytesPerCycle: 16,
		MemCopyChunk:      64,
		JitterShift:       5,
		Costs: Costs{
			Int: 1, Mul: 3, Div: 12,
			FPSimple: 3, FPDiv: 14, FPTrans: 40,
			MemHit: 1, MemMiss: 30,
			KernelEntry: 150, IRQDeliver: 300, IPILatency: 400,
			DebugException: 300,
			VMExit:         1500, GuestWalk: 600,
		},
	}
}

// Arm returns the machine profile standing in for the paper's SABRE Lite
// (i.MX6, quad Cortex-A9) platform.
func Arm() Profile {
	return Profile{
		Name:           "arm",
		Cores:          4,
		PrecisePMU:     false, // no accurate branch events on Armv7-A
		HasResumeFlag:  false, // pays a mismatch exception per breakpoint
		HasSparePTEBit: false, // no spare PTE bit on Cortex-A9 (§IV-A)
		Atomics:        AtomicLLSC,
		CacheBytes:     1 << 18, // 256 KiB per core (1 MiB L2 / 4)
		CacheLine:      32,
		// A single core can demand less than half the bus, so replicas
		// contend only mildly (the Table V Arm behaviour).
		BusBytesPerCycle:  16,
		CoreBytesPerCycle: 6,
		MemCopyChunk:      32,
		JitterShift:       5,
		Costs: Costs{
			Int: 1, Mul: 4, Div: 20,
			FPSimple: 4, FPDiv: 20, FPTrans: 60,
			MemHit: 1, MemMiss: 40,
			KernelEntry: 120, IRQDeliver: 250, IPILatency: 350,
			DebugException: 350,
			VMExit:         0, GuestWalk: 0, // no hypervisor mode (§V-A3)
		},
	}
}

// ProfileByName returns the shipped profile called name ("x86" or "arm"),
// and whether there is one.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "x86":
		return X86(), true
	case "arm":
		return Arm(), true
	}
	return Profile{}, false
}
