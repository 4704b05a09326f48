package harness

import (
	"errors"
	"fmt"

	"rcoe/internal/compilerpass"
	"rcoe/internal/core"
	"rcoe/internal/device"
	"rcoe/internal/guest"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
	"rcoe/internal/metrics"
	"rcoe/internal/snapshot"
)

// Node is one self-contained replicated key-value server: a replicated
// system (DMR or TMR internally), its NIC, and the server program — the
// paper's single machine, packaged so that N of them can be composed into
// a sharded cluster (internal/cluster). The boundary deliberately exposes
// exactly what a cluster layer needs and nothing more:
//
//   - boot (NewNode) and time (RunCycles/Now/Halted);
//   - frame service over the netstack protocol: InjectRetained and
//     DrainResponses, the pair a Window drives the node through, and the
//     copying Inject and TakeResponses for one-off callers;
//   - state transfer (SaveState/LoadState, the snapshot.Snapshotter
//     boundary from the checkpoint/restore subsystem, and CopyFrom, the
//     live node-to-node copy behind cluster checkpoints);
//   - redundancy-mode control (InjectStall, RequestReintegrate,
//     AliveCount) so a policy layer can trade redundancy for throughput
//     per shard;
//   - observability (Metrics, Detections); Sys reaches the rest.
//
// The single-node KV benchmark (KVRun) is the degenerate composition: one
// Node behind one Window.
type Node struct {
	sys  *core.System
	nic  *device.NIC
	opts NodeOptions
}

// NodeOptions configures a node boot.
type NodeOptions struct {
	// System is the replication configuration of this node.
	System core.Config
	// Slots is the server hash-table size (power of two; 4096 when 0).
	Slots uint64
	// RequestBudget is the number of requests the server serves before
	// exiting cleanly. Closed-loop benchmarks size it exactly; serving
	// nodes over-provision it (0 selects a practically unbounded budget).
	RequestBudget uint64
	// TraceOutput controls FT_Add_Trace on responses (the -N
	// configurations of Table VII disable it).
	TraceOutput bool
}

// NewNode boots a replicated key-value server node: builds the server
// program for the configured coupling mode, assembles it, constructs the
// replicated system with its NIC, and loads every replica.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Slots == 0 {
		opts.Slots = 4096
	}
	if opts.RequestBudget == 0 {
		opts.RequestBudget = 1 << 32
	}
	driver := guest.DriverLC
	if opts.System.Mode == core.ModeCC {
		driver = guest.DriverCC
	}
	dmaBase, _ := core.DMARegion()
	nic := device.NewNIC(nicMMIOBase, dmaBase, NICLine)

	p := guest.KVApp(guest.KVConfig{
		Driver:      driver,
		Requests:    opts.RequestBudget,
		Slots:       opts.Slots,
		TraceOutput: opts.TraceOutput,
		IRQLine:     NICLine,
		RxFlagPA:    nic.RxFlagPA(),
		RxLenPA:     nic.RxLenPA(),
		RxDataPA:    nic.RxDataPA(),
		TxFlagPA:    nic.TxFlagPA(),
		TxLenPA:     nic.TxLenPA(),
		TxDataPA:    nic.TxDataPA(),
		DoorbellPA:  nicMMIOBase + device.RegTxDoorbell,
	})
	b := p.Build()
	cfg := opts.System
	if cfg.Profile.Name == "" {
		cfg.Profile = machine.X86()
	}
	if cfg.Mode == core.ModeCC && !cfg.Profile.PrecisePMU {
		compilerpass.Instrument(b)
	}
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		return nil, fmt.Errorf("harness: assemble kvapp: %w", err)
	}
	if cfg.Mode == core.ModeCC && !cfg.Profile.PrecisePMU {
		cfg.BranchSites = compilerpass.BranchSites(prog, kernel.TextVA)
	}
	if cfg.PartitionBytes == 0 {
		// Size the partition for the table plus text, stacks and the
		// kernel area.
		cfg.PartitionBytes = NextPow2(p.DataBytes + 640<<10)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	m := sys.Machine()
	m.MapMMIO(nicMMIOBase, device.NICWindowSize, nic)
	m.AddDevice(nic)
	sys.RegisterDeviceWindow(0, nicMMIOBase, device.NICWindowSize)
	if err := sys.Load(kernel.ProcessConfig{
		Prog: prog, DataBytes: p.DataBytes, Arg: p.Arg, Stacks: p.Stacks,
		Relocs: b.Relocs(),
	}); err != nil {
		return nil, err
	}
	n := &Node{sys: sys, nic: nic, opts: opts}
	// On a primary failover, free the RX mailbox the dead primary may
	// have left claimed so the NIC can resume delivery.
	sys.SetPrimaryChangeHook(func(int) {
		_ = sys.Machine().Mem().WriteU(nic.RxFlagPA(), 8, 0)
	})
	return n, nil
}

// Sys returns the replicated system (fault injectors and campaigns need
// raw access).
func (n *Node) Sys() *core.System { return n.sys }

// NIC returns the node's network interface.
func (n *Node) NIC() *device.NIC { return n.nic }

// Inject queues a request frame for delivery to the server.
func (n *Node) Inject(frame []byte) { n.nic.Inject(frame) }

// InjectRetained queues a frame without the defensive copy; the caller
// must not mutate the bytes (see device.NIC.InjectRetained).
func (n *Node) InjectRetained(frame []byte) { n.nic.InjectRetained(frame) }

// TakeResponses returns and clears the server's transmitted frames.
func (n *Node) TakeResponses() [][]byte { return n.nic.TakeResponses() }

// DrainResponses appends the server's transmitted frames to dst and
// clears the queue, reusing its capacity — the allocation-amortized
// TakeResponses for callers that poll every round.
func (n *Node) DrainResponses(dst [][]byte) [][]byte { return n.nic.DrainResponses(dst) }

// PendingRx returns the number of injected frames not yet delivered.
func (n *Node) PendingRx() int { return n.nic.PendingRx() }

// RunCycles advances the node's machine by n cycles (stopping early if the
// system halts or finishes).
func (n *Node) RunCycles(c uint64) { n.sys.RunCycles(c) }

// Now returns the node's machine cycle counter.
func (n *Node) Now() uint64 { return n.sys.Machine().Now() }

// Halted reports whether the node fail-stopped, with the reason.
func (n *Node) Halted() (bool, string) { return n.sys.Halted() }

// InjectStall marks a replica to hang at its next kernel entry; its peers
// eject it on barrier timeout (the TMR->DMR downgrade path).
func (n *Node) InjectStall(rid int) { n.sys.InjectStall(rid) }

// RequestReintegrate schedules live re-integration of a removed replica
// at the next drained rendezvous.
func (n *Node) RequestReintegrate(rid int) error { return n.sys.RequestReintegrate(rid) }

// ReintegrateOutcome reports the pending re-integration request's state.
func (n *Node) ReintegrateOutcome() (pending bool, err error) { return n.sys.ReintegrateOutcome() }

// AliveCount returns the number of replicas still in the configuration —
// the node's current redundancy level.
func (n *Node) AliveCount() int { return n.sys.AliveCount() }

// Primary returns the current primary replica's ID.
func (n *Node) Primary() int { return n.sys.Primary() }

// Detections returns the node's recorded detection events.
func (n *Node) Detections() []core.Detection { return n.sys.Detections() }

// Metrics returns the node's metric set (nil when tracing is disabled).
func (n *Node) Metrics() *metrics.Set { return n.sys.Metrics() }

// SaveState implements snapshot.Snapshotter. A node checkpoint is the
// state-transfer unit behind shard failover and migration.
func (n *Node) SaveState(w *snapshot.Writer) error { return w.Walk(n.state) }

// LoadState implements snapshot.Snapshotter. The target must be a node
// booted with behaviourally identical options.
func (n *Node) LoadState(snap *snapshot.Snapshot) error { return snap.Walk(n.state) }

// ErrCopyTorn reports a CopyFrom that failed after it began storing into
// its target: the target holds a mix of two states and is only good for
// another CopyFrom or for dropping.
var ErrCopyTorn = errors.New("harness: copy failed part-way into its target")

// CopyFrom makes n's simulated state equal to src's — a snapshot.Save of n
// afterwards is byte-identical to one of src — without serializing src's
// RAM. src's state walk goes through a transfer image
// (snapshot.AppendTransfer: every section but physical memory) in
// *scratch, which CopyFrom grows and keeps for the next call, and is
// loaded into n; then machine.Mem.CopyFrom copies the RAM, rewriting only
// the pages that changed since n's last copy from the same src. Nothing in
// n aliases *scratch afterwards. n must be booted with behaviourally
// identical options; src must not run while it is copied.
//
// An error from the walk over src leaves n untouched. Any later error
// wraps ErrCopyTorn.
func (n *Node) CopyFrom(src *Node, scratch *[]byte) error {
	img, err := snapshot.AppendTransfer((*scratch)[:0], src)
	if err != nil {
		return fmt.Errorf("harness: copy: %w", err)
	}
	*scratch = img
	t, err := snapshot.ParseTransfer(img)
	if err == nil {
		err = n.LoadState(t)
	}
	if err == nil {
		err = n.sys.Machine().Mem().CopyFrom(src.sys.Machine().Mem())
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCopyTorn, err)
	}
	return nil
}

// state walks the node's identity section and the full replicated-system
// state.
func (n *Node) state(c *snapshot.Codec) {
	c.Section("node.meta", func(c *snapshot.Codec) {
		c.Check("mode", int(n.sys.Config().Mode))
		c.Check("replicas", n.sys.Config().Replicas)
		c.Check("slots", n.opts.Slots)
		c.Check("request-budget", n.opts.RequestBudget)
		c.Check("trace-output", n.opts.TraceOutput)
	})
	n.sys.State(c)
}
