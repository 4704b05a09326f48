package core

import (
	"math/bits"

	"rcoe/internal/machine"
)

// Physical memory map. The RCoE framework region and the input-replication
// buffer are shared among all replicas; the DMA region belongs to devices
// and sits outside the sphere of replication; each replica then owns a
// private partition. Faults injected into the shared region corrupt the
// harness itself — barriers, published times, checksums — which the paper
// identifies as a residual vulnerability (§VI).
const (
	sharedBase uint64 = 0x0000
	sharedSize uint64 = 0x20000 // 64 KiB framework + 64 KiB input buffer
	inputOff   uint64 = 0x10000 // input-replication buffer offset
	inputSize  uint64 = 0x10000

	dmaBase uint64 = sharedBase + sharedSize
	dmaSize uint64 = 0x40000 // 256 KiB device DMA region

	partBase uint64 = dmaBase + dmaSize
)

// Shared framework word offsets (in 8-byte words from sharedBase).
const (
	wSyncGen     = 0 // current sync generation (0 = none pending)
	wSyncKind    = 1 // syncIRQ / syncFinal
	wSyncLines   = 2 // pending device-interrupt line bitmask
	wAliveMask   = 3 // bitmask of alive replicas
	wPrimary     = 4 // current primary replica ID
	wHalted      = 5 // nonzero when the system has fail-stopped
	wIOBusy      = 6 // nonzero while a replica performs device I/O
	wReleaseGen  = 7 // rendezvous release marker (generation number)
	wVoteRelease = 8 // per-syscall vote release marker (event number)
	wVoteOutcome = 9 // fault-vote outcome: 0 ok, 1+rid downgrade, ^0 halt
)

// Per-replica shared block: 16 words each, starting at word 16.
const (
	repBlockWords = 16
	repBlockBase  = 16

	rwArriveGen = 0  // sync generation this replica has arrived at
	rwEvents    = 1  // published logical time: event count
	rwBranches  = 2  // published logical time: effective branch count
	rwIP        = 3  // published logical time: user instruction pointer
	rwBlockRem  = 4  // block-op remaining length (rep-instruction tiebreak)
	rwChecksum  = 5  // published signature checksum
	rwSigEvents = 6  // published signature event count
	rwVoteEvent = 7  // event number of the last per-syscall vote arrival
	rwVoteSum   = 8  // checksum published for the per-syscall vote
	rwFTVotes   = 9  // Listing 5: ft_votes[i]
	rwFTFaulty  = 10 // Listing 5: ft_fault_replica[i]
	rwDoneFlag  = 11 // nonzero when the replica's workload completed
	rwParkedGen = 12 // generation this replica is parked at (0 = running)
)

// Sync kinds stored at wSyncKind.
const (
	syncIRQ   = 1
	syncFinal = 2
)

// shared provides typed access to the framework region. All state it
// manages lives in simulated RAM so that fault injection reaches it.
type shared struct {
	mem *machine.Mem
}

func (s shared) word(i int) uint64 {
	v, _ := s.mem.ReadU(sharedBase+uint64(i)*8, 8)
	return v
}

func (s shared) setWord(i int, v uint64) {
	// The framework region is always within RAM; ignore the impossible
	// error to keep call sites readable.
	_ = s.mem.WriteU(sharedBase+uint64(i)*8, 8, v)
}

func (s shared) repWord(rid, w int) uint64 {
	return s.word(repBlockBase + rid*repBlockWords + w)
}

func (s shared) setRepWord(rid, w int, v uint64) {
	s.setWord(repBlockBase+rid*repBlockWords+w, v)
}

// logicalTime is a replica's published position in its execution. Under
// LC only Events is meaningful; under CC the full triple (plus the
// block-op tiebreak) orders replicas (§III-B).
type logicalTime struct {
	Events   uint64
	Branches uint64
	IP       uint64
	// BlockRem is the remaining length of an in-progress block
	// operation at IP (0 when not at a block op). Larger means earlier.
	BlockRem uint64
}

// less orders logical times: fewer events first, then fewer branches,
// then smaller IP is NOT comparable across basic blocks in general — but
// with equal (events, branches) both replicas are in the same straight-
// line run, where the smaller IP is behind; at a block op, more remaining
// bytes is behind.
func (a logicalTime) less(b logicalTime) bool {
	if a.Events != b.Events {
		return a.Events < b.Events
	}
	if a.Branches != b.Branches {
		return a.Branches < b.Branches
	}
	if a.IP != b.IP {
		return a.IP < b.IP
	}
	return a.BlockRem > b.BlockRem
}

func (a logicalTime) equal(b logicalTime) bool {
	return a == b
}

// publishTime writes a replica's logical time to its shared block.
func (s shared) publishTime(rid int, lt logicalTime) {
	s.setRepWord(rid, rwEvents, lt.Events)
	s.setRepWord(rid, rwBranches, lt.Branches)
	s.setRepWord(rid, rwIP, lt.IP)
	s.setRepWord(rid, rwBlockRem, lt.BlockRem)
}

// readTime reads a replica's published logical time.
func (s shared) readTime(rid int) logicalTime {
	return logicalTime{
		Events:   s.repWord(rid, rwEvents),
		Branches: s.repWord(rid, rwBranches),
		IP:       s.repWord(rid, rwIP),
		BlockRem: s.repWord(rid, rwBlockRem),
	}
}

// alive reports whether replica rid is in the alive mask.
func (s shared) alive(rid int) bool {
	return s.word(wAliveMask)&(1<<uint(rid)) != 0
}

// ridSet is a set of replica IDs as a bitmask (bit rid = replica rid),
// walked in ascending order without allocating:
//
//	for m := set; m != 0; m = m.rest() { rid := m.first(); ... }
type ridSet uint64

func (m ridSet) first() int   { return bits.TrailingZeros64(uint64(m)) }
func (m ridSet) rest() ridSet { return m & (m - 1) }
func (m ridSet) count() int   { return bits.OnesCount64(uint64(m)) }

// removeAlive clears a replica from the alive mask.
func (s shared) removeAlive(rid int) {
	s.setWord(wAliveMask, s.word(wAliveMask)&^(1<<uint(rid)))
}

// inputBufPA returns the physical address of the input-replication buffer
// (the cross-replica region LC drivers map and FT_Mem_Rep uses).
//
// The first two words of the buffer form the LC driver publication ABI:
// word 0 is a sequence number the primary bumps after publishing, word 1
// the published frame length (0 = no frame). The kernel relies on this
// layout when it resets the channel during primary removal.
func inputBufPA() uint64 { return sharedBase + inputOff }

// resetInputChannel publishes an empty frame on the driver channel.
func (s *System) resetInputChannel() {
	seq, _ := s.m.Mem().ReadU(inputBufPA(), 8)
	_ = s.m.Mem().WriteU(inputBufPA()+8, 8, 0)   // length 0
	_ = s.m.Mem().WriteU(inputBufPA(), 8, seq+1) // bump sequence
}

// DMARegion returns the device DMA window (physical).
func DMARegion() (base, size uint64) { return dmaBase, dmaSize }

// SharedRegion returns the RCoE framework region (physical), which fault
// campaigns may target.
func SharedRegion() (base, size uint64) { return sharedBase, sharedSize }

// PartitionBase returns replica rid's physical partition base for a given
// partition size.
func PartitionBase(rid int, partBytes uint64) uint64 {
	return partBase + uint64(rid)*partBytes
}
