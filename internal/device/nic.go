// Package device implements the simulated peripherals: a network
// interface with DMA mailboxes and interrupts (the Intel I219 stand-in
// behind the Redis/YCSB system benchmark), and a simple console.
//
// Devices live outside the sphere of replication: the NIC performs DMA
// into a dedicated physical region that no replica owns, and its
// registers are reached through MMIO. The paper's residual vulnerability
// — corruption of DMA buffers is invisible to the replicas until the data
// enters the SoR via FT_Mem_Rep — is therefore reproduced exactly.
package device

import "rcoe/internal/machine"

// NIC register offsets within its MMIO window.
const (
	// RegRxStatus reads 1 when the RX mailbox holds a frame.
	RegRxStatus = 0x00
	// RegTxDoorbell is written by the driver after filling the TX
	// mailbox.
	RegTxDoorbell = 0x08
	// RegIRQAck acknowledges the NIC interrupt.
	RegIRQAck = 0x10
)

// NICWindowSize is the MMIO window size.
const NICWindowSize = 0x40

// DMA mailbox layout within the NIC's DMA region: a one-deep RX mailbox
// and a one-deep TX mailbox.
const (
	rxFlagOff = 0x0000 // 1 when a frame is present
	rxLenOff  = 0x0008
	rxDataOff = 0x0010
	txFlagOff = 0x1000
	txLenOff  = 0x1008
	txDataOff = 0x1010
	// MaxFrameBytes bounds a mailbox frame.
	MaxFrameBytes = 0xF00
)

// NIC is the simulated network interface.
type NIC struct {
	mmioBase uint64
	dmaBase  uint64
	line     int

	pending   [][]byte // frames waiting to enter the RX mailbox
	responses [][]byte // frames the driver transmitted

	doorbell bool

	// mem caches the machine's physical memory from the first Tick so
	// NextEvent can inspect the RX mailbox flag without a machine handle.
	mem *machine.Mem

	// RxDelivered and TxCollected count frames through each mailbox.
	RxDelivered uint64
	TxCollected uint64

	// CorruptRxEvery, when non-zero, flips one seeded bit of every N-th RX
	// frame during the DMA write into the mailbox — a device-level fault
	// the replicas cannot vote away because it happens outside the sphere
	// of replication, before FT_Mem_Rep distributes the payload. The
	// corruption is in flight: the injector's copy of the frame stays
	// intact, only the mailbox bytes differ.
	CorruptRxEvery uint64
	// CorruptTxEvery is the TX-side twin: every N-th collected response
	// has one seeded bit flipped after it leaves the mailbox, modeling a
	// fault between driver handoff and the wire.
	CorruptTxEvery uint64
	// CorruptSeed drives the bit choice (0 = a fixed default).
	CorruptSeed uint64
	// RxCorrupted and TxCorrupted count injected frame corruptions.
	RxCorrupted uint64
	TxCorrupted uint64

	crng uint64
}

// NewNIC creates a NIC with registers at mmioBase, using the DMA region
// at dmaBase and raising interrupts on the given line.
func NewNIC(mmioBase, dmaBase uint64, line int) *NIC {
	return &NIC{mmioBase: mmioBase, dmaBase: dmaBase, line: line}
}

// MMIOBase returns the register window base.
func (n *NIC) MMIOBase() uint64 { return n.mmioBase }

// Line returns the NIC's interrupt line.
func (n *NIC) Line() int { return n.line }

// RxFlagPA, RxLenPA, RxDataPA, TxFlagPA, TxLenPA, TxDataPA expose the DMA
// mailbox addresses the driver needs (FT_Mem_Access arguments).
func (n *NIC) RxFlagPA() uint64 { return n.dmaBase + rxFlagOff }

// RxLenPA returns the RX length word address.
func (n *NIC) RxLenPA() uint64 { return n.dmaBase + rxLenOff }

// RxDataPA returns the RX payload address.
func (n *NIC) RxDataPA() uint64 { return n.dmaBase + rxDataOff }

// TxFlagPA returns the TX flag word address.
func (n *NIC) TxFlagPA() uint64 { return n.dmaBase + txFlagOff }

// TxLenPA returns the TX length word address.
func (n *NIC) TxLenPA() uint64 { return n.dmaBase + txLenOff }

// TxDataPA returns the TX payload address.
func (n *NIC) TxDataPA() uint64 { return n.dmaBase + txDataOff }

// Inject queues a frame for delivery into the RX mailbox (the load
// generator's "send"). The frame is copied, so the caller may reuse its
// buffer immediately.
func (n *NIC) Inject(frame []byte) {
	cp := append([]byte(nil), frame...)
	n.pending = append(n.pending, cp)
}

// InjectRetained queues a frame without copying it. The NIC only ever
// reads queued frames (delivery writes them into guest memory; the
// RX-corruption fault flips bits in guest memory, not in the frame), so
// a caller that promises not to mutate the bytes until delivery can
// skip Inject's defensive copy. The cluster router injects a million
// immutably-encoded frames during a scale preload — copying each would
// be pure allocator load on the fill path.
func (n *NIC) InjectRetained(frame []byte) {
	n.pending = append(n.pending, frame)
}

// PendingRx returns the number of frames not yet delivered to the driver.
func (n *NIC) PendingRx() int { return len(n.pending) }

// TakeResponses returns and clears the transmitted frames.
func (n *NIC) TakeResponses() [][]byte {
	out := n.responses
	n.responses = nil
	return out
}

// DrainResponses appends the transmitted frames to dst and clears the
// queue while keeping its backing array, so a caller polling every
// round (the cluster drain loop) reuses both slice headers instead of
// allocating them per round. The frame references are dropped from the
// queue so the caller is their sole owner, exactly as with
// TakeResponses.
func (n *NIC) DrainResponses(dst [][]byte) [][]byte {
	dst = append(dst, n.responses...)
	clear(n.responses)
	n.responses = n.responses[:0]
	return dst
}

// Tick implements machine.Device: move queued frames into a free RX
// mailbox (raising the interrupt), and drain the TX mailbox when the
// doorbell rang.
func (n *NIC) Tick(m *machine.Machine) {
	mem := m.Mem()
	n.mem = mem
	if n.doorbell {
		n.doorbell = false
		flag, _ := mem.ReadU(n.TxFlagPA(), 8)
		if flag == 1 {
			ln, _ := mem.ReadU(n.TxLenPA(), 8)
			if ln > MaxFrameBytes {
				ln = MaxFrameBytes
			}
			data, err := mem.Read(n.TxDataPA(), int(ln))
			if err == nil {
				n.TxCollected++
				if n.CorruptTxEvery > 0 && n.TxCollected%n.CorruptTxEvery == 0 && len(data) > 0 {
					bit := n.corruptBit(uint64(len(data)))
					data[bit>>3] ^= 1 << (bit & 7)
					n.TxCorrupted++
				}
				n.responses = append(n.responses, data)
			}
			_ = mem.WriteU(n.TxFlagPA(), 8, 0)
		}
	}
	if len(n.pending) > 0 {
		flag, _ := mem.ReadU(n.RxFlagPA(), 8)
		if flag == 0 {
			frame := n.pending[0]
			n.pending = n.pending[1:]
			if len(frame) > MaxFrameBytes {
				frame = frame[:MaxFrameBytes]
			}
			_ = mem.WriteU(n.RxLenPA(), 8, uint64(len(frame)))
			_ = mem.Write(n.RxDataPA(), frame)
			n.RxDelivered++
			if n.CorruptRxEvery > 0 && n.RxDelivered%n.CorruptRxEvery == 0 && len(frame) > 0 {
				bit := n.corruptBit(uint64(len(frame)))
				_ = mem.FlipBit(n.RxDataPA()+bit>>3, uint(bit&7))
				n.RxCorrupted++
			}
			_ = mem.WriteU(n.RxFlagPA(), 8, 1)
			m.RaiseIRQ(n.line)
		}
	}
}

// NextEvent implements machine.Device. The NIC acts on a cycle only
// when the doorbell rang or a queued frame can enter a free RX mailbox;
// both the doorbell and the mailbox flag change only through core or host
// action, which ends any idle window, so the answer computed here stays
// valid for the whole window.
func (n *NIC) NextEvent(now uint64) uint64 {
	if n.doorbell {
		return now + 1
	}
	if len(n.pending) > 0 {
		if n.mem == nil {
			return now + 1 // not yet ticked: stay conservative
		}
		if flag, _ := n.mem.ReadU(n.RxFlagPA(), 8); flag == 0 {
			return now + 1
		}
		// RX mailbox occupied: delivery waits on the driver clearing the
		// flag, a core action.
	}
	return machine.NoEvent
}

// WatchedMem implements machine.MemWatcher. It declares exactly the words
// NextEvent reads: the RX flag, which the driver clears with a plain store
// (the mailboxes are ordinary RAM, not MMIO), so a batched store to it ends
// the batch's horizon and the next Tick sees the mailbox free on the cycle
// naive stepping would. Nothing else in the DMA region can move the answer:
// the TX flag, length and payload are read only after the doorbell, and the
// doorbell is an MMIO write, which already ends the batch; the RX length
// and payload are written only by Tick, which runs outside batches.
func (n *NIC) WatchedMem() (lo, hi uint64) {
	return n.RxFlagPA(), n.RxFlagPA() + 8
}

// corruptBit draws the next seeded bit index for a frame of nbytes.
func (n *NIC) corruptBit(nbytes uint64) uint64 {
	if n.crng == 0 {
		n.crng = n.CorruptSeed
		if n.crng == 0 {
			n.crng = 0x7F4A7C15F39CC060
		}
	}
	n.crng ^= n.crng << 13
	n.crng ^= n.crng >> 7
	n.crng ^= n.crng << 17
	return n.crng % (nbytes * 8)
}

// MMIORead implements machine.MMIOHandler.
func (n *NIC) MMIORead(addr uint64, size int) uint64 {
	switch addr - n.mmioBase {
	case RegRxStatus:
		return 0 // reserved; drivers read the RX flag via DMA
	default:
		return 0
	}
}

// MMIOWrite implements machine.MMIOHandler.
func (n *NIC) MMIOWrite(addr uint64, size int, v uint64) {
	switch addr - n.mmioBase {
	case RegTxDoorbell:
		n.doorbell = true
	case RegIRQAck:
		// Interrupt latching is edge-style in the machine; nothing to do.
	}
}
