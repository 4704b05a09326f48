package device

import "rcoe/internal/snapshot"

// State implements machine.StatefulDevice: the NIC's queues, mailbox
// doorbell, delivery counters, and fault-injection state. The wiring (MMIO
// window, DMA base, IRQ line) is construction-time configuration and only
// checked. The mailbox contents themselves live in the DMA region of
// simulated RAM and are covered by the memory image; the mem cache is
// derived (re-established on the first Tick; NextEvent is conservative
// until then).
func (n *NIC) State(c *snapshot.Codec) {
	c.Check("mmio-base", n.mmioBase)
	c.Check("dma-base", n.dmaBase)
	c.Check("irq-line", n.line)
	snapshot.List(c, &n.pending, c.Bytes)
	snapshot.List(c, &n.responses, c.Bytes)
	c.Bool(&n.doorbell)
	c.U64(&n.RxDelivered)
	c.U64(&n.TxCollected)
	c.U64(&n.CorruptRxEvery)
	c.U64(&n.CorruptTxEvery)
	c.U64(&n.CorruptSeed)
	c.U64(&n.RxCorrupted)
	c.U64(&n.TxCorrupted)
	c.U64(&n.crng)
	if c.Loading() {
		n.mem = nil
	}
}
