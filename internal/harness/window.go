package harness

import (
	"slices"

	"rcoe/internal/netstack"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// Pending is one in-flight request: what the client must remember to
// validate its response and to retransmit it.
type Pending struct {
	// Frame is the encoded request. It is never written after encoding:
	// the NIC retains it without a copy, and a cluster's acked-write
	// ledger and replay log alias the key and value inside it.
	Frame   []byte
	SentAt  uint64 // node cycle of the last transmission
	Retries int    // retransmissions so far
	IsGet   bool   // a read: the response value is CRC-checked
	IsLoad  bool   // a preload request
	OpFinal bool   // the last request of a run-phase operation
}

// NewPending encodes req into a not-yet-sent Pending.
func NewPending(req netstack.Request, isLoad, opFinal bool) (*Pending, error) {
	frame, err := netstack.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	return &Pending{Frame: frame, IsGet: req.Op == netstack.OpGet, IsLoad: isLoad, OpFinal: opFinal}, nil
}

// Retry is a client's retransmission policy: the timeout in cycles
// (4 000 000 when 0), whether it doubles on every retry of a request up to
// 8x, and the retries after which a request is lost (5 when <= 0).
type Retry struct {
	Cycles  uint64
	Backoff bool
	Max     int
}

// Window is the closed-loop client's request window over one Node: the
// in-flight requests by ID, their retransmission, and the validation of
// what comes back. KVRun and every cluster shard drive their node through
// one; which requests exist, in what order they are sent and what an
// acknowledgement means stay with the caller.
type Window struct {
	node     *Node
	retry    Retry
	inflight map[uint32]*Pending

	// Errors counts lost requests, undecodable response frames and GETs
	// answered with a non-OK status; Corruptions GET values failing
	// their CRC.
	Errors      uint64
	Corruptions uint64

	ids    []uint32 // scratch of the sorted-ID scans
	frames [][]byte // scratch of Drain
}

// NewWindow returns an empty window over node, the policy's defaults
// resolved.
func NewWindow(node *Node, retry Retry) *Window {
	if retry.Cycles == 0 {
		retry.Cycles = 4_000_000
	}
	if retry.Max <= 0 {
		retry.Max = 5
	}
	return &Window{node: node, retry: retry, inflight: make(map[uint32]*Pending)}
}

// Len returns the number of requests in flight.
func (w *Window) Len() int { return len(w.inflight) }

// Send transmits p, whose frame carries request ID id, and holds it until
// its response or its loss.
func (w *Window) Send(id uint32, p *Pending) {
	p.SentAt = w.node.Now()
	w.inflight[id] = p
	w.node.InjectRetained(p.Frame)
}

func (w *Window) timeout(retries int) uint64 {
	if !w.retry.Backoff || retries <= 0 {
		return w.retry.Cycles
	}
	return w.retry.Cycles << min(retries, 3)
}

// sorted fills the ID scratch with the in-flight requests keep accepts,
// in ascending ID order: map iteration order would make the transmit
// sequence — and with it the whole simulation — vary from run to run
// whenever two requests are due in the same pass.
func (w *Window) sorted(keep func(*Pending) bool) []uint32 {
	w.ids = w.ids[:0]
	for id, p := range w.inflight {
		if keep(p) {
			w.ids = append(w.ids, id)
		}
	}
	slices.Sort(w.ids)
	return w.ids
}

// Retransmit resends every request whose timeout has passed. One that has
// used up its retries is dropped instead, counted in Errors, and handed
// to lost.
func (w *Window) Retransmit(lost func(id uint32, p *Pending)) {
	now := w.node.Now()
	due := w.sorted(func(p *Pending) bool { return now-p.SentAt >= w.timeout(p.Retries) })
	for _, id := range due {
		p := w.inflight[id]
		if p.Retries >= w.retry.Max {
			delete(w.inflight, id)
			w.Errors++
			lost(id, p)
			continue
		}
		p.Retries++
		p.SentAt = now
		w.node.InjectRetained(p.Frame)
	}
}

// ResendAll moves the window onto a replacement node (shard failover)
// and sends it every in-flight request afresh: against the new node's
// clock, with the retry count reset. The requests are idempotent (SETs
// carry full values, GETs are reads), so re-execution is safe.
func (w *Window) ResendAll(onto *Node) {
	w.node = onto
	now := onto.Now()
	for _, id := range w.sorted(func(*Pending) bool { return true }) {
		p := w.inflight[id]
		p.SentAt = now
		p.Retries = 0
		onto.InjectRetained(p.Frame)
	}
}

// Drain takes the node's transmitted frames and returns how many there
// were. A frame that does not decode counts one error; a response to no
// in-flight request is the duplicate of a retransmitted one and is
// ignored; a GET's status and value CRC are checked. Every other
// response completes its request, which is handed to ack. The response
// value aliases the drained frame and is valid only inside ack.
func (w *Window) Drain(ack func(p *Pending, resp netstack.Response)) int {
	w.frames = w.node.DrainResponses(w.frames[:0])
	for _, frame := range w.frames {
		resp, err := netstack.DecodeResponseInPlace(frame)
		if err != nil {
			w.Errors++
			continue
		}
		p, ok := w.inflight[resp.ReqID]
		if !ok {
			continue
		}
		delete(w.inflight, resp.ReqID)
		if p.IsGet {
			switch {
			case resp.Status != netstack.StatusOK:
				w.Errors++
			case !workload.CheckValue(resp.Value):
				w.Corruptions++
			}
		}
		ack(p, resp)
	}
	return len(w.frames)
}

// state walks the in-flight requests the way RCOESNP v1's harness section
// stores them.
func (w *Window) state(c *snapshot.Codec) {
	snapshot.Map(c, w.inflight, func(pp **Pending) {
		if *pp == nil {
			*pp = &Pending{}
		}
		p := *pp
		c.Bytes(&p.Frame)
		c.U64(&p.SentAt)
		c.Bool(&p.IsGet)
		c.Bool(&p.IsLoad)
		c.Bool(&p.OpFinal)
		c.Int(&p.Retries)
	})
}
