package harness

import (
	"slices"
	"testing"

	"rcoe/internal/core"
	"rcoe/internal/device"
	"rcoe/internal/netstack"
	"rcoe/internal/workload"
)

func windowNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(NodeOptions{
		System: core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
		Slots:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// send puts one request for key k in flight under id.
func send(t *testing.T, w *Window, op byte, id uint32, k uint64) *Pending {
	t.Helper()
	req := netstack.Request{Op: op, ReqID: id, Key: workload.Key(k)}
	if op == netstack.OpSet {
		req.Value = workload.Value(k, 0)
	}
	p, err := NewPending(req, false, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Send(id, p)
	return p
}

// transmit makes the node's NIC send frame the way the server does:
// through the TX mailbox and the doorbell. The server itself is not run,
// so a test decides every byte the window drains.
func transmit(t *testing.T, n *Node, frame []byte) {
	t.Helper()
	m, nic := n.Sys().Machine(), n.NIC()
	mem := m.Mem()
	for _, err := range []error{
		mem.Write(nic.TxDataPA(), frame),
		mem.WriteU(nic.TxLenPA(), 8, uint64(len(frame))),
		mem.WriteU(nic.TxFlagPA(), 8, 1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	nic.MMIOWrite(nicMMIOBase+device.RegTxDoorbell, 8, 1)
	nic.Tick(m)
}

// servedIDs runs the node until it has answered want requests and returns
// the answers' request IDs in order: the server is serial and the NIC a
// FIFO, so that is the order the frames were injected in.
func servedIDs(t *testing.T, n *Node, want int) []uint32 {
	t.Helper()
	var ids []uint32
	var frames [][]byte
	for i := 0; i < 4000 && len(ids) < want; i++ {
		n.RunCycles(2_000)
		if halted, reason := n.Halted(); halted {
			t.Fatalf("node halted: %s", reason)
		}
		frames = n.DrainResponses(frames[:0])
		for _, f := range frames {
			resp, err := netstack.DecodeResponseInPlace(f)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, resp.ReqID)
		}
	}
	return ids
}

// TestWindowRetransmit holds one request in flight, never draining its
// answer, and checks when the window retransmits it and when it gives up.
// Gaps are the waits between successive transmissions, in units of the
// policy's timeout; the last one ends in the loss.
func TestWindowRetransmit(t *testing.T) {
	const cycles = 1_000
	for _, tc := range []struct {
		name  string
		retry Retry
		gaps  []uint64
	}{
		{"backoff doubles to 8x and stays", Retry{Cycles: cycles, Backoff: true}, []uint64{1, 2, 4, 8, 8, 8}},
		{"flat without backoff", Retry{Cycles: cycles, Max: 2}, []uint64{1, 1, 1}},
		{"no retries beyond the budget", Retry{Cycles: cycles, Backoff: true, Max: 1}, []uint64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := windowNode(t)
			w := NewWindow(n, tc.retry)
			p := send(t, w, netstack.OpGet, 1, 3)
			var gaps []uint64
			lost := 0
			last, retries := p.SentAt, 0
			for i := 0; i < 64; i++ {
				n.RunCycles(cycles)
				w.Retransmit(func(id uint32, q *Pending) {
					if id != 1 || q != p {
						t.Errorf("lost(%d, %p), want (1, %p)", id, q, p)
					}
					lost++
					gaps = append(gaps, (n.Now()-last)/cycles)
				})
				if p.Retries != retries {
					retries = p.Retries
					gaps = append(gaps, (p.SentAt-last)/cycles)
					last = p.SentAt
				}
			}
			if !slices.Equal(gaps, tc.gaps) {
				t.Errorf("waits between transmissions %v x timeout, want %v", gaps, tc.gaps)
			}
			if lost != 1 || w.Errors != 1 || w.Len() != 0 {
				t.Errorf("lost called %d times, %d errors, %d in flight; want 1, 1, 0", lost, w.Errors, w.Len())
			}
			if got := n.PendingRx() + int(n.NIC().RxDelivered); got != len(tc.gaps) {
				t.Errorf("%d frames reached the NIC, want %d", got, len(tc.gaps))
			}
		})
	}
}

// TestWindowDefaults: a zero policy resolves to the client's defaults.
func TestWindowDefaults(t *testing.T) {
	w := NewWindow(windowNode(t), Retry{})
	if want := (Retry{Cycles: 4_000_000, Max: 5}); w.retry != want {
		t.Fatalf("resolved policy %+v, want %+v", w.retry, want)
	}
}

// TestWindowRetransmitOrder: requests that time out in one pass are resent
// in ascending ID order, whatever order they were sent in and whatever
// order the map yields them.
func TestWindowRetransmitOrder(t *testing.T) {
	n := windowNode(t)
	w := NewWindow(n, Retry{Cycles: 1_000})
	for _, id := range []uint32{9, 3, 12, 6} {
		send(t, w, netstack.OpGet, id, uint64(id))
	}
	n.RunCycles(500)
	send(t, w, netstack.OpGet, 1, 1) // not due in the pass below
	n.RunCycles(500)
	w.Retransmit(func(uint32, *Pending) { t.Error("nothing is out of retries") })
	want := []uint32{9, 3, 12, 6, 1, 3, 6, 9, 12}
	if got := servedIDs(t, n, len(want)); !slices.Equal(got, want) {
		t.Fatalf("server answered %v, want %v", got, want)
	}
}

// TestWindowResendAll: failover re-sends the whole window to the
// replacement node in ascending ID order, on its clock, retries forgotten.
func TestWindowResendAll(t *testing.T) {
	old, fresh := windowNode(t), windowNode(t)
	w := NewWindow(old, Retry{Cycles: 1_000})
	sent := map[uint32]*Pending{}
	for _, id := range []uint32{5, 2, 8} {
		sent[id] = send(t, w, netstack.OpSet, id, uint64(id))
	}
	for i := 0; i < 2; i++ {
		old.RunCycles(1_000)
		w.Retransmit(func(uint32, *Pending) { t.Error("nothing is out of retries") })
	}
	fresh.RunCycles(300)
	w.ResendAll(fresh)
	for id, p := range sent {
		if p.Retries != 0 || p.SentAt != fresh.Now() {
			t.Errorf("request %d: retries %d, sent at %d; want 0, %d", id, p.Retries, p.SentAt, fresh.Now())
		}
	}
	if got, want := servedIDs(t, fresh, 3), []uint32{2, 5, 8}; !slices.Equal(got, want) {
		t.Fatalf("replacement node answered %v, want %v", got, want)
	}
	// The window now lives on the replacement: its clock times requests out.
	fresh.RunCycles(1_000)
	w.Retransmit(func(uint32, *Pending) {})
	if p := sent[2]; p.Retries != 1 || p.SentAt != fresh.Now() {
		t.Errorf("after the move: retries %d, sent at %d; want 1, %d", p.Retries, p.SentAt, fresh.Now())
	}
}

// TestWindowDrain feeds the window fabricated responses to requests 1 (a
// SET) and 2 (a GET) and checks what it acknowledges and what it counts.
func TestWindowDrain(t *testing.T) {
	good := workload.Value(3, 0)
	resp := func(status byte, id uint32, value []byte) []byte {
		return netstack.EncodeResponse(netstack.Response{Status: status, ReqID: id, Value: value})
	}
	n := windowNode(t)
	for _, tc := range []struct {
		name        string
		frames      [][]byte
		acked       []uint32
		errors      uint64
		corruptions uint64
	}{
		{"both answered", [][]byte{resp(netstack.StatusOK, 2, good), resp(netstack.StatusOK, 1, nil)}, []uint32{2, 1}, 0, 0},
		{"duplicate response ignored", [][]byte{resp(netstack.StatusOK, 1, nil), resp(netstack.StatusOK, 1, nil)}, []uint32{1}, 0, 0},
		{"response to nothing in flight ignored", [][]byte{resp(netstack.StatusOK, 7, good)}, nil, 0, 0},
		{"truncated frame", [][]byte{resp(netstack.StatusOK, 1, nil)[:4]}, nil, 1, 0},
		{"value length beyond the frame", [][]byte{resp(netstack.StatusOK, 2, good)[:netstack.HeaderBytes+2]}, nil, 1, 0},
		{"GET not found", [][]byte{resp(netstack.StatusNotFound, 2, nil)}, []uint32{2}, 1, 0},
		{"GET value fails its CRC", [][]byte{resp(netstack.StatusOK, 2, []byte("not a record"))}, []uint32{2}, 0, 1},
		{"SET status is the caller's to judge", [][]byte{resp(netstack.StatusError, 1, nil)}, []uint32{1}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(n, Retry{})
			send(t, w, netstack.OpSet, 1, 3)
			send(t, w, netstack.OpGet, 2, 3)
			for _, f := range tc.frames {
				transmit(t, n, f)
			}
			var acked []uint32
			got := w.Drain(func(p *Pending, r netstack.Response) {
				if p.IsGet != (r.ReqID == 2) {
					t.Errorf("response %d acknowledged the wrong request", r.ReqID)
				}
				acked = append(acked, r.ReqID)
			})
			if got != len(tc.frames) {
				t.Errorf("drained %d frames, want %d", got, len(tc.frames))
			}
			if !slices.Equal(acked, tc.acked) {
				t.Errorf("acknowledged %v, want %v", acked, tc.acked)
			}
			if w.Errors != tc.errors || w.Corruptions != tc.corruptions {
				t.Errorf("%d errors, %d corruptions; want %d, %d", w.Errors, w.Corruptions, tc.errors, tc.corruptions)
			}
			if w.Len() != 2-len(tc.acked) {
				t.Errorf("%d still in flight, want %d", w.Len(), 2-len(tc.acked))
			}
		})
	}
}
