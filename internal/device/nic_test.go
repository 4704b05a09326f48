package device

import (
	"bytes"
	"errors"
	"testing"

	"rcoe/internal/machine"
	"rcoe/internal/snapshot"
)

func newMachine() *machine.Machine {
	prof := machine.X86()
	prof.JitterShift = 63
	return machine.New(prof, 1<<20)
}

func TestInjectDeliversToMailboxAndRaisesIRQ(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	frame := []byte("hello device")
	nic.Inject(frame)
	m.Step()
	flag, _ := m.Mem().ReadU(nic.RxFlagPA(), 8)
	if flag != 1 {
		t.Fatalf("RX flag = %d, want 1", flag)
	}
	ln, _ := m.Mem().ReadU(nic.RxLenPA(), 8)
	if int(ln) != len(frame) {
		t.Fatalf("RX len = %d", ln)
	}
	data, _ := m.Mem().Read(nic.RxDataPA(), len(frame))
	if !bytes.Equal(data, frame) {
		t.Fatalf("RX data = %q", data)
	}
	if m.Core(m.IRQRoute(3)).PendingIRQ()&(1<<3) == 0 {
		t.Fatalf("IRQ not raised")
	}
	if nic.RxDelivered != 1 {
		t.Fatalf("RxDelivered = %d", nic.RxDelivered)
	}
}

func TestSecondFrameWaitsForMailbox(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	nic.Inject([]byte("one"))
	nic.Inject([]byte("two"))
	m.Step()
	if nic.PendingRx() != 1 {
		t.Fatalf("pending = %d, want 1 (mailbox occupied)", nic.PendingRx())
	}
	// Consumer clears the flag; the next tick delivers frame two.
	_ = m.Mem().WriteU(nic.RxFlagPA(), 8, 0)
	m.Step()
	data, _ := m.Mem().Read(nic.RxDataPA(), 3)
	if string(data) != "two" {
		t.Fatalf("second frame = %q", data)
	}
}

func TestDoorbellCollectsTxMailbox(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	resp := []byte("response!")
	_ = m.Mem().WriteU(nic.TxLenPA(), 8, uint64(len(resp)))
	_ = m.Mem().Write(nic.TxDataPA(), resp)
	_ = m.Mem().WriteU(nic.TxFlagPA(), 8, 1)
	nic.MMIOWrite(nic.MMIOBase()+RegTxDoorbell, 8, 1)
	m.Step()
	got := nic.TakeResponses()
	if len(got) != 1 || !bytes.Equal(got[0], resp) {
		t.Fatalf("responses = %q", got)
	}
	flag, _ := m.Mem().ReadU(nic.TxFlagPA(), 8)
	if flag != 0 {
		t.Fatalf("TX flag not cleared")
	}
	if len(nic.TakeResponses()) != 0 {
		t.Fatalf("TakeResponses did not drain")
	}
}

func TestDoorbellWithoutFlagIsIgnored(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	nic.MMIOWrite(nic.MMIOBase()+RegTxDoorbell, 8, 1)
	m.Step()
	if len(nic.TakeResponses()) != 0 {
		t.Fatalf("phantom response collected")
	}
}

func TestOversizedFrameTruncated(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	nic.Inject(make([]byte, MaxFrameBytes+100))
	m.Step()
	ln, _ := m.Mem().ReadU(nic.RxLenPA(), 8)
	if ln != MaxFrameBytes {
		t.Fatalf("frame not truncated: %d", ln)
	}
}

// wordSection is a parsed one-section snapshot holding the given words.
func wordSection(t *testing.T, name string, words ...uint64) *snapshot.Snapshot {
	t.Helper()
	w := snapshot.NewWriter()
	e := w.Section(name)
	for _, v := range words {
		e.U64(v)
	}
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestNICStateHostileCounts: a frame-queue count far beyond the section's
// bytes is a named decode error, not a host allocation panic.
func TestNICStateHostileCounts(t *testing.T) {
	const mmio, dma, line = 0xF000_0000, 0x8000, 3
	for name, words := range map[string][]uint64{
		"pending":   {mmio, dma, line, 1 << 60},
		"responses": {mmio, dma, line, 0, 1 << 60},
	} {
		nic := NewNIC(mmio, dma, line)
		err := wordSection(t, "dev.0", words...).Walk(func(c *snapshot.Codec) { c.Section("dev.0", nic.State) })
		if !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s count 1<<60: got %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestNICWatchedMemContract pins the MemWatcher rule for the NIC: WatchedMem
// declares exactly the words NextEvent reads. With frames pending and the RX
// mailbox full, no store anywhere else in the DMA region (both mailboxes,
// flags, lengths and payloads) moves NextEvent; clearing the RX flag does.
func TestNICWatchedMemContract(t *testing.T) {
	m := newMachine()
	nic := NewNIC(0xF000_0000, 0x8000, 3)
	m.AddDevice(nic)
	nic.Inject([]byte("one"))
	nic.Inject([]byte("two"))
	m.Step() // "one" fills the mailbox, "two" waits
	lo, hi := nic.WatchedMem()
	if lo != nic.RxFlagPA() || hi != lo+8 {
		t.Fatalf("WatchedMem = [%#x, %#x), want the RX flag word at %#x", lo, hi, nic.RxFlagPA())
	}
	now := m.Now()
	if ne := nic.NextEvent(now); ne != machine.NoEvent {
		t.Fatalf("NextEvent with the mailbox full = %d, want NoEvent", ne)
	}
	for pa := nic.RxFlagPA(); pa < nic.TxDataPA()+MaxFrameBytes; pa += 8 {
		if pa >= lo && pa < hi {
			continue
		}
		for _, v := range []uint64{0, 1, ^uint64(0)} {
			if err := m.Mem().WriteU(pa, 8, v); err != nil {
				t.Fatal(err)
			}
			if ne := nic.NextEvent(now); ne != machine.NoEvent {
				t.Fatalf("storing %#x at %#x, outside WatchedMem, moved NextEvent to %d", v, pa, ne)
			}
		}
	}
	_ = m.Mem().WriteU(nic.RxFlagPA(), 8, 0)
	if ne := nic.NextEvent(now); ne != now+1 {
		t.Fatalf("NextEvent after clearing the RX flag = %d, want %d", ne, now+1)
	}
}
