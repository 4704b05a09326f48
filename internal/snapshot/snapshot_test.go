package snapshot

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter()
	e := w.Section("alpha")
	e.U64(42)
	e.I64(-7)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.String("hello")
	e.U64s([]uint64{9, 8, 7})
	e.SortedU64Map(map[uint64]uint64{5: 50, 1: 10, 3: 30})
	e2 := w.Section("beta")
	e2.U64(99)

	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 42 {
		t.Fatalf("U64: got %d", got)
	}
	if got := d.I64(); got != -7 {
		t.Fatalf("I64: got %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Fatalf("Int: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes: got %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String: got %q", got)
	}
	if got := d.U64s(); !reflect.DeepEqual(got, []uint64{9, 8, 7}) {
		t.Fatalf("U64s: got %v", got)
	}
	if got := d.SortedU64Map(); !reflect.DeepEqual(got, map[uint64]uint64{1: 10, 3: 30, 5: 50}) {
		t.Fatalf("SortedU64Map: got %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := snap.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.U64(); got != 99 {
		t.Fatalf("beta U64: got %d", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicEncoding pins the byte-determinism contract: encoding
// the same logical state twice — including map-shaped state — yields
// identical bytes.
func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		e := w.Section("m")
		m := map[uint64]uint64{}
		for i := uint64(0); i < 64; i++ {
			m[i*0x9E3779B97F4A7C15] = i
		}
		e.SortedU64Map(m)
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatal("same state encoded to different bytes")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	w := NewWriter()
	w.Section("s").U64(1)
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXXXXXX"), data[8:]...),
		"truncated":  data[:len(data)-3],
		"trailing":   append(append([]byte{}, data...), 0xFF),
		"bad header": data[:10],
	}
	for name, corrupt := range cases {
		if _, err := Parse(corrupt); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", name, err)
		}
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("pristine data rejected: %v", err)
	}
}

func TestMissingSection(t *testing.T) {
	w := NewWriter()
	w.Section("present").U64(1)
	data, _ := w.Bytes()
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Section("absent"); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("got %v, want ErrIncompatible", err)
	}
}

func TestDecodeErrorLatches(t *testing.T) {
	w := NewWriter()
	w.Section("s").U64(7)
	data, _ := w.Bytes()
	snap, _ := Parse(data)
	d, _ := snap.Section("s")
	_ = d.U64()
	_ = d.U64() // over-read
	if d.Err() == nil {
		t.Fatal("over-read did not latch an error")
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("read after error returned %d, want 0", got)
	}
	if d.Close() == nil {
		t.Fatal("Close after error returned nil")
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	w := NewWriter()
	w.Section("dup").U64(1)
	w.Section("dup").U64(2)
	if _, err := w.Bytes(); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

// TestWriterLatchesDuplicate: a non-adjacent duplicate name latches an
// error that later, valid sections do not clear, on Err and on Bytes.
func TestWriterLatchesDuplicate(t *testing.T) {
	w := NewWriter()
	w.Section("a").U64(1)
	w.Section("b").U64(2)
	if w.Err() != nil {
		t.Fatalf("distinct sections latched %v", w.Err())
	}
	w.Section("a").U64(3)
	first := w.Err()
	if first == nil {
		t.Fatal("duplicate section not latched on Err")
	}
	w.Section("c").U64(4)
	if w.Err() != first {
		t.Fatalf("latched error changed: %v", w.Err())
	}
	if data, err := w.Bytes(); err != first || data != nil {
		t.Fatalf("Bytes after a latched error returned %d bytes, err %v", len(data), err)
	}
}

// failingState is a Snapshotter whose save fails after writing a section.
type failingState struct{ err error }

func (f failingState) SaveState(w *Writer) error {
	w.Section("partial").U64(1)
	return f.err
}
func (failingState) LoadState(*Snapshot) error { return nil }

// TestStreamingLayout pins what the back-patching must produce: the
// exact header of an empty snapshot, an empty section between two
// non-empty ones, and AppendSave surfacing the Snapshotter's own error.
func TestStreamingLayout(t *testing.T) {
	empty, err := NewWriter().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, magic[:]...), 1, 0, 0, 0, 0, 0, 0, 0); !bytes.Equal(empty, want) {
		t.Fatalf("empty snapshot is % x, want % x", empty, want)
	}

	w := NewWriter()
	w.Section("x").U64(7)
	w.Section("none")
	w.Section("y").Bytes([]byte{1, 2, 3})
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, s := range snap.Sections() {
		got = append(got, len(s.Data))
	}
	if !reflect.DeepEqual(got, []int{8, 0, 11}) {
		t.Fatalf("section payload lengths %v, want [8 0 11]", got)
	}

	boom := errors.New("boom")
	if data, err := AppendSave(nil, failingState{boom}); !errors.Is(err, boom) || data != nil {
		t.Fatalf("AppendSave of a failing Snapshotter returned %d bytes, err %v", len(data), err)
	}
}

func TestDiff(t *testing.T) {
	build := func(v uint64, extra bool) *Snapshot {
		w := NewWriter()
		w.Section("a").U64(v)
		w.Section("b").U64(1)
		if extra {
			w.Section("c").U64(2)
		}
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if d := Diff(build(1, false), build(1, false)); len(d) != 0 {
		t.Fatalf("identical snapshots diff: %v", d)
	}
	d := Diff(build(1, false), build(2, true))
	if len(d) != 2 {
		t.Fatalf("expected 2 differences, got %v", d)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.snap"
	w := NewWriter()
	w.Section("s").String("payload")
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "payload" {
		t.Fatalf("got %q", got)
	}
}
