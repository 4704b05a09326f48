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

// TestBulkInto covers the in-place bulk reads: a length and Flags write
// what Bytes writes for 0/1 bytes (the format is unchanged), Zeros what
// Words writes for zero words, a matching length decodes straight into
// the destination or views the payload, any other length is skipped with
// the destination untouched (and, for a view, latches ErrIncompatible),
// and a truncated payload latches.
func TestBulkInto(t *testing.T) {
	words := []uint64{9, 8, 7}
	flags := []bool{true, false, true, true}
	encode := func(body func(e *Enc)) []byte {
		w := NewWriter()
		e := w.Section("s")
		body(e)
		e.U64(77)
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := encode(func(e *Enc) {
		e.U64s(words)
		e.U64(uint64(len(flags)))
		e.Flags(flags)
	})
	if old := encode(func(e *Enc) {
		e.U64s(words)
		e.Bytes([]byte{1, 0, 1, 1})
	}); !bytes.Equal(data, old) {
		t.Fatal("Flags does not encode like Bytes over 0/1 bytes")
	}
	if zeros, words := encode(func(e *Enc) { e.Zeros(16) }), encode(func(e *Enc) { e.Words([]uint64{0, 0}) }); !bytes.Equal(zeros, words) {
		t.Fatal("Zeros does not encode like Words over zero words")
	}
	section := func() *Dec {
		snap, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Section("s")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := section()
	gotW := make([]uint64, 3)
	if n := d.U64sInto(gotW); n != 3 || !reflect.DeepEqual(gotW, words) {
		t.Fatalf("U64sInto: n=%d %v", n, gotW)
	}
	if f := d.FlagsView(4); !bytes.Equal(f, []byte{1, 0, 1, 1}) {
		t.Fatalf("FlagsView: %v", f)
	}
	if v := d.U64(); v != 77 || d.Close() != nil {
		t.Fatalf("trailer: %d, %v", v, d.Close())
	}
	d = section()
	if w := d.WordsView(3); len(w) != 24 || w[0] != 9 || w[16] != 7 {
		t.Fatalf("WordsView: %v", w)
	}

	d = section()
	shortW := []uint64{1, 2}
	if n := d.U64sInto(shortW); n != 3 || shortW[0] != 1 || shortW[1] != 2 {
		t.Fatalf("U64sInto mismatch: n=%d %v", n, shortW)
	}
	if f := d.FlagsView(4); f == nil || d.Err() != nil {
		t.Fatalf("FlagsView after a skipped slice: %v, %v", f, d.Err())
	}
	if v := d.U64(); v != 77 || d.Close() != nil {
		t.Fatalf("a skipped slice left the decoder misaligned: %d, %v", v, d.Close())
	}
	d = section()
	if w := d.WordsView(2); w != nil || !errors.Is(d.Err(), ErrIncompatible) {
		t.Fatalf("WordsView of the wrong length: %v, %v", w, d.Err())
	}

	d = &Dec{buf: []byte{2, 0, 0, 0, 0, 0, 0, 0, 1}, name: "short"}
	if n := d.U64sInto(make([]uint64, 2)); n != 0 || !errors.Is(d.Err(), ErrBadSnapshot) {
		t.Fatalf("truncated U64sInto: n=%d err=%v", n, d.Err())
	}
}

// rawState has one walked section and one RawSection around it.
type rawState struct {
	head, raw, tail uint64
	rawLoads        int
}

func (r *rawState) walk(c *Codec) {
	c.Section("head", func(c *Codec) { c.U64(&r.head) })
	c.RawSection("raw", func(e *Enc) { e.U64(r.raw) }, func(d *Dec, _ *Snapshot) error {
		r.raw = d.U64()
		r.rawLoads++
		return d.Err()
	})
	c.Section("tail", func(c *Codec) { c.U64(&r.tail) })
}

func (r *rawState) SaveState(w *Writer) error   { return w.Walk(r.walk) }
func (r *rawState) LoadState(s *Snapshot) error { return s.Walk(r.walk) }

// rawFields walks a section whose second field is a Raw pair, recording
// the image each load was handed.
type rawFields struct {
	head, raw uint64
	img       *Snapshot
}

func (r *rawFields) walk(c *Codec) {
	c.Section("s", func(c *Codec) {
		c.U64(&r.head)
		c.Raw(func(e *Enc) { e.U64(r.raw) }, func(d *Dec, img *Snapshot) error {
			r.raw, r.img = d.U64(), img
			return nil
		})
	})
}

func (r *rawFields) SaveState(w *Writer) error   { return w.Walk(r.walk) }
func (r *rawFields) LoadState(s *Snapshot) error { return s.Walk(r.walk) }

// TestRawFields: a Raw pair is walked in place, in snapshots and transfer
// images alike; its load is handed the snapshot, and nil for a transfer
// image; a truncated payload latches ErrBadSnapshot.
func TestRawFields(t *testing.T) {
	src := &rawFields{head: 1, raw: 2}
	data, err := Save(src)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := &rawFields{}
	if err := dst.LoadState(snap); err != nil || dst.head != 1 || dst.raw != 2 || dst.img != snap {
		t.Fatalf("snapshot load: %+v, %v", *dst, err)
	}
	img, err := AppendTransfer(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	xfr, err := ParseTransfer(img)
	if err != nil {
		t.Fatal(err)
	}
	dst = &rawFields{img: snap}
	if err := dst.LoadState(xfr); err != nil || dst.raw != 2 || dst.img != nil {
		t.Fatalf("transfer load: %+v, %v", *dst, err)
	}
	w := NewWriter()
	w.Section("s").U64(1) // the head, and no Raw payload after it
	truncated, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	short, err := Parse(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&rawFields{}).LoadState(short); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated Raw payload: %v, want ErrBadSnapshot", err)
	}
}

// TestTransferImage: a transfer image carries every walked section and no
// RawSection, loads through ParseTransfer without calling the raw loader,
// and is refused by Parse — and so by Restore — with ErrTransferImage
// before anything is stored, as Parse's image is by ParseTransfer.
func TestTransferImage(t *testing.T) {
	src := &rawState{head: 1, raw: 2, tail: 3}
	img, err := AppendTransfer(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseTransfer(img)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range snap.Sections() {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, []string{"head", "tail"}) {
		t.Fatalf("transfer image sections %v, want [head tail]", names)
	}
	dst := &rawState{raw: 9}
	if err := dst.LoadState(snap); err != nil {
		t.Fatal(err)
	}
	if *dst != (rawState{head: 1, raw: 9, tail: 3}) {
		t.Fatalf("transfer load gave %+v, want head and tail copied and raw untouched", *dst)
	}

	target := &rawState{raw: 9}
	if err := Restore(target, img); !errors.Is(err, ErrTransferImage) || !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Restore of a transfer image returned %v, want ErrTransferImage (an ErrBadSnapshot)", err)
	}
	if *target != (rawState{raw: 9}) {
		t.Fatalf("a refused transfer image stored %+v", *target)
	}
	full, err := Save(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTransfer(full); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("ParseTransfer of a snapshot returned %v, want ErrBadSnapshot", err)
	}
}
