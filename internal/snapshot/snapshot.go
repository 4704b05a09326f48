// Package snapshot implements the checkpoint/restore serialization
// boundary: a versioned, deterministic binary format for the complete
// simulated state of a replicated system — machine, kernels, devices,
// replication control state, and harness-level client state.
//
// The format is a flat sequence of named sections, and the file composes
// the same way the system does: the harness opens "harness.meta"/"harness"/
// "harness.gen"/"node.meta", the replication layer "sys.meta"/"sys"/
// "sys.kernel.N"/"sys.trace"/"sys.metrics", the machine "machine"/"mem"/
// "bus"/"core.N"/"dev.N".
//
// What is inside each section is described once per type, by a state walk
// over a Codec (codec.go): a walk names every serialized field exactly
// once, and saving, loading and the construction-time compatibility checks
// are the same walk run in different directions. The Snapshotter methods
// of every layer are two-line wrappers around its walk. Only machine.Mem
// keeps a hand-written pair (a sparse save and a page-delta load are
// different algorithms), and the flight recorder crosses as one embedded
// blob in internal/trace's own format. The fields of snapshotted structs
// that are deliberately outside the boundary — host-derived caches, memos,
// wiring and hooks — are listed with their reasons in boundary_test.go,
// which fails when a field is neither walked nor listed.
//
// Determinism is a format-level guarantee: encoding the same state twice
// yields byte-identical files (all maps are serialized in sorted order by
// their owners), and a save→restore→save round trip is byte-identical
// too. The differential determinism suite relies on both properties.
//
// Layout (all integers little-endian):
//
//	[8]byte  magic "RCOESNP\x01"
//	uint32   format version (currently 1)
//	uint32   section count
//	per section:
//	  uint32 name length, name bytes
//	  uint64 payload length, payload bytes
//
// Writer streams: every section's payload is appended straight to the
// one output buffer and the two counts above are back-patched, so a save
// costs one pass over the state and no intermediate copies. AppendSave
// is Save into a caller-supplied buffer, for owners that save repeatedly
// into one recycled buffer.
//
// A transfer image (AppendTransfer, ParseTransfer) is the same layout
// under its own magic, "RCOEXFR\x01", with every RawSection left out: the
// in-memory half of copying one live system onto another whose owner
// moves the raw payload — physical memory — itself (harness.Node.CopyFrom
// with machine.Mem.CopyFrom). It is never written to disk, and Parse
// refuses it with ErrTransferImage, so it cannot be restored as a
// snapshot that zeroes RAM.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Version is the current snapshot format version.
const Version = 1

var magic = [8]byte{'R', 'C', 'O', 'E', 'S', 'N', 'P', 1}

// transferMagic opens a transfer image.
var transferMagic = [8]byte{'R', 'C', 'O', 'E', 'X', 'F', 'R', 1}

// magicFor returns the magic of a snapshot or of a transfer image.
func magicFor(transfer bool) [8]byte {
	if transfer {
		return transferMagic
	}
	return magic
}

// ErrBadSnapshot reports a corrupt, truncated or foreign snapshot.
var ErrBadSnapshot = errors.New("snapshot: bad snapshot")

// ErrIncompatible reports a snapshot that parsed correctly but cannot be
// restored into the given target system (config mismatch, missing
// section, device list mismatch).
var ErrIncompatible = errors.New("snapshot: incompatible restore target")

// ErrTransferImage reports a transfer image handed to Parse: it holds a
// system's state without its raw sections, so restoring it as a snapshot
// would leave physical memory as the target had it. It wraps
// ErrBadSnapshot.
var ErrTransferImage = fmt.Errorf("%w: transfer image, not a snapshot", ErrBadSnapshot)

// IncompatibleError builds an ErrIncompatible-wrapped mismatch report for
// one field of one section.
func IncompatibleError(section, field string, target, snap interface{}) error {
	return fmt.Errorf("%w: %s: %s: snapshot has %v, target has %v",
		ErrIncompatible, section, field, snap, target)
}

// Snapshotter is implemented by every layer that owns serializable
// simulated state. SaveState appends the layer's sections to the writer;
// LoadState reads them back from a parsed snapshot. Restoring is only
// defined against a structurally identical target — freshly constructed,
// or live and still in its construction-time shape (same configuration,
// program, and device registration order), which rewinds it: derived
// host-side state — execution caches, page generations, park closures —
// is reconstructed by the owner, not serialized.
//
// A load stores into the target as it decodes and stops at the first
// error, so the target of a failed LoadState holds a mix of two states and
// is only good for another LoadState (or for dropping — what the warm-start
// forker and Cluster.Failover do).
type Snapshotter interface {
	SaveState(w *Writer) error
	LoadState(s *Snapshot) error
}

// Section is one named payload of a parsed snapshot.
type Section struct {
	Name string
	Data []byte
}

// Writer streams sections into one output buffer. Section appends the
// section's name and an 8-byte length placeholder and hands out an Enc
// that appends the payload to that same buffer; opening the next
// section (or Bytes) back-patches the length, and Bytes back-patches the
// section count — no per-section buffer and no final copy. Sections are
// therefore strictly sequential: an Enc is dead once the next Section
// call is made. Errors latch: after the first failure Bytes returns the
// error. The zero value is an empty writer.
type Writer struct {
	enc      Enc      // enc.buf is the output: header, closed sections, open payload
	base     int      // offset of the header in enc.buf (AppendSave appends)
	lenAt    int      // offset of the open section's length placeholder; 0 = none open
	names    []string // sections so far, for the uniqueness check
	transfer bool     // a transfer image: RawSections are left out
	err      error
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// start appends the file header once, with a zero section count.
func (w *Writer) start() {
	if len(w.enc.buf) != w.base {
		return
	}
	m := magicFor(w.transfer)
	w.enc.buf = append(w.enc.buf, m[:]...)
	w.enc.buf = binary.LittleEndian.AppendUint32(w.enc.buf, Version)
	w.enc.buf = binary.LittleEndian.AppendUint32(w.enc.buf, 0)
}

// Section begins a new named section and returns its encoder. The
// previous section, if any, is finalized, and its encoder must not be
// used again. Section names must be unique within one snapshot.
func (w *Writer) Section(name string) *Enc {
	w.start()
	w.flush()
	if w.err == nil && slices.Contains(w.names, name) {
		w.err = fmt.Errorf("snapshot: duplicate section %q", name)
	}
	w.names = append(w.names, name)
	w.enc.buf = binary.LittleEndian.AppendUint32(w.enc.buf, uint32(len(name)))
	w.enc.buf = append(w.enc.buf, name...)
	w.lenAt = len(w.enc.buf)
	w.enc.buf = binary.LittleEndian.AppendUint64(w.enc.buf, 0)
	return &w.enc
}

// flush closes the open section by back-patching its payload length.
func (w *Writer) flush() {
	if w.lenAt == 0 {
		return
	}
	binary.LittleEndian.PutUint64(w.enc.buf[w.lenAt:], uint64(len(w.enc.buf)-w.lenAt-8))
	w.lenAt = 0
}

// Err returns the first error the writer latched.
func (w *Writer) Err() error { return w.err }

// Bytes finalizes the snapshot and returns its serialized form: the
// writer's own buffer, so the writer must not be used afterwards.
func (w *Writer) Bytes() ([]byte, error) {
	w.start()
	w.flush()
	if w.err != nil {
		return nil, w.err
	}
	binary.LittleEndian.PutUint32(w.enc.buf[w.base+12:], uint32(len(w.names)))
	return w.enc.buf, nil
}

// Snapshot is a parsed snapshot: an ordered list of named sections. The
// sections alias the bytes Parse was given, which must not change while
// the Snapshot is in use. A *Snapshot is therefore the identity of one
// immutable image: a layer that loaded it in full may, on the next load
// of the same *Snapshot, restore only what changed since (machine.Mem).
type Snapshot struct {
	sections []Section
	index    map[string]int
	transfer bool // a transfer image: RawSections are skipped
}

// Parse reads a serialized snapshot. A transfer image is refused with
// ErrTransferImage.
func Parse(data []byte) (*Snapshot, error) { return parse(data, false) }

// ParseTransfer reads a transfer image written by AppendTransfer. A walk
// over it skips every RawSection, leaving that state to the owner's own
// transfer path.
func ParseTransfer(data []byte) (*Snapshot, error) { return parse(data, true) }

func parse(data []byte, transfer bool) (*Snapshot, error) {
	if len(data) < len(magic)+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	var m [8]byte
	copy(m[:], data)
	if m != magicFor(transfer) {
		if m == transferMagic {
			return nil, ErrTransferImage
		}
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	ver := binary.LittleEndian.Uint32(data[8:])
	if ver != Version {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrBadSnapshot, ver, Version)
	}
	// Every section costs at least its two length fields, which bounds the
	// count a header may claim before the index is sized from it.
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if count > (len(data)-16)/12 {
		return nil, fmt.Errorf("%w: %d sections claimed in %d bytes", ErrBadSnapshot, count, len(data))
	}
	snap := &Snapshot{index: make(map[string]int, count), transfer: transfer}
	off := 16
	for i := 0; i < count; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated section header", ErrBadSnapshot)
		}
		nameLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nameLen < 0 || off+nameLen+8 > len(data) {
			return nil, fmt.Errorf("%w: truncated section name", ErrBadSnapshot)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		payLen := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if payLen > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrBadSnapshot, name, payLen, len(data)-off)
		}
		if _, dup := snap.index[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrBadSnapshot, name)
		}
		snap.index[name] = len(snap.sections)
		snap.sections = append(snap.sections, Section{Name: name, Data: data[off : off+int(payLen)]})
		off += int(payLen)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-off)
	}
	return snap, nil
}

// Sections returns the sections in file order.
func (s *Snapshot) Sections() []Section { return s.sections }

// Has reports whether a section exists.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Section returns a decoder over the named section, or an error when the
// snapshot has no such section.
func (s *Snapshot) Section(name string) (*Dec, error) {
	i, ok := s.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrIncompatible, name)
	}
	return &Dec{buf: s.sections[i].Data, name: name}, nil
}

// Enc encodes one section's payload by appending to its Writer's output
// buffer. All writes append; there is no error state because appends
// cannot fail.
type Enc struct {
	buf []byte
}

// Grow reserves room for n more payload bytes, so a bulk encoder whose
// size is known up front (memory pages) grows the output once.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U64 appends one unsigned 64-bit word.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends one signed 64-bit word.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a 64-bit word.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one word.
func (e *Enc) Bool(v bool) {
	if v {
		e.U64(1)
	} else {
		e.U64(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed slice of words.
func (e *Enc) U64s(vs []uint64) {
	e.Grow(8 + 8*len(vs))
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Bools appends a length-prefixed boolean slice, one byte per element —
// the encoding Bytes gives a 0/1 byte slice, without building one.
func (e *Enc) Bools(bs []bool) {
	e.Grow(8 + len(bs))
	e.U64(uint64(len(bs)))
	n := len(e.buf)
	e.buf = e.buf[:n+len(bs)]
	for i, v := range bs {
		b := byte(0)
		if v {
			b = 1
		}
		e.buf[n+i] = b
	}
}

// SortedU64Map appends a map in ascending key order — the format-level
// determinism rule for map-shaped state.
func (e *Enc) SortedU64Map(m map[uint64]uint64) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U64(m[k])
	}
}

// Dec decodes one section's payload. Errors latch: after the first
// failed read every subsequent read returns zero values, and Err reports
// the failure. Callers check Err once after decoding a section.
type Dec struct {
	buf  []byte
	off  int
	name string
	err  error
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: section %q: %s", ErrBadSnapshot, d.name, fmt.Sprintf(format, args...))
	}
}

// Err returns the first decode error.
func (d *Dec) Err() error { return d.err }

// Remaining returns the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Close verifies the section was fully consumed.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// U64 reads one unsigned 64-bit word.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads one signed 64-bit word.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int-sized word.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads one boolean word.
func (d *Dec) Bool() bool { return d.U64() != 0 }

// Bytes reads a length-prefixed byte string.
func (d *Dec) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("byte string claims %d bytes, %d remain", n, len(d.buf)-d.off)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// BytesView returns the next length-prefixed byte string as a view into
// the decoder's backing buffer, without copying. The view is only valid
// while the snapshot's buffer is live; callers that retain the data must
// use Bytes. Intended for bulk payloads (memory pages) that are copied
// straight into their destination.
func (d *Dec) BytesView() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("byte string claims %d bytes, %d remain", n, len(d.buf)-d.off)
		return nil
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// wordsView returns the payload of the next length-prefixed word slice
// as a view into the backing buffer, nil after a failed read.
func (d *Dec) wordsView() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64((len(d.buf)-d.off)/8) {
		d.fail("word slice claims %d words, %d bytes remain", n, len(d.buf)-d.off)
		return nil
	}
	src := d.buf[d.off : d.off+int(n)*8]
	d.off += len(src)
	return src
}

// U64s reads a length-prefixed word slice.
func (d *Dec) U64s() []uint64 {
	src := d.wordsView()
	if d.err != nil {
		return nil
	}
	out := make([]uint64, len(src)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return out
}

// U64sInto reads a length-prefixed word slice straight into dst and
// returns the encoded length. Only a slice of exactly len(dst) words is
// stored; any other length is skipped with dst untouched, for the caller
// to report as a shape mismatch.
func (d *Dec) U64sInto(dst []uint64) int {
	src := d.wordsView()
	if len(src)/8 == len(dst) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	}
	return len(src) / 8
}

// BoolsInto is U64sInto for a slice written by Enc.Bools (or by Bytes
// over 0/1 bytes): any nonzero byte reads as true.
func (d *Dec) BoolsInto(dst []bool) int {
	src := d.BytesView()
	if len(src) == len(dst) {
		for i, b := range src {
			dst[i] = b != 0
		}
	}
	return len(src)
}

// SortedU64Map reads a map written by Enc.SortedU64Map.
func (d *Dec) SortedU64Map() map[uint64]uint64 {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64((len(d.buf)-d.off)/16) {
		d.fail("map claims %d entries, %d bytes remain", n, len(d.buf)-d.off)
		return nil
	}
	out := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		k := d.U64()
		out[k] = d.U64()
	}
	return out
}

// Save serializes a Snapshotter's state to bytes.
func Save(s Snapshotter) ([]byte, error) { return AppendSave(nil, s) }

// AppendSave appends s's serialized state to buf and returns the
// extended slice, like the strconv.Append functions: a caller that saves
// repeatedly passes its previous image's buf[:0] and pays neither the
// allocation nor the page faults of a fresh buffer — the cluster's
// transfer scratch (AppendTransfer, harness.Node.CopyFrom) is that
// caller. On error buf's spare capacity may have been scribbled on.
func AppendSave(buf []byte, s Snapshotter) ([]byte, error) { return appendImage(buf, s, false) }

// AppendTransfer is AppendSave for a transfer image: the same walk with
// every RawSection left out, under the transfer magic, for ParseTransfer.
func AppendTransfer(buf []byte, s Snapshotter) ([]byte, error) { return appendImage(buf, s, true) }

func appendImage(buf []byte, s Snapshotter, transfer bool) ([]byte, error) {
	w := &Writer{enc: Enc{buf: buf}, base: len(buf), transfer: transfer}
	if err := s.SaveState(w); err != nil {
		return nil, err
	}
	return w.Bytes()
}

// Restore parses data and loads it into target. The target must be a
// structurally identical, freshly constructed system.
func Restore(target Snapshotter, data []byte) error {
	snap, err := Parse(data)
	if err != nil {
		return err
	}
	return target.LoadState(snap)
}

// SaveFile writes a Snapshotter's state to path.
func SaveFile(path string, s Snapshotter) error {
	data, err := Save(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile parses a snapshot file.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// RestoreFile loads a snapshot file into target.
func RestoreFile(path string, target Snapshotter) error {
	snap, err := LoadFile(path)
	if err != nil {
		return err
	}
	return target.LoadState(snap)
}

// Diff compares two parsed snapshots section by section and returns a
// human-readable summary of the differences (empty when identical).
func Diff(a, b *Snapshot) []string {
	var out []string
	seen := map[string]bool{}
	for _, sa := range a.sections {
		seen[sa.Name] = true
		ib, ok := b.index[sa.Name]
		if !ok {
			out = append(out, fmt.Sprintf("section %q only in first snapshot (%d bytes)", sa.Name, len(sa.Data)))
			continue
		}
		sb := b.sections[ib]
		if len(sa.Data) != len(sb.Data) {
			out = append(out, fmt.Sprintf("section %q differs: %d vs %d bytes", sa.Name, len(sa.Data), len(sb.Data)))
			continue
		}
		for i := range sa.Data {
			if sa.Data[i] != sb.Data[i] {
				out = append(out, fmt.Sprintf("section %q differs at byte %d (%d bytes total)", sa.Name, i, len(sa.Data)))
				break
			}
		}
	}
	for _, sb := range b.sections {
		if !seen[sb.Name] {
			out = append(out, fmt.Sprintf("section %q only in second snapshot (%d bytes)", sb.Name, len(sb.Data)))
		}
	}
	return out
}

// WriteTo streams a serialized snapshot to w (a convenience for CLIs
// that already hold the bytes).
func WriteTo(w io.Writer, data []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(data); err != nil {
		return err
	}
	return bw.Flush()
}
