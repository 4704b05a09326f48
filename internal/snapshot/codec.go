package snapshot

import (
	"fmt"
	"slices"
)

// Codec is one pass over a layer's serialized state in one direction: it
// either saves into a Writer or loads from a parsed Snapshot.
// A type describes what it keeps inside the snapshot boundary once, as a
// walk — func (t *T) state(c *Codec) — that opens its sections and names
// every serialized field exactly once, in wire order; which way the bytes
// flow is the codec's business, so a save list and a load list cannot
// drift apart. Every scalar is one little-endian 64-bit word.
//
// Loading latches the first error (a truncated or hostile payload wraps
// ErrBadSnapshot, a construction-time mismatch ErrIncompatible): from
// then on nothing more is stored into the target and no further section
// is walked.
type Codec struct {
	w   *Writer   // saving: the output
	e   *Enc      // saving: the open section
	s   *Snapshot // loading: the image
	d   *Dec      // loading: the open section
	err error
}

// Walk runs a state walk in the saving direction.
func (w *Writer) Walk(walk func(*Codec)) error {
	c := &Codec{w: w}
	walk(c)
	if c.err != nil {
		return c.err
	}
	return w.Err()
}

// Walk runs a state walk in the loading direction.
func (s *Snapshot) Walk(walk func(*Codec)) error {
	c := &Codec{s: s}
	walk(c)
	return c.err
}

// Loading reports whether the walk stores into its target.
func (c *Codec) Loading() bool { return c.w == nil }

// Err returns the error latched so far.
func (c *Codec) Err() error { return c.err }

// Fail latches an error met by the walk itself.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Section walks one named section. Loading verifies that the walk
// consumed the section exactly.
func (c *Codec) Section(name string, walk func(*Codec)) {
	if c.open(name) {
		walk(c)
		c.close()
	}
}

// RawSection hands one named section to a hand-written pair, for a payload
// whose save and load are different algorithms (machine.Mem). A walk over a
// transfer image skips it in both directions: the owner copies that state
// itself.
func (c *Codec) RawSection(name string, save func(*Enc), load func(*Dec, *Snapshot) error) {
	if c.transfer() || !c.open(name) {
		return
	}
	if c.w != nil {
		save(c.e)
		return
	}
	if err := load(c.d, c.s); err != nil {
		c.Fail(fmt.Errorf("section %s: %w", name, err))
	}
	c.close()
}

// Raw hands the next fields of the open section to a hand-written pair,
// for arrays whose save and load skip what their owner knows without a
// look (machine's core caches). Unlike a RawSection it is walked over
// transfer images too; load then gets a nil image, because a transfer
// image's buffer is reused and nothing may keep it.
func (c *Codec) Raw(save func(*Enc), load func(d *Dec, img *Snapshot) error) {
	if c.w != nil {
		save(c.e)
		return
	}
	if c.err != nil {
		return
	}
	img := c.s
	if c.s.transfer {
		img = nil
	}
	if c.err = load(c.d, img); c.err == nil {
		c.err = c.d.err
	}
}

// transfer reports whether the walk is over a transfer image.
func (c *Codec) transfer() bool {
	if c.w != nil {
		return c.w.transfer
	}
	return c.s.transfer
}

// open begins a section and reports whether it is to be walked.
func (c *Codec) open(name string) bool {
	if c.w != nil {
		c.e = c.w.Section(name)
		return true
	}
	if c.err == nil {
		c.d, c.err = c.s.Section(name)
	}
	return c.err == nil
}

// close verifies that a loaded section was consumed exactly.
func (c *Codec) close() {
	if c.w == nil && c.err == nil {
		c.err = c.d.Close()
	}
}

// word loads the next word; ok is false once an error is latched.
func (c *Codec) word() (v uint64, ok bool) {
	if c.err != nil {
		return 0, false
	}
	v = c.d.U64()
	c.err = c.d.err
	return v, c.err == nil
}

// U64 walks one unsigned word.
func (c *Codec) U64(p *uint64) {
	if c.w != nil {
		c.e.U64(*p)
	} else if v, ok := c.word(); ok {
		*p = v
	}
}

// Int walks an int as one word.
func (c *Codec) Int(p *int) { Word(c, p) }

// Bool walks a boolean as one word.
func (c *Codec) Bool(p *bool) {
	if c.w != nil {
		c.e.Bool(*p)
	} else if v, ok := c.word(); ok {
		*p = v != 0
	}
}

// Bytes walks a length-prefixed byte string; loading stores a copy.
func (c *Codec) Bytes(p *[]byte) {
	if c.w != nil {
		c.e.Bytes(*p)
	} else if c.err == nil {
		if b := c.d.Bytes(); c.d.err == nil {
			*p = b
		}
		c.err = c.d.err
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	b := []byte(*p)
	c.Bytes(&b)
	*p = string(b)
}

// U64s walks a word slice of construction-time length in place: a
// snapshot with any other length is incompatible.
func (c *Codec) U64s(dst []uint64) {
	if c.w != nil {
		c.e.U64s(dst)
	} else if c.err == nil {
		c.fixed(c.d.U64sInto(dst), len(dst))
	}
}

// fixed latches the outcome of an in-place bulk load of want elements.
func (c *Codec) fixed(got, want int) {
	if c.err = c.d.err; c.err == nil && got != want {
		c.err = IncompatibleError(c.d.name, "length", want, got)
	}
}

// Len walks a list's element count and returns it. A loaded count is
// bounded by the bytes that remain in the section — every element of every
// list is at least one word — so a hostile count fails with ErrBadSnapshot
// before anything is allocated. This is the one place list lengths are
// decoded.
func (c *Codec) Len(n int) int {
	if c.w != nil {
		c.e.Int(n)
		return n
	}
	v, ok := c.word()
	if !ok {
		return 0
	}
	if v > uint64(c.d.Remaining()/8) {
		c.d.fail("list claims %d elements, %d bytes remain", v, c.d.Remaining())
		c.err = c.d.err
		return 0
	}
	return int(v)
}

// Check walks a construction-time value: saved like any field, but on
// load compared with the target's own instead of stored, and a mismatch
// is an ErrIncompatible naming the section and field. v is an int, uint64,
// bool or string.
func (c *Codec) Check(field string, v any) {
	switch want := v.(type) {
	case int:
		check(c, field, want, c.Int)
	case uint64:
		check(c, field, want, c.U64)
	case bool:
		check(c, field, want, c.Bool)
	case string:
		check(c, field, want, c.String)
	default:
		panic(fmt.Sprintf("snapshot: Check(%q) of unsupported type %T", field, v))
	}
}

func check[T comparable](c *Codec, field string, want T, walk func(*T)) {
	got := want
	walk(&got)
	if got != want { // only a clean load changes got
		c.err = IncompatibleError(c.d.name, field, want, got)
	}
}

type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Word walks an integer of any width or named type as one word: signed
// values sign-extend on save and every type truncates on load.
func Word[T integer](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	*p = T(v)
}

// List walks a slice: its length (see Len), then elem over every element.
// Loading replaces the slice with a fresh one of zeroed elements first.
func List[T any](c *Codec, s *[]T, elem func(*T)) {
	n := c.Len(len(*s))
	if c.Loading() {
		if c.err != nil {
			return
		}
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Map walks a map in ascending key order — the format's determinism rule
// for map-shaped state: the entry count, then each key and elem over its
// value. Loading clears the map and refills it.
func Map[K integer, V any](c *Codec, m map[K]V, elem func(*V)) {
	if !c.Loading() {
		keys := make([]K, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.Len(len(keys))
		for _, k := range keys {
			v := m[k]
			Word(c, &k)
			elem(&v)
		}
		return
	}
	n := c.Len(0)
	if c.err != nil {
		return
	}
	clear(m)
	for ; n > 0 && c.err == nil; n-- {
		var k K
		var v V
		Word(c, &k)
		elem(&v)
		if c.err == nil {
			m[k] = v
		}
	}
}
