package machine

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"rcoe/internal/asm"
	snap "rcoe/internal/snapshot"
)

// mustCopy copies src onto dst and requires dst to hold src's bytes and
// stuck set, every stuck bit at its stuck value. It returns the pages whose generation the copy moved on dst.
func mustCopy(t *testing.T, dst, src *Mem) map[int]bool {
	t.Helper()
	before := gens(dst)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.bytes, src.bytes) {
		t.Fatal("target bytes differ from the source's after a copy")
	}
	if !maps.Equal(dst.stuck, src.stuck) {
		t.Fatalf("target stuck set %v differs from the source's %v", dst.stuck, src.stuck)
	}
	for a, msk := range dst.stuck {
		if v := dst.bytes[a]; (v|msk.or)&^msk.andNot != v {
			t.Fatalf("stuck byte %#x copied as %#x, not at its stuck value", a, v)
		}
	}
	moved := map[int]bool{}
	for p, g := range dst.pageGen {
		if g != before[p] {
			moved[p] = true
		}
	}
	return moved
}

// TestMemCopyFromTracksEveryMutation drives every mutation path on the
// source between copies — and a write into the target itself — and
// requires each copy to make the target equal to the source while
// rewriting exactly the pages that may differ: those whose generation
// moved on either side since the last copy.
func TestMemCopyFromTracksEveryMutation(t *testing.T) {
	srcM, img, _ := memImage(t, 0xA5)
	if err := srcM.LoadState(img); err != nil { // the source gets a rewind base
		t.Fatal(err)
	}
	src := srcM.Mem()
	dstM, _, _ := memImage(t, 0x3C)
	dst := dstM.Mem()
	if err := dstM.LoadState(img); err != nil {
		t.Fatal(err)
	}
	mustCopy(t, dst, src)
	if dst.base != nil {
		t.Fatal("the copy kept the target's rewind base")
	}

	page := func(p int) uint64 { return uint64(p) << pageShift }
	steps := []struct {
		name string
		do   func() error
	}{
		{"Write", func() error { return src.Write(page(1)+5, []byte{1, 2, 3}) }},
		{"WriteU", func() error { return src.WriteU(page(3), 8, 0x0123456789ABCDEF) }},
		{"Fill across two pages", func() error { return src.Fill(page(4)+4000, 200, 0x5A) }},
		{"Move", func() error { return src.Move(page(6)+8, page(2), 64) }},
		{"FlipBit", func() error { return src.FlipBit(page(7)+1, 3) }},
		{"Slice grant", func() error {
			b, err := src.Slice(page(8)+16, 8)
			b[0] = 0x77
			return err
		}},
		{"snapshot restore", func() error { return srcM.LoadState(img) }},
		{"SetStuck", func() error { return src.SetStuck(page(9)+3, 2, 1) }},
		{"write through a Slice under a stuck bit", func() error {
			b, err := src.Slice(page(9), 8)
			clear(b) // de-asserts the bit; the copy re-asserts it, as a save does
			return err
		}},
		{"ClearStuck", func() error { src.ClearStuck(page(9)+3, 2); return nil }},
		{"write into the target", func() error { return dst.WriteU(page(10), 8, 0xDEAD) }},
		{"stuck bit on the target", func() error { return dst.SetStuck(page(11), 0, 1) }},
		{"nothing", func() error { return nil }},
	}
	for _, st := range steps {
		srcBefore, dstBefore := gens(src), gens(dst)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		touched := func(p int) bool { return dst.pageGen[p] != dstBefore[p] }
		moved := mustCopy(t, dst, src)
		for p := range dst.pageGen {
			// The copy asserts the source's stuck bits first, so the source
			// generations are read after it.
			switch stale := src.pageGen[p] != srcBefore[p] || touched(p); {
			case moved[p] && !stale:
				t.Fatalf("%s: page %d was current but rewritten", st.name, p)
			case !moved[p] && stale:
				t.Fatalf("%s: page %d moved but was not rewritten", st.name, p)
			}
		}
	}
}

// TestMemCopyFromOtherSourceIsFull: the first copy zeroes a target page
// the source never wrote and drops the target's own stuck bit, a copy from another source rewrites every
// nonzero page even where the generations happen to line up, and so does
// a copy back from the first source after it.
func TestMemCopyFromOtherSourceIsFull(t *testing.T) {
	a, _, _ := memImage(t, 0xA5)
	b, _, _ := memImage(t, 0x5A) // same pages and generations, other bytes
	dst := New(X86(), 16<<pageShift).Mem()
	if err := dst.WriteU(7<<pageShift, 8, 1); err != nil { // zero on the source, without a look
		t.Fatal(err)
	}
	if err := dst.SetStuck(8<<pageShift, 1, 1); err != nil { // the source has no stuck set at all
		t.Fatal(err)
	}
	mustCopy(t, dst, a.Mem())
	for _, src := range []*Mem{b.Mem(), a.Mem()} {
		moved := mustCopy(t, dst, src)
		for _, p := range []int{2, 5} {
			if !moved[p] {
				t.Fatalf("page %d was skipped copying from another source", p)
			}
		}
	}
}

// TestMemCopyFromSizeMismatch: a source of another size is
// ErrIncompatible and leaves the target untouched.
func TestMemCopyFromSizeMismatch(t *testing.T) {
	src, _, _ := memImage(t, 0xA5)
	dst := New(X86(), 32<<pageShift).Mem()
	if err := dst.WriteU(0, 8, 1); err != nil {
		t.Fatal(err)
	}
	before, data := gens(dst), bytes.Clone(dst.bytes)
	if err := dst.CopyFrom(src.Mem()); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("size mismatch: got %v, want ErrIncompatible", err)
	}
	if !bytes.Equal(dst.bytes, data) || !slices.Equal(gens(dst), before) {
		t.Fatal("a refused copy changed the target")
	}
}

// TestMemCopyFromRevalidatesCaches warms the target's execution caches on a
// loop, copies in a source whose loop adds 1000 instead of 1, and requires
// the target to execute the new text: the copy bumps the generation of the
// text page it rewrote, which every predecoded entry and block is keyed on.
func TestMemCopyFromRevalidatesCaches(t *testing.T) {
	loop := func(imm int32) *asm.Builder {
		b := asm.New()
		b.Label("loop")
		b.Addi(5, 5, imm)
		b.J("loop")
		return b
	}
	for _, eng := range []struct {
		name   string
		ec, sb bool
	}{{"exec cache", true, false}, {"superblock", false, true}} {
		t.Run(eng.name, func(t *testing.T) {
			build := func(imm int32) *Machine {
				m := New(noJitter(X86()), 1<<16)
				m.SetExecCache(eng.ec)
				m.SetSuperblock(eng.sb)
				loadProg(t, m, loop(imm))
				return m
			}
			dst, src := build(1), build(1000)
			dst.Run(1_000) // warm the caches on the +1 loop
			if dst.Core(0).Regs[5] == 0 {
				t.Fatal("the loop did not run")
			}
			if err := dst.Mem().CopyFrom(src.Mem()); err != nil {
				t.Fatal(err)
			}
			dst.Core(0).Regs[5] = 0
			dst.Run(1_000)
			// 1 000 cycles run fewer than 1 000 passes of the old loop.
			if r5 := dst.Core(0).Regs[5]; r5 == 0 || r5%1000 != 0 {
				t.Fatalf("r5 = %d after the copy, want a positive multiple of 1000: a stale cache entry ran the old text", r5)
			}
		})
	}
}
