package machine

import (
	"slices"
	"testing"

	"rcoe/internal/asm"
	snap "rcoe/internal/snapshot"
)

// Addresses the cache tests touch on core 0 (x86: 64-byte lines, 32 768
// slots, 512 slots a chunk, so a chunk covers 32 KiB of every 2 MiB).
const (
	cacheClean   = 0x100040           // resident and clean in the image
	cacheDirty   = 0x180000           // resident and dirty in the image
	cacheAbsent  = 0x1C0000           // not resident in the image
	cacheEvictor = cacheDirty + 2<<20 // the slot of cacheDirty, another tag
	cacheCross   = 0x1A0000 - 4       // resident and clean in the image, 8 bytes across two lines and two chunks
	cacheCross2  = 0x1B0000 - 4       // not resident in the image, across two lines and two chunks
)

// cacheImage runs a loop that stores one word a page into a 256 KiB data
// region, then makes cacheClean and cacheCross resident and clean and
// cacheDirty resident and dirty, and saves the machine.
func cacheImage(t *testing.T) (*Machine, *snap.Snapshot, []byte) {
	t.Helper()
	m := New(noJitter(X86()), 4<<20)
	b := asm.New()
	b.Li(1, 0x40000)
	b.Label("loop")
	b.St(8, 1, 5, 0)
	b.Addi(5, 5, 1)
	b.Addi(1, 1, 1<<pageShift)
	b.Andi(1, 1, 0x3FFFF)
	b.Ori(1, 1, 0x40000)
	b.J("loop")
	loadProg(t, m, b)
	m.Run(300)
	ch := m.Core(0).cache
	ch.access(cacheClean, 8, false)
	ch.access(cacheCross, 8, false)
	ch.access(cacheDirty, 8, true)
	data, err := snap.Save(m)
	if err != nil {
		t.Fatal(err)
	}
	img, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return m, img, data
}

// cacheAccess makes one scalar access through memAccess with the bus
// refilled, so it is never refused.
func cacheAccess(t *testing.T, c *Core, pa uint64, size int, write bool) {
	t.Helper()
	c.m.bus.tokens = c.m.bus.burst
	if !c.memAccess(pa, size, write) {
		t.Fatalf("access of %#x refused", pa)
	}
}

// mustHoldCache fails unless every core's cache arrays equal src's.
func mustHoldCache(t *testing.T, step string, m, src *Machine) {
	t.Helper()
	for i := range m.cores {
		got, want := m.Core(i).cache, src.Core(i).cache
		if !slices.Equal(got.tags, want.tags) || !slices.Equal(got.valid, want.valid) || !slices.Equal(got.dirty, want.dirty) {
			t.Fatalf("%s: core %d's cache arrays differ from the image's", step, i)
		}
	}
}

// chunkGens returns every core's chunk generations, core by core.
func chunkGens(m *Machine) []uint64 {
	var g []uint64
	for _, c := range m.cores {
		g = append(g, c.cache.chunkGen...)
	}
	return g
}

// TestCacheTracksEveryMutation drives every path that changes a cache line
// on a machine loaded from an image, then reloads the image: the reload
// must restore the arrays exactly while rewriting exactly the chunks whose
// generation the step moved, so a path that changes a line without bumping
// its chunk leaves the line stale; a step that changes no line must move
// no generation, so a path that bumps on a plain hit fails too. A load of another image in between
// makes the next reload a full one.
func TestCacheTracksEveryMutation(t *testing.T) {
	src, img, data := cacheImage(t)
	other, _, _ := cacheImage(t)
	other.Core(0).cache.access(cacheAbsent, 8, true)
	otherData, err := snap.Save(other)
	if err != nil {
		t.Fatal(err)
	}
	otherImg, err := snap.Parse(otherData)
	if err != nil {
		t.Fatal(err)
	}

	m := New(noJitter(X86()), 4<<20)
	loadProg(t, m, asm.New()) // same handler; the image brings the text
	if err := m.LoadState(img); err != nil {
		t.Fatal(err)
	}
	mustHoldCache(t, "load onto a fresh machine", m, src)
	mustMatch(t, m, data)

	c := m.Core(0)
	ch := c.cache
	idx := func(pa uint64) uint64 { return ch.index(pa >> ch.lineShift) }
	steps := []struct {
		name string
		do   func()
		full bool // the reload after it is a full one
		none bool // the step changes no line
	}{
		{name: "scalar fill", do: func() { cacheAccess(t, c, cacheAbsent, 8, false) }},
		{name: "scalar fill evicting a dirty line", do: func() { cacheAccess(t, c, cacheEvictor, 8, false) }},
		{name: "dirty on a hit", do: func() { cacheAccess(t, c, cacheClean, 8, true) }},
		{name: "plain hit", do: func() { cacheAccess(t, c, cacheClean, 8, false) }, none: true},
		{name: "store hit on a dirty line", do: func() { cacheAccess(t, c, cacheDirty, 8, true) }, none: true},
		{name: "multi-line fill", do: func() { cacheAccess(t, c, cacheCross2, 8, false) }},
		{name: "multi-line store hit on clean lines", do: func() { cacheAccess(t, c, cacheCross, 8, true) }},
		{name: "multi-line plain hit", do: func() { cacheAccess(t, c, cacheCross, 8, false) }, none: true},
		{name: "streamAccess", do: func() {
			c.m.bus.tokens = c.m.bus.burst
			if !c.streamAccess(0x1E0000, 0x1F0000, 256) {
				t.Fatal("streamAccess refused")
			}
		}},
		{name: "flush", do: c.FlushCache},
		{name: "undo of a run's dirty bits", do: func() {
			l := aheadLog{dirty: []uint64{idx(cacheDirty)}}
			l.write(m.mem, ch, false)
		}},
		{name: "redo of a run's dirty bits", do: func() {
			l := aheadLog{dirty: []uint64{idx(cacheClean)}}
			l.write(m.mem, ch, true)
		}},
		{name: "a guest run", do: func() { m.Run(400) }},
		{name: "nothing", do: func() {}, none: true},
		{name: "load of another image", do: func() {
			if err := m.LoadState(otherImg); err != nil {
				t.Fatal(err)
			}
			mustHoldCache(t, "load of another image", m, other)
		}, full: true},
	}
	for _, st := range steps {
		before := chunkGens(m)
		st.do()
		touched := chunkGens(m)
		if st.none && !slices.Equal(touched, before) {
			t.Fatalf("%s: changed no line but moved a chunk generation", st.name)
		}
		cgen := ch.gen
		if err := m.LoadState(img); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		mustHoldCache(t, st.name, m, src)
		mustMatch(t, m, data)
		after := chunkGens(m)
		rewrote := false
		for k := range after {
			moved, stale := after[k] != touched[k], touched[k] != before[k]
			rewrote = rewrote || moved
			switch {
			case st.full:
			case moved && !stale:
				t.Fatalf("%s: chunk %d was current but rewritten", st.name, k)
			case !moved && stale:
				t.Fatalf("%s: chunk %d moved but was not rewritten", st.name, k)
			}
		}
		if (ch.gen != cgen) != rewrote && !st.full {
			t.Fatalf("%s: cache.gen moved %v, lines rewritten %v", st.name, ch.gen != cgen, rewrote)
		}
		if st.name == "a guest run" && !rewrote {
			t.Fatal("the guest run moved no chunk: the step tests nothing")
		}
	}
}

// TestCacheFlushSkipsUntouchedChunks: a flush clears the valid and dirty
// bits of every chunk that was ever written and moves cache.gen, leaving
// the chunks still at generation 0 at generation 0.
func TestCacheFlushSkipsUntouchedChunks(t *testing.T) {
	m := New(X86(), 1<<16)
	ch := m.Core(0).cache
	ch.access(cacheDirty, 8, true)
	k := int(ch.index(cacheDirty>>ch.lineShift) >> cacheChunkShift)
	gen := ch.gen
	ch.flush()
	if ch.gen == gen {
		t.Fatal("a flush did not move cache.gen")
	}
	for j, g := range ch.chunkGen {
		if (g != 0) != (j == k) {
			t.Fatalf("chunk %d at generation %d after a flush", j, g)
		}
	}
	if slices.Contains(ch.valid, true) || slices.Contains(ch.dirty, true) {
		t.Fatal("a flush left a line valid or dirty")
	}
}
