package machine

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
)

// splitSeen counts the split points aheadSplitCheck tried, and those that
// landed on the cycle a run stopped at, inside a stall count-down, on a
// block start reached by a chain, and on an armed breakpoint.
type splitSeen struct{ points, stop, stall, chain, bp int }

func (s *splitSeen) add(o splitSeen) {
	s.points += o.points
	s.stop += o.stop
	s.stall += o.stall
	s.chain += o.chain
	s.bp += o.bp
}

// aheadSnap is what a run ahead of machine time can change: its core's run
// state, cache, block cache and translation memo, and RAM.
type aheadSnap struct {
	run          coreRun
	tags         []uint64
	valid, dirty []bool
	cgen         uint64
	sb           *sbCache // nil: the core had none
	ec           execCache
	ram          []byte
	gen          []uint64
	writes       uint64
}

func takeAheadSnap(m *Machine, c *Core, ram []byte) *aheadSnap {
	s := &aheadSnap{ram: append(ram[:0], m.mem.bytes...), gen: append([]uint64(nil), m.mem.pageGen...),
		writes: m.mem.writes, ec: c.ec, cgen: c.cache.gen}
	c.saveRun(&s.run)
	s.tags = append([]uint64(nil), c.cache.tags...)
	s.valid = append([]bool(nil), c.cache.valid...)
	s.dirty = append([]bool(nil), c.cache.dirty...)
	if c.sb != nil {
		cp := *c.sb
		s.sb = &cp
	}
	return s
}

// restore puts c and RAM back where takeAheadSnap found them. A run writes
// RAM only through Mem, which bumps the written pages' generations, a line
// only through a fill, which bumps the cache's generation, and a block slot
// only through a build, which counts in built.
func (s *aheadSnap) restore(m *Machine, c *Core) {
	c.loadRun(&s.run)
	if c.cache.gen != s.cgen {
		copy(c.cache.tags, s.tags)
		copy(c.cache.valid, s.valid)
		c.cache.gen = s.cgen
	}
	copy(c.cache.dirty, s.dirty)
	switch {
	case s.sb == nil:
		c.sb = nil
	case c.sb.built != s.sb.built:
		*c.sb = *s.sb
	}
	c.ec = s.ec
	mem := m.mem
	for p, g := range mem.pageGen {
		if g != s.gen[p] {
			lo := uint64(p) << pageShift
			hi := min(lo+1<<pageShift, mem.Size())
			copy(mem.bytes[lo:hi], s.ram[lo:hi])
			mem.pageGen[p] = s.gen[p]
		}
	}
	mem.writes = s.writes
}

// aheadDigest describes what st's run left: the core's run state, its
// block position, the undo log, the touched pages, the page generations,
// the bytes of every page written since s and the core's dirty bits; with
// full set, a CRC of all RAM and of every core's cache lines too.
func aheadDigest(m *Machine, st *sbRunState, s *aheadSnap, full bool) string {
	var b strings.Builder
	var r coreRun
	st.c.saveRun(&r)
	fmt.Fprintf(&b, "%+v\n", r)
	if st.sb != nil {
		fmt.Fprintf(&b, "block %#x pos %d\n", st.sb.start, st.pos)
	} else {
		b.WriteString("no block\n")
	}
	fmt.Fprintf(&b, "log %v %08x %v\npages %v untracked %v\n", st.log.chunks, crc32.ChecksumIEEE(st.log.bytes), st.log.dirty, st.pages, st.untracked)
	mem := m.mem
	fmt.Fprintf(&b, "gens %08x", crc32.ChecksumIEEE(bytesOf(mem.pageGen)))
	for p, g := range mem.pageGen {
		if g != s.gen[p] {
			lo := uint64(p) << pageShift
			fmt.Fprintf(&b, " %#x:%08x", lo, crc32.ChecksumIEEE(mem.bytes[lo:min(lo+1<<pageShift, mem.Size())]))
		}
	}
	fmt.Fprintf(&b, "\ndirty %08x\n", crc32.ChecksumIEEE(bytesOf(st.c.cache.dirty)))
	if full {
		fmt.Fprintf(&b, "ram %08x", crc32.ChecksumIEEE(mem.bytes))
		for _, c := range m.cores {
			ch := c.cache
			fmt.Fprintf(&b, " cache%d %08x %08x %08x", c.ID, crc32.ChecksumIEEE(bytesOf(ch.tags)),
				crc32.ChecksumIEEE(bytesOf(ch.valid)), crc32.ChecksumIEEE(bytesOf(ch.dirty)))
		}
	}
	return b.String()
}

// bytesOf views a slice's backing array as bytes.
func bytesOf[E any](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// aheadSplitCheck runs every running core of m ahead from where it stands,
// between two Runs, for at most limit cycles, once in one call and once
// split at every point up to one past where the whole run stopped: promise
// for the first a cycles, then, when it used them all, ahead for the rest,
// as runBlocks splits a run at its probe. Each split must leave what the
// whole run leaves (aheadDigest, with all RAM and every cache line at every
// 512th point). The machine is left as found.
func aheadSplitCheck(t *testing.T, m *Machine, limit uint64) (seen splitSeen) {
	t.Helper()
	m.privRefresh()
	var ram []byte
	for _, c := range m.cores {
		if c.State != CoreRunning {
			continue
		}
		snap := takeAheadSnap(m, c, ram)
		ram = snap.ram
		start := func() *sbRunState {
			snap.restore(m, c)
			return &sbRunState{c: c, sb: m.sbBlock(c), fline: ^uint64(0)}
		}
		st := start()
		n := m.promise(st, limit)
		whole, wholeFull := aheadDigest(m, st, snap, false), aheadDigest(m, st, snap, true)
		for a := uint64(1); a < limit && a <= n+1; a++ {
			st := start()
			n1 := m.promise(st, a)
			stall, chain := c.stall > 0, st.sb != nil && st.pos == 0
			onBP := c.BP.Enabled && c.PC == c.BP.Addr
			n2 := uint64(0)
			if n1 == a {
				n2 = m.ahead(st, limit-a)
			}
			full := a%512 == 0
			got := aheadDigest(m, st, snap, full)
			want := whole
			if full {
				want = wholeFull
			}
			if n1+n2 != n || got != want {
				t.Fatalf("core %d at pc %#x: ahead(%d) then ahead(%d) ran %d+%d cycles, ahead(%d) %d:\n%s",
					c.ID, snap.run.pc, a, limit-a, n1, n2, limit, n, diffLine(got, want))
			}
			seen.points++
			if onBP {
				seen.bp++
			}
			switch {
			case a == n && n < limit:
				seen.stop++
			case a < n && stall:
				seen.stall++
			case a < n && chain:
				seen.chain++
			}
		}
		snap.restore(m, c)
	}
	return seen
}

// privCauseSeeds returns the FuzzBatchTrap corpus seeds of the private
// layout, one per run-ahead stop or rewind cause.
func privCauseSeeds(t *testing.T) []uint64 {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzBatchTrap/*")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s := string(b)
		i, j := strings.Index(s, "uint64("), strings.LastIndex(s, ")")
		seed, err := strconv.ParseUint(s[i+len("uint64("):j], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if seed>>32&1 != 0 {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 10 {
		t.Fatalf("%d private-layout seeds in the FuzzBatchTrap corpus", len(seeds))
	}
	return seeds
}

// trapSplits expands seed and checks every split of its cores' runs
// before the first call and after each one.
func trapSplits(t *testing.T, seed uint64) (seen splitSeen) {
	sc, calls := newTrapScenario(t, seed, true)
	seen.add(aheadSplitCheck(t, sc.m, 3000))
	for _, call := range calls {
		sc.do(call)
		seen.add(aheadSplitCheck(t, sc.m, 3000))
	}
	return seen
}

// longRun is a two-core private layout whose runs outlast the probe: each
// core loops over stores and loads into a private page of its own, from
// read-only text of its own, and enters the kernel every 600 iterations, so
// most of each core's cycles run ahead beside the other's run and every
// syscall rewinds the other. The handler counts traps in r20 and steps over
// a breakpoint. bp[i] is core i's instruction inside its inner loop's block.
func longRun(t *testing.T, sb bool) (m *Machine, bp [2]uint64) {
	m = New(X86(), 1<<17)
	m.SetSuperblock(sb)
	m.SetExecCache(sb)
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) {
		c.Regs[20]++
		if tr.Kind == TrapBreakpoint {
			c.ResumeOnce = true
		}
	}))
	for i := range 2 {
		text, data := uint64(0x1000+i*0x1000), uint64(0x10000+i*0x1000)
		b := asm.New()
		b.Li64(3, data)
		b.Li(10, int32(600+i*37))
		b.Label("outer")
		b.Li(5, 0)
		b.Label("inner")
		b.Addi(5, 5, 1)
		b.St(8, 3, 5, 0)
		b.Ld(8, 6, 3, 8)
		b.Add(7, 7, 6)
		bp[i] = text + uint64(b.Len())*isa.InstrBytes
		b.Mul(8, 5, 5)
		b.St(8, 3, 8, 16)
		b.Andi(9, 5, 31)
		b.Shli(9, 9, 6)
		b.Add(9, 9, 3)
		b.St(8, 9, 7, 0x100)
		b.Bne(5, 10, "inner")
		b.Syscall(1)
		b.J("outer")
		mustLoad(t, m, b, text)
		m.StartCore(i, text, &AddrSpace{Segs: []Segment{
			{VBase: text, PBase: text, Size: 0x1000, Perm: PermR | PermX},
			{VBase: data, PBase: data, Size: 0x1000, Perm: PermR | PermW},
		}})
	}
	return m, bp
}

// longRunScenario runs longRun through a series of Run calls and returns
// the machine's state after each and the batch engine's counters.
func longRunScenario(t *testing.T, sb bool) (string, SuperblockStats) {
	m, _ := longRun(t, sb)
	var out strings.Builder
	for _, n := range []uint64{5_000, 1, 20_011, 4_097, 60_000, 333, 100_000} {
		m.Run(n)
		fmt.Fprintf(&out, "now=%d\n", m.Now())
		for i := range 2 {
			c := m.Core(i)
			fmt.Fprintf(&out, "%d: %d %d %#x %v\n", i, c.Cycles, c.Instructions, c.PC, c.Regs)
		}
		out.WriteString(memState(m))
	}
	return out.String(), m.SuperblockStats()
}

// bpSplits checks every split of longRun's runs with a breakpoint armed
// inside each core's inner-loop block, at 150 points of its run: a run
// stops as it steps onto the breakpoint, so some split lands there, where a
// jitter draw that fires is taken ahead in one call and must be in two.
func bpSplits(t *testing.T) (seen splitSeen) {
	m, bp := longRun(t, true)
	for i := range 2 {
		m.Core(i).BP = Breakpoint{Addr: bp[i], Enabled: true}
	}
	for range 150 {
		m.Run(199)
		seen.add(aheadSplitCheck(t, m, 600))
	}
	return seen
}

// trapRender expands seed on the batch engine and renders it after every
// call.
func trapRender(t *testing.T, seed uint64) (string, SuperblockStats) {
	sc, calls := newTrapScenario(t, seed, true)
	var out strings.Builder
	for _, call := range calls {
		sc.do(call)
		out.WriteString(sc.render())
	}
	return out.String(), sc.m.SuperblockStats()
}
