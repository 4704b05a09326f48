//go:build linux && !race

package machine

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	snap "rcoe/internal/snapshot"
)

// These tests build without -race only: race builds keep RAM on the heap
// (ram_other.go), where nothing is demand-zero.

// demandZeroMachine builds a machine with size bytes of RAM and opts its
// mapping out of transparent huge pages, so residency counts base pages.
func demandZeroMachine(t *testing.T, size int) *Machine {
	t.Helper()
	m := New(X86(), size)
	if err := syscall.Madvise(m.Mem().bytes, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Fatalf("madvise: %v", err)
	}
	return m
}

// resident counts the host pages of mm's RAM that mincore reports resident.
func resident(t *testing.T, mm *Mem) int {
	t.Helper()
	ps := os.Getpagesize()
	vec := make([]byte, (len(mm.bytes)+ps-1)/ps)
	_, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&mm.bytes[0])),
		uintptr(len(mm.bytes)), uintptr(unsafe.Pointer(&vec[0])))
	if e != 0 {
		t.Fatalf("mincore: %v", e)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n
}

// hostPages returns the number of distinct host pages covering the given
// guest pages.
func hostPages(guest []uint64) int {
	ps := uint64(os.Getpagesize())
	set := map[uint64]bool{}
	for _, p := range guest {
		for a := p << pageShift; a < (p+1)<<pageShift; a += min(ps, 1<<pageShift) {
			set[a/ps] = true
		}
	}
	return len(set)
}

// TestRAMDemandZero pins what demand-zero RAM buys: a fresh machine holds
// no resident RAM and reads zero everywhere, a word store commits one
// page, a save reads no untouched page, a sparse snapshot loaded onto a
// fresh machine commits only the image's pages, and a delta rewind
// commits nothing new.
func TestRAMDemandZero(t *testing.T) {
	const size = 64 << 20
	m := demandZeroMachine(t, size)
	mm := m.Mem()
	if n := resident(t, mm); n != 0 {
		t.Fatalf("fresh machine: %d resident pages, want 0", n)
	}
	const word = 4321<<pageShift + 64
	if err := mm.WriteU(word, 8, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	if n, want := resident(t, mm), hostPages([]uint64{word >> pageShift}); n != want {
		t.Fatalf("after one WriteU: %d resident pages, want %d", n, want)
	}
	if _, err := snap.Save(m); err != nil {
		t.Fatal(err)
	}
	if n, want := resident(t, mm), hostPages([]uint64{word >> pageShift}); n != want {
		t.Fatalf("after a save: %d resident pages, want %d", n, want)
	}
	if err := mm.WriteU(word, 8, 0); err != nil {
		t.Fatal(err)
	}
	if !allZero(mm.bytes) {
		t.Fatal("RAM does not read zero everywhere")
	}

	// A sparse image: three scattered pages on an otherwise fresh machine.
	src := New(X86(), size)
	image := []uint64{3, 1000, 16000}
	for i, p := range image {
		if err := src.Mem().Fill(p<<pageShift, 1<<pageShift, byte(0x11*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := snap.Save(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := demandZeroMachine(t, size)
	if err := dst.LoadState(img); err != nil {
		t.Fatal(err)
	}
	if n, want := resident(t, dst.Mem()), hostPages(image); n != want {
		t.Fatalf("sparse load onto a fresh machine: %d resident pages, want %d", n, want)
	}

	// Dirty an image page and a gap page, then rewind onto the same image.
	if err := dst.Mem().FlipBit(1000<<pageShift+5, 2); err != nil {
		t.Fatal(err)
	}
	if err := dst.Mem().WriteU(2000<<pageShift, 8, 7); err != nil {
		t.Fatal(err)
	}
	before := resident(t, dst.Mem())
	if err := dst.LoadState(img); err != nil {
		t.Fatal(err)
	}
	if n := resident(t, dst.Mem()); n != before {
		t.Fatalf("delta rewind: %d resident pages, want %d", n, before)
	}
	mustMatch(t, dst, data)
}

// vmSize reads the process's mapped address space from /proc/self/status.
func vmSize(t *testing.T) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmSize:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmSize in /proc/self/status")
	return 0
}

// TestRAMUnmappedWhenUnreachable builds and drops 64 machines of 256 MiB
// (16 GiB of mappings in all), collecting every eighth: the mapped address
// space must stay bounded, which holds only if a dropped machine's RAM is
// unmapped.
func TestRAMUnmappedWhenUnreachable(t *testing.T) {
	const size, machines = 256 << 20, 64
	base := vmSize(t)
	var peak uint64
	for i := 0; i < machines; i++ {
		m := New(X86(), size)
		if err := m.Mem().WriteU(uint64(i)<<pageShift, 8, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			runtime.GC()
		}
		peak = max(peak, vmSize(t))
	}
	if grown, bound := peak-min(peak, base), uint64(machines*size/2); grown > bound {
		t.Fatalf("address space grew by %d MiB over %d machines, bound %d MiB: dropped RAM is not unmapped",
			grown>>20, machines, bound>>20)
	}
}
