//go:build unix && !race

package machine

import "syscall"

// mapRAM returns size bytes of anonymous private memory: every byte reads
// zero, and the host commits a page only when it is first written. It
// backs guest RAM (NewMem) and a machine's core cache arrays (newCaches).
// It returns nil only for an empty size. A refused mapping panics, as make
// does when the heap cannot grow: a same-size heap allocation would fail
// too.
//
// Race builds use ram_other.go instead: the race detector checks only
// accesses to the Go heap and data segments, so a mapping would hide every
// access to guest RAM and to the cache arrays from it.
func mapRAM(size int) []byte {
	if size <= 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("machine: mapping guest RAM: " + err.Error())
	}
	return b
}

// unmapRAM releases a mapping mapRAM returned. It runs from a finalizer,
// which has no caller to report a failure to; Munmap fails only for a
// slice mapRAM did not return.
func unmapRAM(b []byte) { _ = syscall.Munmap(b) }
