//go:build !unix || race

package machine

// mapRAM has no demand-zero mapping to offer here: NewMem allocates RAM on
// the heap. Race builds come here too, so the race detector sees every
// guest RAM access.
func mapRAM(int) []byte { return nil }

func unmapRAM([]byte) {}
