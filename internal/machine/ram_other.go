//go:build !unix || race

package machine

// mapRAM has no demand-zero mapping to offer here: NewMem allocates RAM,
// and newCaches the cache arrays, on the heap. Race builds come here too,
// so the race detector sees every access to them.
func mapRAM(int) []byte { return nil }

func unmapRAM([]byte) {}
