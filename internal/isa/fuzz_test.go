package isa

import (
	"errors"
	"testing"
)

// FuzzDecode asserts the decoder is total: no panic on any input, every
// rejection is ErrBadInstr, and every accepted encoding re-encodes to the
// same eight bytes, so no two encodings decode alike. The committed corpus
// holds valid encodings and each kind of invalid one.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ins, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrBadInstr) {
				t.Fatalf("Decode(%x) = %v, not an ErrBadInstr", b, err)
			}
			return
		}
		if got := Encode(ins); string(got[:]) != string(b[:InstrBytes]) {
			t.Fatalf("Decode(%x) = %+v, which re-encodes to %x", b, ins, got)
		}
	})
}
