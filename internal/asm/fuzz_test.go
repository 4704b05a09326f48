package asm

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rcoe/internal/isa"
)

// FuzzAsm drives the builder with a program decoded from the input and
// checks that it never panics, that every error it reports is an
// ErrBadProgram, and that every program it accepts encodes to an image the
// decoder reads back instruction for instruction.
//
// The input is a 4-byte little-endian load address followed by records,
// each a kind byte (mod 8) and its operands; a truncated record ends the
// program:
//
//	0 raw      op rd rs1 rs2 imm32   Raw: any opcode, any register byte
//	1 label    n                     Label(labels[n%5])
//	2 jump     k n                   J, Beq, Call or LiLabel to labels[n%5]
//	3 load     size rd rs1 imm8      Ld
//	4 store    size rs1 rs2 imm8     St
//	5 liva     rd va64               LiVA
//	6 li64     rd v64                Li64
//	7 rewrite  n                     RewriteWindows(n%3+1) over NOP runs
func FuzzAsm(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		b, base := fuzzProgram(in)
		prog, err := b.Assemble(base)
		if err != nil {
			if !errors.Is(err, ErrBadProgram) {
				t.Fatalf("Assemble = %v, not an ErrBadProgram", err)
			}
			return
		}
		if len(prog) != b.Len() {
			t.Fatalf("assembled %d instructions of %d", len(prog), b.Len())
		}
		back, err := isa.DecodeProgram(isa.EncodeProgram(prog))
		if err != nil {
			t.Fatalf("an accepted program does not decode: %v", err)
		}
		for i := range prog {
			if back[i] != prog[i] {
				t.Fatalf("instruction %d: %+v decodes back as %+v", i, prog[i], back[i])
			}
		}
	})
}

// TestAsmCorpusOutcomes pins what each named FuzzAsm seed exercises: the
// valid-* programs assemble, every other seed fails for the reason its
// name gives.
func TestAsmCorpusOutcomes(t *testing.T) {
	reasons := map[string]string{
		"bad-mnemonic":       "undefined opcode",
		"bad-mnemonic-zero":  "undefined opcode",
		"bad-register":       "out of range",
		"bad-register-load":  "out of range",
		"bad-load-size":      "bad load size",
		"bad-store-size":     "bad store size",
		"bad-immediate":      "exceeds imm32",
		"label-beyond-imm32": "exceeds imm32",
		"undefined-label":    "undefined label",
		"duplicate-label":    "duplicate label",
		"label-into-window":  "rewritten window",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzAsm")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
		in, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		b, base := fuzzProgram([]byte(in))
		_, err = b.Assemble(base)
		want, bad := reasons[f.Name()]
		switch {
		case !bad && !strings.HasPrefix(f.Name(), "valid-"):
			t.Errorf("%s: seed without an expected outcome", f.Name())
		case !bad && err != nil:
			t.Errorf("%s: %v", f.Name(), err)
		case bad && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: Assemble = %v, want an error about %q", f.Name(), err, want)
		}
	}
}

var fuzzLabels = [5]string{"a", "b", "c", "d", "never"}

// fuzzProgram builds the program in describes (see FuzzAsm).
func fuzzProgram(in []byte) (*Builder, uint64) {
	b := New()
	base := uint64(0x10000)
	if len(in) >= 4 {
		base = uint64(binary.LittleEndian.Uint32(in))
		in = in[4:]
	}
	take := func(n int) []byte {
		if len(in) < n {
			in = nil
			return nil
		}
		p := in[:n]
		in = in[n:]
		return p
	}
	for len(in) > 0 {
		kind := in[0] % 8
		in = in[1:]
		switch kind {
		case 0:
			if p := take(8); p != nil {
				b.Raw(isa.Instr{Op: isa.Opcode(p[0]), Rd: p[1], Rs1: p[2], Rs2: p[3], Imm: int32(binary.LittleEndian.Uint32(p[4:]))})
			}
		case 1:
			if p := take(1); p != nil {
				b.Label(fuzzLabels[p[0]%5])
			}
		case 2:
			if p := take(2); p != nil {
				l := fuzzLabels[p[1]%5]
				switch p[0] % 4 {
				case 0:
					b.J(l)
				case 1:
					b.Beq(1, 2, l)
				case 2:
					b.Call(l)
				default:
					b.LiLabel(3, l)
				}
			}
		case 3:
			if p := take(4); p != nil {
				b.Ld(int(int8(p[0])), p[1], p[2], int32(int8(p[3])))
			}
		case 4:
			if p := take(4); p != nil {
				b.St(int(int8(p[0])), p[1], p[2], int32(int8(p[3])))
			}
		case 5:
			if p := take(9); p != nil {
				b.LiVA(p[0], binary.LittleEndian.Uint64(p[1:]))
			}
		case 6:
			if p := take(9); p != nil {
				b.Li64(p[0], binary.LittleEndian.Uint64(p[1:]))
			}
		case 7:
			if p := take(1); p != nil {
				b.RewriteWindows(int(p[0]%3)+1, func(w []isa.Instr) bool {
					for _, ins := range w {
						if ins.Op != isa.OpNop {
							return false
						}
					}
					return true
				}, func([]isa.Instr) []isa.Instr { return []isa.Instr{{Op: isa.OpNop}} })
			}
		}
	}
	return b, base
}
