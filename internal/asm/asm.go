// Package asm provides a programmatic assembler for the simulated ISA.
//
// Guest programs (the paper's benchmarks, the key-value server, the MD5
// workload) are written against this builder: instructions are appended
// with mnemonic methods, control flow uses symbolic labels, and Assemble
// resolves labels to absolute addresses for a given load address.
package asm

import (
	"errors"
	"fmt"
	"math"

	"rcoe/internal/isa"
)

// ErrBadProgram is wrapped by every error the builder records or Assemble
// returns: an undefined opcode, a register out of range, a bad access size,
// a duplicate label or one into a rewritten window, an undefined label, an
// address beyond the imm32 range.
var ErrBadProgram = errors.New("asm: bad program")

// Builder accumulates a program. The zero value is not ready to use; call
// New.
type Builder struct {
	instrs []isa.Instr
	labels map[string]int
	fixups []fixup
	relocs []int // indices of LiVA address literals (see Relocs)
	err    error
}

type fixup struct {
	index int // instruction index whose Imm needs the label address
	label string
}

// New creates an empty program builder.
func New() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Err returns the first error recorded while building (duplicate labels,
// bad register indices, undefined opcodes). Assemble also returns it.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = badProgram(format, args...)
	}
}

// badProgram formats an ErrBadProgram.
func badProgram(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadProgram, fmt.Sprintf(format, args...))
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.instrs) }

// Label defines a symbolic location at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.instrs)
}

func (b *Builder) checkReg(rs ...uint8) {
	for _, r := range rs {
		if r >= isa.NumRegs {
			b.fail("register r%d out of range", r)
		}
	}
}

func (b *Builder) emit(i isa.Instr) {
	if !i.Op.Valid() {
		b.fail("undefined opcode %d", uint8(i.Op))
	}
	b.checkReg(i.Rd, i.Rs1, i.Rs2)
	b.instrs = append(b.instrs, i)
}

func (b *Builder) emitLabelled(i isa.Instr, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.instrs), label: label})
	b.emit(i)
}

// Raw appends an already-formed instruction.
func (b *Builder) Raw(i isa.Instr) { b.emit(i) }

// --- Integer register-register ---

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2 (signed; division by zero traps).
func (b *Builder) Div(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Divu emits rd = rs1 / rs2 (unsigned).
func (b *Builder) Divu(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpDivu, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem emits rd = rs1 % rs2 (unsigned remainder).
func (b *Builder) Rem(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpRem, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 uint8) { b.emit(isa.Instr{Op: isa.OpOr, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpXor, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shl emits rd = rs1 << (rs2 & 63).
func (b *Builder) Shl(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpShl, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shr emits rd = rs1 >> (rs2 & 63) (logical).
func (b *Builder) Shr(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpShr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sra emits rd = int64(rs1) >> (rs2 & 63).
func (b *Builder) Sra(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpSra, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Slt emits rd = 1 if int64(rs1) < int64(rs2) else 0.
func (b *Builder) Slt(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sltu emits rd = 1 if rs1 < rs2 (unsigned) else 0.
func (b *Builder) Sltu(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpSltu, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// --- Integer immediate ---

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & uint64(imm sign-extended).
func (b *Builder) Andi(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | uint64(imm sign-extended).
func (b *Builder) Ori(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpOri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xori emits rd = rs1 ^ uint64(imm sign-extended).
func (b *Builder) Xori(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpXori, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpShli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpShri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srai emits rd = int64(rs1) >> imm.
func (b *Builder) Srai(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpSrai, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slti emits rd = 1 if int64(rs1) < imm else 0.
func (b *Builder) Slti(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpSlti, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li emits rd = sign-extended imm32.
func (b *Builder) Li(rd uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpLi, Rd: rd, Imm: imm})
}

// LiLabel loads a label's absolute address (resolved at assembly).
func (b *Builder) LiLabel(rd uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpLi, Rd: rd}, label)
}

// LiVA loads a user-space virtual-address literal into rd and records a
// relocation for it, so the loader can shift the literal when the process
// image is laid out with a per-replica delta (structural decorrelation,
// kernel.ProcessConfig.Relocs). Only addresses inside the shiftable
// window — the data and stack segments — belong in LiVA; text, shared,
// and device addresses are identical across replicas and use Li64.
func (b *Builder) LiVA(rd uint8, va uint64) {
	if int64(va) != int64(int32(va)) {
		b.fail("virtual address %#x exceeds imm32 range for LiVA", va)
		return
	}
	b.relocs = append(b.relocs, len(b.instrs))
	b.Li(rd, int32(va))
}

// Relocs returns the instruction indices of LiVA address literals in the
// final program (valid after all rewrites), for kernel.ProcessConfig.
func (b *Builder) Relocs() []int { return append([]int(nil), b.relocs...) }

// Li64 loads an arbitrary 64-bit constant, using one instruction when the
// value fits in a sign-extended imm32 and two otherwise.
func (b *Builder) Li64(rd uint8, v uint64) {
	if int64(v) == int64(int32(v)) {
		b.Li(rd, int32(v))
		return
	}
	b.Li(rd, int32(v>>32))
	b.emit(isa.Instr{Op: isa.OpLih, Rd: rd, Imm: int32(uint32(v))})
}

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs uint8) { b.Add(rd, rs, isa.RZero) }

// Fconst loads a float64 constant's bit pattern into rd.
func (b *Builder) Fconst(rd uint8, f float64) {
	b.Li64(rd, math.Float64bits(f))
}

// --- Memory ---

// Ld emits a zero-extending load of size 1, 2, 4, or 8 bytes from rs1+imm.
func (b *Builder) Ld(size int, rd, rs1 uint8, imm int32) {
	op, ok := loadOp(size)
	if !ok {
		b.fail("bad load size %d", size)
		return
	}
	b.emit(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// St emits a store of size 1, 2, 4, or 8 bytes of rs2 to rs1+imm.
func (b *Builder) St(size int, rs1, rs2 uint8, imm int32) {
	op, ok := storeOp(size)
	if !ok {
		b.fail("bad store size %d", size)
		return
	}
	b.emit(isa.Instr{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm})
}

func loadOp(size int) (isa.Opcode, bool) {
	switch size {
	case 1:
		return isa.OpLd1, true
	case 2:
		return isa.OpLd2, true
	case 4:
		return isa.OpLd4, true
	case 8:
		return isa.OpLd8, true
	}
	return isa.OpInvalid, false
}

func storeOp(size int) (isa.Opcode, bool) {
	switch size {
	case 1:
		return isa.OpSt1, true
	case 2:
		return isa.OpSt2, true
	case 4:
		return isa.OpSt4, true
	case 8:
		return isa.OpSt8, true
	}
	return isa.OpInvalid, false
}

// --- Control flow ---

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBeq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt branches to label when int64(rs1) < int64(rs2).
func (b *Builder) Blt(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBlt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge branches to label when int64(rs1) >= int64(rs2).
func (b *Builder) Bge(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBge, Rs1: rs1, Rs2: rs2}, label)
}

// Bltu branches to label when rs1 < rs2 (unsigned).
func (b *Builder) Bltu(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBltu, Rs1: rs1, Rs2: rs2}, label)
}

// Bgeu branches to label when rs1 >= rs2 (unsigned).
func (b *Builder) Bgeu(rs1, rs2 uint8, label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpBgeu, Rs1: rs1, Rs2: rs2}, label)
}

// J jumps unconditionally to label.
func (b *Builder) J(label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpJ}, label)
}

// Call jumps to label, saving the return address in the link register.
func (b *Builder) Call(label string) {
	b.emitLabelled(isa.Instr{Op: isa.OpJal, Rd: isa.RLR}, label)
}

// Ret returns to the address in the link register.
func (b *Builder) Ret() {
	b.emit(isa.Instr{Op: isa.OpJr, Rs1: isa.RLR})
}

// Jr jumps to the address in rs1.
func (b *Builder) Jr(rs1 uint8) {
	b.emit(isa.Instr{Op: isa.OpJr, Rs1: rs1})
}

// Jalr jumps to rs1+imm, saving the return address in rd.
func (b *Builder) Jalr(rd, rs1 uint8, imm int32) {
	b.emit(isa.Instr{Op: isa.OpJalr, Rd: rd, Rs1: rs1, Imm: imm})
}

// --- Floating point ---

// Fadd emits rd = rs1 + rs2 (binary64).
func (b *Builder) Fadd(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFadd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fsub emits rd = rs1 - rs2 (binary64).
func (b *Builder) Fsub(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFsub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fmul emits rd = rs1 * rs2 (binary64).
func (b *Builder) Fmul(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFmul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fdiv emits rd = rs1 / rs2 (binary64).
func (b *Builder) Fdiv(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFdiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fsqrt emits rd = sqrt(rs1).
func (b *Builder) Fsqrt(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFsqrt, Rd: rd, Rs1: rs1}) }

// Fsin emits rd = sin(rs1).
func (b *Builder) Fsin(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFsin, Rd: rd, Rs1: rs1}) }

// Fcos emits rd = cos(rs1).
func (b *Builder) Fcos(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFcos, Rd: rd, Rs1: rs1}) }

// Fexp emits rd = exp(rs1).
func (b *Builder) Fexp(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFexp, Rd: rd, Rs1: rs1}) }

// Flog emits rd = log(rs1).
func (b *Builder) Flog(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFlog, Rd: rd, Rs1: rs1}) }

// Fatan emits rd = atan(rs1).
func (b *Builder) Fatan(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFatan, Rd: rd, Rs1: rs1}) }

// FcvtIF emits rd = float64(int64(rs1)).
func (b *Builder) FcvtIF(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFcvtIF, Rd: rd, Rs1: rs1}) }

// FcvtFI emits rd = int64(float64(rs1)).
func (b *Builder) FcvtFI(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpFcvtFI, Rd: rd, Rs1: rs1}) }

// Flt emits rd = 1 if float64(rs1) < float64(rs2) else 0.
func (b *Builder) Flt(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFlt, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Fle emits rd = 1 if float64(rs1) <= float64(rs2) else 0.
func (b *Builder) Fle(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFle, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Feq emits rd = 1 if float64(rs1) == float64(rs2) else 0.
func (b *Builder) Feq(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpFeq, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// --- Atomics and block ops ---

// LL emits a load-linked of mem64[rs1] into rd.
func (b *Builder) LL(rd, rs1 uint8) { b.emit(isa.Instr{Op: isa.OpLL, Rd: rd, Rs1: rs1}) }

// SC emits a store-conditional of rs2 to mem64[rs1]; rd = 0 on success.
func (b *Builder) SC(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpSC, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Cas emits a compare-and-swap: expected value in rd, new value in rs2,
// address in rs1; rd receives the observed value.
func (b *Builder) Cas(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpCas, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xadd emits an atomic fetch-and-add of rs2 to mem64[rs1]; rd receives the
// prior value.
func (b *Builder) Xadd(rd, rs1, rs2 uint8) {
	b.emit(isa.Instr{Op: isa.OpXadd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Memcpy emits the rep-style block copy: length in rd, dst in rs1, src in
// rs2; all three registers advance as the copy progresses.
func (b *Builder) Memcpy(lenReg, dstReg, srcReg uint8) {
	b.emit(isa.Instr{Op: isa.OpMemcpy, Rd: lenReg, Rs1: dstReg, Rs2: srcReg})
}

// Memset emits the rep-style block fill: length in rd, dst in rs1, fill
// byte in imm.
func (b *Builder) Memset(lenReg, dstReg uint8, fill byte) {
	b.emit(isa.Instr{Op: isa.OpMemset, Rd: lenReg, Rs1: dstReg, Imm: int32(fill)})
}

// --- System ---

// Syscall emits a system call with the given number; arguments are taken
// from R1..R4 by the kernel and the result is returned in R1.
func (b *Builder) Syscall(num int32) {
	b.emit(isa.Instr{Op: isa.OpSyscall, Imm: num})
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Instr{Op: isa.OpNop}) }

// Hlt emits a halt (terminates the thread; only meaningful to the kernel).
func (b *Builder) Hlt() { b.emit(isa.Instr{Op: isa.OpHlt}) }

// Push stores rs at the top of the stack (pre-decrement).
func (b *Builder) Push(rs uint8) {
	b.Addi(isa.RSP, isa.RSP, -8)
	b.St(8, isa.RSP, rs, 0)
}

// Pop loads rd from the top of the stack (post-increment).
func (b *Builder) Pop(rd uint8) {
	b.Ld(8, rd, isa.RSP, 0)
	b.Addi(isa.RSP, isa.RSP, 8)
}

// RewriteBefore inserts gen(i) before every instruction satisfying pred,
// remapping labels and pending fixups. Labels that pointed at a rewritten
// instruction point at the first inserted instruction afterwards, so a
// jump to an instrumented branch executes the inserted code first — the
// semantics of a compiler pass that prepends instructions to an insn.
func (b *Builder) RewriteBefore(pred func(isa.Instr) bool, gen func(isa.Instr) []isa.Instr) {
	if b.err != nil {
		return
	}
	prefixStart := make([]int, len(b.instrs)+1) // label target remap
	origPos := make([]int, len(b.instrs))       // fixup (instruction) remap
	var out []isa.Instr
	for i, ins := range b.instrs {
		prefixStart[i] = len(out)
		if pred(ins) {
			out = append(out, gen(ins)...)
		}
		origPos[i] = len(out)
		out = append(out, ins)
	}
	prefixStart[len(b.instrs)] = len(out)
	for fi := range b.fixups {
		b.fixups[fi].index = origPos[b.fixups[fi].index]
	}
	for ri := range b.relocs {
		b.relocs[ri] = origPos[b.relocs[ri]]
	}
	for name, idx := range b.labels {
		b.labels[name] = prefixStart[idx]
	}
	b.instrs = out
}

// Assemble resolves labels against the given text load address and returns
// the finished instruction sequence.
func (b *Builder) Assemble(base uint64) ([]isa.Instr, error) {
	if b.err != nil {
		return nil, b.err
	}
	out := append([]isa.Instr(nil), b.instrs...)
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, badProgram("undefined label %q", f.label)
		}
		addr := base + uint64(idx)*isa.InstrBytes
		if addr > 0x7fffffff || addr < base {
			return nil, badProgram("label %q address %#x exceeds imm32 range", f.label, addr)
		}
		out[f.index].Imm = int32(addr)
	}
	return out, nil
}

// MustAssemble is Assemble for program construction in tests and examples
// where a build error is a programming bug.
func (b *Builder) MustAssemble(base uint64) []isa.Instr {
	prog, err := b.Assemble(base)
	if err != nil {
		panic(err)
	}
	return prog
}

// RewriteWindows replaces every non-overlapping run of `size` consecutive
// instructions satisfying match with gen's output, remapping labels and
// dropping fixups that pointed into the replaced window (the replacement
// must be self-contained straight-line code). A label may point at the
// start of a matched window — it moves to the replacement's first
// instruction — but a label into the middle of one is an error.
func (b *Builder) RewriteWindows(size int, match func([]isa.Instr) bool, gen func([]isa.Instr) []isa.Instr) {
	if b.err != nil || size <= 0 {
		return
	}
	labelAt := make(map[int][]string)
	for name, idx := range b.labels {
		labelAt[idx] = append(labelAt[idx], name)
	}
	fixupAt := make(map[int][]fixup)
	for _, f := range b.fixups {
		fixupAt[f.index] = append(fixupAt[f.index], f)
	}
	relocAt := make(map[int]int)
	for _, r := range b.relocs {
		relocAt[r]++
	}
	var out []isa.Instr
	var outFixups []fixup
	var outRelocs []int
	i := 0
	for i < len(b.instrs) {
		if i+size <= len(b.instrs) && match(b.instrs[i:i+size]) {
			for j := i + 1; j < i+size; j++ {
				if names := labelAt[j]; len(names) > 0 {
					b.fail("label %q points into a rewritten window", names[0])
					return
				}
			}
			for _, name := range labelAt[i] {
				b.labels[name] = len(out)
			}
			out = append(out, gen(b.instrs[i:i+size])...)
			i += size
			continue
		}
		for _, name := range labelAt[i] {
			b.labels[name] = len(out)
		}
		for _, f := range fixupAt[i] {
			f.index = len(out)
			outFixups = append(outFixups, f)
		}
		for k := 0; k < relocAt[i]; k++ {
			outRelocs = append(outRelocs, len(out))
		}
		out = append(out, b.instrs[i])
		i++
	}
	// Trailing labels (pointing one past the end).
	for _, name := range labelAt[len(b.instrs)] {
		b.labels[name] = len(out)
	}
	b.instrs = out
	b.fixups = outFixups
	b.relocs = outRelocs
}
