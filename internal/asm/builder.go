// Package asm assembles g86 machine code. It offers two front ends over the
// same core: Builder, a programmatic assembler used by the workload
// generators and tests, and Assemble, a two-pass text assembler used by
// cmd/g86asm.
package asm

import (
	"fmt"

	"cms/internal/guest"
)

// Mem builds a [base] operand.
func Mem(base guest.Reg) guest.MemOperand {
	return guest.MemOperand{HasBase: true, Base: base}
}

// MemD builds a [base+disp] operand.
func MemD(base guest.Reg, disp uint32) guest.MemOperand {
	return guest.MemOperand{HasBase: true, Base: base, Disp: disp}
}

// MemIdx builds a [base+index*scale+disp] operand; scale must be 1, 2, 4 or 8.
func MemIdx(base, index guest.Reg, scale uint8, disp uint32) guest.MemOperand {
	var lg uint8
	switch scale {
	case 1:
		lg = 0
	case 2:
		lg = 1
	case 4:
		lg = 2
	case 8:
		lg = 3
	default:
		panic("asm: scale must be 1, 2, 4, or 8")
	}
	return guest.MemOperand{HasBase: true, Base: base, HasIndex: true, Index: index, ScaleLog: lg, Disp: disp}
}

// Abs builds an absolute [disp] operand.
func Abs(disp uint32) guest.MemOperand { return guest.MemOperand{Disp: disp} }

type fixup struct {
	off    uint32 // offset in buf of the 32-bit field to patch
	label  string
	rel    bool   // patch as rel32 relative to insnEnd
	end    uint32 // address just past the instruction (for rel32)
	addend uint32 // added to the resolved label address
	srcLn  int    // text-assembler line for error reporting
}

// Builder assembles instructions at increasing addresses starting at an
// origin. Forward references to labels are resolved by Assemble.
type Builder struct {
	org    uint32
	buf    []byte
	labels map[string]uint32
	fixups []fixup
	errs   []error

	// lastOp/lastLen describe the most recently emitted instruction, so the
	// text assembler can locate operand fields for label fixups.
	lastOp  guest.Op
	lastLen uint32
}

// NewBuilder returns a Builder whose first instruction lands at org.
func NewBuilder(org uint32) *Builder {
	return &Builder{org: org, labels: make(map[string]uint32)}
}

// Origin returns the load address of the image.
func (b *Builder) Origin() uint32 { return b.org }

// Addr returns the address of the next byte to be emitted.
func (b *Builder) Addr() uint32 { return b.org + uint32(len(b.buf)) }

// Label defines name at the current address.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return b
	}
	b.labels[name] = b.Addr()
	return b
}

// LabelAddr returns the address of a defined label; it fails the final
// Assemble if the label is never defined.
func (b *Builder) LabelAddr(name string) uint32 {
	if a, ok := b.labels[name]; ok {
		return a
	}
	b.errs = append(b.errs, fmt.Errorf("asm: LabelAddr of undefined label %q", name))
	return 0
}

// Emit appends one instruction.
func (b *Builder) Emit(in guest.Insn) *Builder {
	b.buf = guest.Encode(b.buf, in)
	b.lastOp, b.lastLen = in.Op, guest.EncodedLen(in.Op)
	return b
}

// emitRel appends a rel32 control transfer to a label.
func (b *Builder) emitRel(op guest.Op, label string) *Builder {
	start := uint32(len(b.buf))
	b.buf = guest.Encode(b.buf, guest.Insn{Op: op})
	// The rel32 immediate is the last 4 bytes of the encoding.
	b.fixups = append(b.fixups, fixup{
		off:   uint32(len(b.buf)) - 4,
		label: label,
		rel:   true,
		end:   b.org + uint32(len(b.buf)),
	})
	_ = start
	return b
}

// Bytes appends raw data bytes.
func (b *Builder) Bytes(data ...byte) *Builder {
	b.buf = append(b.buf, data...)
	return b
}

// D32 appends a 32-bit little-endian data word.
func (b *Builder) D32(v uint32) *Builder {
	b.buf = append(b.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return b
}

// D32Label appends a 32-bit word holding the address of a label (an
// absolute pointer, e.g. an IVT entry or jump-table slot).
func (b *Builder) D32Label(label string) *Builder {
	b.fixups = append(b.fixups, fixup{off: uint32(len(b.buf)), label: label})
	return b.D32(0)
}

// Space appends n zero bytes.
func (b *Builder) Space(n int) *Builder {
	b.buf = append(b.buf, make([]byte, n)...)
	return b
}

// Align pads with NOP-encoding zero... pads with 0x00 (OpNOP) to an n-byte
// boundary of the *address* (not buffer offset).
func (b *Builder) Align(n uint32) *Builder {
	for b.Addr()%n != 0 {
		b.buf = append(b.buf, byte(guest.OpNOP))
	}
	return b
}

// Assemble resolves all fixups and returns the image. The image loads at
// Origin().
func (b *Builder) Assemble() ([]byte, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			where := ""
			if f.srcLn > 0 {
				where = fmt.Sprintf(" (line %d)", f.srcLn)
			}
			return nil, fmt.Errorf("asm: undefined label %q%s", f.label, where)
		}
		v := target + f.addend
		if f.rel {
			v = target - f.end
		}
		b.buf[f.off] = byte(v)
		b.buf[f.off+1] = byte(v >> 8)
		b.buf[f.off+2] = byte(v >> 16)
		b.buf[f.off+3] = byte(v >> 24)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out, nil
}

// MustAssemble is Assemble that panics on error, for tests and generators
// whose input is program-controlled.
func (b *Builder) MustAssemble() []byte {
	img, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return img
}

// --- Convenience emitters ----------------------------------------------------

// Nop emits nop.
func (b *Builder) Nop() *Builder { return b.Emit(guest.Insn{Op: guest.OpNOP}) }

// Hlt emits hlt.
func (b *Builder) Hlt() *Builder { return b.Emit(guest.Insn{Op: guest.OpHLT}) }

// Cli emits cli.
func (b *Builder) Cli() *Builder { return b.Emit(guest.Insn{Op: guest.OpCLI}) }

// Sti emits sti.
func (b *Builder) Sti() *Builder { return b.Emit(guest.Insn{Op: guest.OpSTI}) }

// MovRR emits mov dst, src.
func (b *Builder) MovRR(d, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVrr, Dst: d, Src: s})
}

// MovRI emits mov dst, imm32.
func (b *Builder) MovRI(d guest.Reg, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVri, Dst: d, Imm: imm})
}

// MovRILabel emits mov dst, <address of label>.
func (b *Builder) MovRILabel(d guest.Reg, label string) *Builder {
	b.Emit(guest.Insn{Op: guest.OpMOVri, Dst: d})
	b.fixups = append(b.fixups, fixup{off: uint32(len(b.buf)) - 4, label: label})
	return b
}

// MovRM emits mov dst, [mem].
func (b *Builder) MovRM(d guest.Reg, m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVrm, Dst: d, Mem: m})
}

// MovMR emits mov [mem], src.
func (b *Builder) MovMR(m guest.MemOperand, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVmr, Mem: m, Src: s})
}

// MovMI emits mov [mem], imm32.
func (b *Builder) MovMI(m guest.MemOperand, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVmi, Mem: m, Imm: imm})
}

// MovBRM emits movb dst, [mem] (zero-extending byte load).
func (b *Builder) MovBRM(d guest.Reg, m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVBrm, Dst: d, Mem: m})
}

// MovBMR emits movb [mem], src (byte store).
func (b *Builder) MovBMR(m guest.MemOperand, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpMOVBmr, Mem: m, Src: s})
}

// Lea emits lea dst, [mem].
func (b *Builder) Lea(d guest.Reg, m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpLEA, Dst: d, Mem: m})
}

func aluBase(name string) guest.Op {
	switch name {
	case "add":
		return guest.OpADDrr
	case "sub":
		return guest.OpSUBrr
	case "and":
		return guest.OpANDrr
	case "or":
		return guest.OpORrr
	case "xor":
		return guest.OpXORrr
	}
	panic("asm: unknown alu " + name)
}

// AluRR emits <name> dst, src for add/sub/and/or/xor.
func (b *Builder) AluRR(name string, d, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: aluBase(name), Dst: d, Src: s})
}

// AluRI emits <name> dst, imm32.
func (b *Builder) AluRI(name string, d guest.Reg, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: aluBase(name) + 1, Dst: d, Imm: imm})
}

// AluRM emits <name> dst, [mem].
func (b *Builder) AluRM(name string, d guest.Reg, m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: aluBase(name) + 2, Dst: d, Mem: m})
}

// AluMR emits <name> [mem], src (read-modify-write).
func (b *Builder) AluMR(name string, m guest.MemOperand, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: aluBase(name) + 3, Mem: m, Src: s})
}

// AddRR emits add dst, src.
func (b *Builder) AddRR(d, s guest.Reg) *Builder { return b.AluRR("add", d, s) }

// AddRI emits add dst, imm32.
func (b *Builder) AddRI(d guest.Reg, imm uint32) *Builder { return b.AluRI("add", d, imm) }

// SubRI emits sub dst, imm32.
func (b *Builder) SubRI(d guest.Reg, imm uint32) *Builder { return b.AluRI("sub", d, imm) }

// AndRI emits and dst, imm32.
func (b *Builder) AndRI(d guest.Reg, imm uint32) *Builder { return b.AluRI("and", d, imm) }

// XorRR emits xor dst, src.
func (b *Builder) XorRR(d, s guest.Reg) *Builder { return b.AluRR("xor", d, s) }

// OrRR emits or dst, src.
func (b *Builder) OrRR(d, s guest.Reg) *Builder { return b.AluRR("or", d, s) }

// CmpRR emits cmp a, b.
func (b *Builder) CmpRR(a, c guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpCMPrr, Dst: a, Src: c})
}

// CmpRI emits cmp a, imm32.
func (b *Builder) CmpRI(a guest.Reg, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpCMPri, Dst: a, Imm: imm})
}

// CmpRM emits cmp a, [mem].
func (b *Builder) CmpRM(a guest.Reg, m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpCMPrm, Dst: a, Mem: m})
}

// CmpMI emits cmp [mem], imm32.
func (b *Builder) CmpMI(m guest.MemOperand, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpCMPmi, Mem: m, Imm: imm})
}

// TestRR emits test a, b.
func (b *Builder) TestRR(a, c guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpTESTrr, Dst: a, Src: c})
}

// Inc emits inc r.
func (b *Builder) Inc(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpINC, Dst: r}) }

// Dec emits dec r.
func (b *Builder) Dec(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpDEC, Dst: r}) }

// Not emits not r.
func (b *Builder) Not(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpNOT, Dst: r}) }

// ShlRI emits shl r, imm.
func (b *Builder) ShlRI(r guest.Reg, n uint8) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpSHLri, Dst: r, Imm: uint32(n)})
}

// ShrRI emits shr r, imm.
func (b *Builder) ShrRI(r guest.Reg, n uint8) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpSHRri, Dst: r, Imm: uint32(n)})
}

// SarRI emits sar r, imm.
func (b *Builder) SarRI(r guest.Reg, n uint8) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpSARri, Dst: r, Imm: uint32(n)})
}

// ImulRR emits imul dst, src.
func (b *Builder) ImulRR(d, s guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpIMULrr, Dst: d, Src: s})
}

// ImulRI emits imul dst, imm32.
func (b *Builder) ImulRI(d guest.Reg, imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpIMULri, Dst: d, Imm: imm})
}

// Div emits div r.
func (b *Builder) Div(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpDIV, Dst: r}) }

// Push emits push r.
func (b *Builder) Push(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpPUSHr, Dst: r}) }

// PushI emits push imm32.
func (b *Builder) PushI(imm uint32) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpPUSHi, Imm: imm})
}

// Pop emits pop r.
func (b *Builder) Pop(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpPOPr, Dst: r}) }

// Jmp emits jmp label.
func (b *Builder) Jmp(label string) *Builder { return b.emitRel(guest.OpJMPrel, label) }

// JmpR emits jmp r.
func (b *Builder) JmpR(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpJMPr, Dst: r}) }

// JmpM emits jmp [mem].
func (b *Builder) JmpM(m guest.MemOperand) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpJMPm, Mem: m})
}

// Jcc emits j<cond> label.
func (b *Builder) Jcc(c guest.Cond, label string) *Builder {
	return b.emitRel(guest.OpJccBase+guest.Op(c), label)
}

// Call emits call label.
func (b *Builder) Call(label string) *Builder { return b.emitRel(guest.OpCALLrel, label) }

// CallR emits call r.
func (b *Builder) CallR(r guest.Reg) *Builder { return b.Emit(guest.Insn{Op: guest.OpCALLr, Dst: r}) }

// Ret emits ret.
func (b *Builder) Ret() *Builder { return b.Emit(guest.Insn{Op: guest.OpRET}) }

// In emits in r, port.
func (b *Builder) In(r guest.Reg, port uint16) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpIN, Dst: r, Imm: uint32(port)})
}

// Out emits out port, r.
func (b *Builder) Out(port uint16, r guest.Reg) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpOUT, Src: r, Imm: uint32(port)})
}

// Int emits int n.
func (b *Builder) Int(vec uint8) *Builder {
	return b.Emit(guest.Insn{Op: guest.OpINT, Imm: uint32(vec)})
}

// Iret emits iret.
func (b *Builder) Iret() *Builder { return b.Emit(guest.Insn{Op: guest.OpIRET}) }
