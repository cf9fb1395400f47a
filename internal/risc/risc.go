// Package risc is an independent test executor: a RISC-flavored load/store
// register IR lowered from the vliw backend's scheduled atom form, with its
// own executor (exec.go). Production never runs it; tests reach it through
// cms.Config.Exec (see fuzzer.RiscExec). The defining difference from the vliw ISA is that
// the instruction set carries no architectural condition codes at all —
// flag-computing operations produce their data result eagerly and record
// the EFLAGS computation as a pending (kind, operands, input-image) triple,
// which the executor materializes lazily: only when a later instruction
// actually consumes the image, or when a commit/exit boundary makes it
// architecturally observable. Dead images — redefined before any consumer
// between boundaries — are never computed. This piggybacks on the dead-flag
// analysis the vliw backend already performs: lowering reuses the Fs/Fd
// renaming that analysis produced, so statically dead flag writes were
// already deleted upstream and the lazy machinery only pays for the
// dynamically dead remainder.
//
// The correctness contract is identical to vliw.Compile's: risc.Exec must
// commit, roll back, fault, and count (Mols/Commits/Rollbacks) bit-
// identically to vliw.Exec on translator output. Lowering therefore mirrors
// Compile's per-molecule gating exactly (vliw.SpecializableMol): any
// molecule shape the closure compiler would decline — multiple control
// atoms, same-molecule read-after-write hazards, mid-molecule commits with
// reorderable neighbors, unknown ops — lowers to a single IExact
// instruction that runs the original molecule through the machine's
// exact-semantics path (vliw.ExecMoleculeExact). The ninth fuzzer-oracle
// leg (internal/fuzzer) and the FuzzRiscLowerRoundtrip native target hold
// the two executors to that contract on every generated program.
package risc

import (
	"cms/internal/guest"
	"cms/internal/vliw"
)

// Op enumerates the register-IR opcodes. There are no condition-code
// registers in this ISA: IAluF records a lazy flag triple instead of
// writing EFLAGS, and the consumers (ISet, IBcc) evaluate the materialized
// image on demand.
type Op uint8

const (
	INop Op = iota
	ILi     // Rd = Imm
	IMov    // Rd = Ra

	// IAlu is the plain ALU: Rd = Ra <Kind> (Rb | Imm). No flag effects.
	IAlu
	// IAluF is the flag-recording ALU: the data result (Rd, and Rd2 for
	// KMul64) is computed eagerly; the EFLAGS image for Fd is recorded
	// lazily as (Kind, a, b, input image) and materialized on demand.
	IAluF

	// IDivU/IDivS: Rd,Rd2 = (Rc:Ra) / Rb, quotient and remainder; #DE
	// faults FGuest. Flags are unchanged by division.
	IDivU
	IDivS

	// ISet: Rd = Cond.Eval(image(Fs)) ? 1 : 0.
	ISet

	// Memory and port I/O, mirroring the vliw atoms one for one: gated
	// stores, store-buffer forwarding loads, alias-table allocation and
	// checking, MMIO ordering faults.
	ILd
	ISt
	IIn
	IOut

	// ICommit commits mid-block (materializing every pending flag image
	// first) and updates CommittedEIP from Imm.
	ICommit

	// Terminators (always the last instruction of their block).
	IBr      // unconditional branch to Target
	IBcc     // branch to Target when Cond.Eval(image(Fs))
	IBnz     // branch to Target when Ra != 0
	IExit    // leave through exit Imm (Commit per flag)
	IExitInd // indirect exit Imm with dynamic target Ra (Commit per flag)

	// IExact runs the original vliw molecule through the machine's
	// exact-semantics path — the lowering analogue of Compile's fallback
	// closure, taken for any molecule SpecializableMol declines.
	IExact
)

// Kind selects the IAlu operator and the IAluF flag-record kind. The K*
// kinds never touch flags; the KF* kinds define how the lazy materializer
// reconstructs the EFLAGS image from the recorded operands.
type Kind uint8

const (
	KAdd Kind = iota
	KSub
	KAnd
	KOr
	KXor
	KShl
	KShr
	KSar

	KFAdd
	KFSub
	KFAdc
	KFSbb
	KFInc
	KFDec
	KFNeg
	KFAnd
	KFOr
	KFXor
	KFShl
	KFShr
	KFSar
	KFImul
	KFMul64
)

// Insn is one register-IR instruction. Fs/Fd are normalized at lower time
// (the effective RFlags substitution of vliw.FlagSrc/FlagDst is applied
// once here, not per execution).
type Insn struct {
	Op   Op
	Kind Kind
	BI   bool // immediate second operand (IAlu/IAluF)

	Rd, Rd2, Ra, Rb, Rc vliw.HReg
	Fs, Fd              vliw.HReg
	Imm                 uint32
	Cond                guest.Cond

	// Memory operands, carried over from the source atom unchanged.
	Size      uint8
	Reordered bool
	ProtIdx   int8
	CheckMask uint64

	Target int32
	Commit bool
	GIdx   int16

	// Mol is the source molecule of an IExact instruction.
	Mol *vliw.Molecule
}

// Block is the lowering of one vliw molecule: the non-control atoms in atom
// order, then the control atom (if any) as the terminator. Blocks are 1:1
// with molecules, so branch targets and the Mols counter carry over without
// translation.
type Block struct {
	Insns []Insn
}

// Code is the executable register-IR form of one translation.
type Code struct {
	Blocks   []Block
	NumExits int

	specialized int
	exact       int
}

// Len returns the number of blocks (= source molecules).
func (c *Code) Len() int { return len(c.Blocks) }

// Specialized returns how many molecules lowered to register-IR blocks.
func (c *Code) Specialized() int { return c.specialized }

// Exact returns how many molecules lowered to the exact-semantics fallback.
func (c *Code) Exact() int { return c.exact }

// Lower builds the register-IR form of scheduled vliw code. Like
// vliw.Compile it never fails: any molecule it cannot lower faithfully
// becomes an IExact block, so Lower(code) and code are always behaviorally
// interchangeable. Lowering is deterministic: equal inputs produce equal
// Code (the FuzzRiscLowerRoundtrip target asserts this).
func Lower(code *vliw.Code) *Code {
	if code == nil {
		return nil
	}
	c := &Code{Blocks: make([]Block, len(code.Mols)), NumExits: code.NumExits}
	for i := range code.Mols {
		c.Blocks[i] = c.lowerMol(&code.Mols[i])
	}
	return c
}

// exactBlock wraps a molecule the specializer declined.
func exactBlock(mol *vliw.Molecule) Block {
	return Block{Insns: []Insn{{Op: IExact, Mol: mol}}}
}

// lowerMol lowers one molecule, mirroring Compile's gating exactly.
func (c *Code) lowerMol(mol *vliw.Molecule) Block {
	ctrlIdx, ok := vliw.SpecializableMol(mol)
	if !ok {
		c.exact++
		return exactBlock(mol)
	}
	insns := make([]Insn, 0, len(mol.Atoms))
	for i := range mol.Atoms {
		a := &mol.Atoms[i]
		if i == ctrlIdx || a.Op == vliw.ANop {
			continue
		}
		in, okA := lowerAtom(a)
		if !okA { // unknown op: preserve execAtom's fault behavior
			c.exact++
			return exactBlock(mol)
		}
		insns = append(insns, in)
	}
	if ctrlIdx >= 0 {
		insns = append(insns, lowerCtrl(&mol.Atoms[ctrlIdx]))
	}
	c.specialized++
	return Block{Insns: insns}
}

// aluKinds maps plain-ALU atom ops to (Kind, immediate-form).
func aluKind(op vliw.AtomOp) (Kind, bool, bool) {
	switch op {
	case vliw.AAdd:
		return KAdd, false, true
	case vliw.AAddI:
		return KAdd, true, true
	case vliw.ASub:
		return KSub, false, true
	case vliw.ASubI:
		return KSub, true, true
	case vliw.AAnd:
		return KAnd, false, true
	case vliw.AAndI:
		return KAnd, true, true
	case vliw.AOr:
		return KOr, false, true
	case vliw.AOrI:
		return KOr, true, true
	case vliw.AXor:
		return KXor, false, true
	case vliw.AXorI:
		return KXor, true, true
	case vliw.AShl:
		return KShl, false, true
	case vliw.AShlI:
		return KShl, true, true
	case vliw.AShr:
		return KShr, false, true
	case vliw.AShrI:
		return KShr, true, true
	case vliw.ASar:
		return KSar, false, true
	case vliw.ASarI:
		return KSar, true, true
	}
	return 0, false, false
}

// aluFKind maps flag-computing atom ops to (flag Kind, immediate-form).
func aluFKind(op vliw.AtomOp) (Kind, bool, bool) {
	switch op {
	case vliw.AAddCC:
		return KFAdd, false, true
	case vliw.AAddICC:
		return KFAdd, true, true
	case vliw.ASubCC:
		return KFSub, false, true
	case vliw.ASubICC:
		return KFSub, true, true
	case vliw.AAndCC:
		return KFAnd, false, true
	case vliw.AAndICC:
		return KFAnd, true, true
	case vliw.AOrCC:
		return KFOr, false, true
	case vliw.AOrICC:
		return KFOr, true, true
	case vliw.AXorCC:
		return KFXor, false, true
	case vliw.AXorICC:
		return KFXor, true, true
	case vliw.AShlCC:
		return KFShl, false, true
	case vliw.AShlICC:
		return KFShl, true, true
	case vliw.AShrCC:
		return KFShr, false, true
	case vliw.AShrICC:
		return KFShr, true, true
	case vliw.ASarCC:
		return KFSar, false, true
	case vliw.ASarICC:
		return KFSar, true, true
	case vliw.AAdcCC:
		return KFAdc, false, true
	case vliw.AAdcICC:
		return KFAdc, true, true
	case vliw.ASbbCC:
		return KFSbb, false, true
	case vliw.ASbbICC:
		return KFSbb, true, true
	case vliw.AIncCC:
		return KFInc, false, true
	case vliw.ADecCC:
		return KFDec, false, true
	case vliw.ANegCC:
		return KFNeg, false, true
	case vliw.AImulCC:
		return KFImul, false, true
	case vliw.AMul64:
		return KFMul64, false, true
	}
	return 0, false, false
}

// lowerAtom lowers one non-control atom. ok false means the whole molecule
// must fall back to IExact.
func lowerAtom(a *vliw.Atom) (Insn, bool) {
	if k, bi, ok := aluKind(a.Op); ok {
		return Insn{Op: IAlu, Kind: k, BI: bi, Rd: a.Rd, Ra: a.Ra, Rb: a.Rb, Imm: a.Imm}, true
	}
	if k, bi, ok := aluFKind(a.Op); ok {
		return Insn{Op: IAluF, Kind: k, BI: bi, Rd: a.Rd, Rd2: a.Rd2, Ra: a.Ra, Rb: a.Rb,
			Imm: a.Imm, Fs: vliw.FlagSrc(*a), Fd: vliw.FlagDst(*a)}, true
	}
	switch a.Op {
	case vliw.AMovI:
		return Insn{Op: ILi, Rd: a.Rd, Imm: a.Imm}, true
	case vliw.AMov:
		return Insn{Op: IMov, Rd: a.Rd, Ra: a.Ra}, true
	case vliw.ADivU:
		return Insn{Op: IDivU, Rd: a.Rd, Rd2: a.Rd2, Ra: a.Ra, Rb: a.Rb, Rc: a.Rc, GIdx: a.GIdx}, true
	case vliw.ADivS:
		return Insn{Op: IDivS, Rd: a.Rd, Rd2: a.Rd2, Ra: a.Ra, Rb: a.Rb, Rc: a.Rc, GIdx: a.GIdx}, true
	case vliw.ASetCC:
		return Insn{Op: ISet, Rd: a.Rd, Cond: a.Cond, Fs: vliw.FlagSrc(*a)}, true
	case vliw.ALd:
		return Insn{Op: ILd, Rd: a.Rd, Ra: a.Ra, Imm: a.Imm, Size: a.Size,
			Reordered: a.Reordered, ProtIdx: a.ProtIdx, GIdx: a.GIdx}, true
	case vliw.ASt:
		return Insn{Op: ISt, Ra: a.Ra, Rb: a.Rb, Imm: a.Imm, Size: a.Size,
			Reordered: a.Reordered, CheckMask: a.CheckMask, GIdx: a.GIdx}, true
	case vliw.AIn:
		return Insn{Op: IIn, Rd: a.Rd, Imm: a.Imm, GIdx: a.GIdx}, true
	case vliw.AOut:
		return Insn{Op: IOut, Rb: a.Rb, Imm: a.Imm}, true
	}
	return Insn{}, false
}

// lowerCtrl lowers the molecule's single control atom into the block
// terminator.
func lowerCtrl(a *vliw.Atom) Insn {
	switch a.Op {
	case vliw.ABr:
		return Insn{Op: IBr, Target: a.Target}
	case vliw.ABrCC:
		return Insn{Op: IBcc, Target: a.Target, Cond: a.Cond, Fs: vliw.FlagSrc(*a)}
	case vliw.ABrNZ:
		return Insn{Op: IBnz, Target: a.Target, Ra: a.Ra}
	case vliw.AExit:
		return Insn{Op: IExit, Imm: a.Imm, Commit: a.Commit}
	case vliw.AExitInd:
		return Insn{Op: IExitInd, Imm: a.Imm, Ra: a.Ra, Commit: a.Commit}
	case vliw.ACommit:
		return Insn{Op: ICommit, Imm: a.Imm}
	}
	return Insn{Op: INop}
}
