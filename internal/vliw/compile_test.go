package vliw

import (
	"testing"

	"cms/internal/dev"
	"cms/internal/guest"
	"cms/internal/mem"
)

// diffSetup prepares one machine/bus pair for a differential run; it is
// invoked once per backend so both start from identical state.
type diffSetup func(m *Machine, bus *mem.Bus)

// runDiff executes code on both backends from identical initial state and
// fails the test unless outcomes, counters, committed state, and memory all
// match bit-for-bit.
func runDiff(t *testing.T, code *Code, setup diffSetup) (Outcome, *Machine) {
	t.Helper()
	cc := Compile(code)
	if cc == nil {
		t.Fatal("Compile returned nil")
	}

	run := func(compiled bool) (Outcome, *Machine, *mem.Bus) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways, 0x1000)
		if setup != nil {
			setup(m, bus)
		}
		if compiled {
			return *m.ExecCompiled(cc), m, bus
		}
		return m.Exec(code), m, bus
	}

	oi, mi, bi := run(false)
	oc, mc, bc := run(true)

	if oi.Fault != oc.Fault || oi.Exit != oc.Exit || oi.IndTarget != oc.IndTarget ||
		oi.Indirect != oc.Indirect || oi.GuestVec != oc.GuestVec ||
		oi.Addr != oc.Addr || oi.GIdx != oc.GIdx || (oi.Err == nil) != (oc.Err == nil) {
		t.Fatalf("outcome mismatch:\ninterp   %+v\ncompiled %+v", oi, oc)
	}
	if mi.Mols != mc.Mols || mi.Commits != mc.Commits || mi.Rollbacks != mc.Rollbacks {
		t.Fatalf("counter mismatch: interp mols/commits/rollbacks %d/%d/%d, compiled %d/%d/%d",
			mi.Mols, mi.Commits, mi.Rollbacks, mc.Mols, mc.Commits, mc.Rollbacks)
	}
	if mi.Shadow != mc.Shadow {
		t.Fatalf("shadow mismatch:\ninterp   %v\ncompiled %v", mi.Shadow, mc.Shadow)
	}
	if mi.CommittedEIP != mc.CommittedEIP {
		t.Fatalf("committed eip mismatch: interp %#x, compiled %#x", mi.CommittedEIP, mc.CommittedEIP)
	}
	// Shadowed working registers must match too (rollback restores them).
	for r := 0; r < NumShadowed; r++ {
		if mi.Regs[r] != mc.Regs[r] {
			t.Fatalf("working r%d mismatch: interp %#x, compiled %#x", r, mi.Regs[r], mc.Regs[r])
		}
	}
	ri, rc := bi.ReadRaw(0, 1<<16), bc.ReadRaw(0, 1<<16)
	for i := range ri {
		if ri[i] != rc[i] {
			t.Fatalf("memory mismatch at %#x: interp %#x, compiled %#x", i, ri[i], rc[i])
		}
	}
	return oc, mc
}

func TestCompiledSimpleComputeAndCommit(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 40}),
			mol(Atom{Op: AAddICC, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 2}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone || out.Exit != 0 {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EAX)] != 42 {
		t.Fatalf("eax = %d", m.Shadow[GuestReg(guest.EAX)])
	}
	cc := Compile(code)
	if cc.Fallbacks() != 0 {
		t.Errorf("fallbacks = %d, want 0", cc.Fallbacks())
	}
	// Both fall-through molecules cascade into the exit molecule's closure:
	// the whole straight-line run is one fused call.
	if cc.Fused() != 2 {
		t.Errorf("fused = %d, want 2", cc.Fused())
	}
}

// hotLoop is the classic translated loop tail: dec.c + brcc ending the
// straight-line run that is the loop body.
func hotLoop(iters uint32) *Code {
	return &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: iters}),                      // 0
			mol(Atom{Op: AAddI, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 3}), // 1: loop head
			mol(Atom{Op: ADecCC, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.ECX)}),        // 2
			mol(Atom{Op: ABrCC, Cond: guest.CondNE, Target: 1}),                            // 3
			exitMol(), // 4
		},
	}
}

func TestCompiledHotLoopFusion(t *testing.T) {
	code := hotLoop(1000)
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.EAX)]; got != 3000 {
		t.Fatalf("eax = %d, want 3000", got)
	}
	cc := Compile(code)
	if cc.Fused() == 0 {
		t.Error("hot loop produced no fused pairs")
	}
}

func TestCompiledBranchIntoFusedSuccessor(t *testing.T) {
	// Molecule 2 falls through into the brnz at 3 (fused pair), but 3 is
	// also a direct jump target from molecule 1; the successor must stay
	// independently addressable.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: 2}),                                   // 0
			mol(Atom{Op: ABr, Target: 3}),                                                           // 1: jump straight at the fused successor
			mol(Atom{Op: AAddI, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.ECX), Imm: ^uint32(0)}), // 2 (fused into 3)
			mol(Atom{Op: ABrNZ, Ra: GuestReg(guest.ECX), Target: 2}),                                // 3
			exitMol(), // 4
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.ECX)]; got != 0 {
		t.Fatalf("ecx = %d, want 0", got)
	}
	cc := Compile(code)
	if cc.Fused() == 0 {
		t.Error("expected mol 2/3 to fuse")
	}
}

func TestCompiledDivideFaultRollsBack(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 999},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0}),
			mol(Atom{Op: ADivU, Rd: RTempBase, Rd2: RTempBase + 1,
				Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX), Rc: GuestReg(guest.EBX), GIdx: 3}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		m.Regs[GuestReg(guest.EAX)] = 7
		m.Shadow[GuestReg(guest.EAX)] = 7
	})
	if out.Fault != FGuest || out.GuestVec != guest.VecDE || out.GIdx != 3 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledStoreBufferForwarding(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 0xabcd}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x5000, Size: 4}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: RZero, Imm: 0x5000, Size: 4, ProtIdx: NoAliasIdx}),
			mol(), mol(),
			mol(Atom{Op: AMov, Rd: GuestReg(guest.EAX), Ra: RTempBase + 1}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		bus.Write32(0x5000, 0x1111)
	})
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if got := m.Shadow[GuestReg(guest.EAX)]; got != 0xabcd {
		t.Fatalf("forwarded load = %#x, want 0xabcd", got)
	}
}

func TestCompiledAliasFault(t *testing.T) {
	// Load protects [0x6000,+4); overlapping store must raise FAlias.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: RZero, Imm: 0x6000, Size: 4,
				ProtIdx: 2, Reordered: true, GIdx: 5}),
			mol(Atom{Op: AMovI, Rd: RTempBase + 1, Imm: 1}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase + 1, Imm: 0x6002, Size: 4,
				CheckMask: 1 << 2, GIdx: 6}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, nil)
	if out.Fault != FAlias || out.GIdx != 6 || out.Addr != 0x6002 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMMIO(t *testing.T) {
	setup := func(m *Machine, bus *mem.Bus) {
		bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, dev.NewConsole())
	}
	// Reordered MMIO load: FMMIOSpec.
	spec := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: ALd, Rd: RTempBase, Ra: RZero, Imm: dev.ConsoleMMIOBase,
				Size: 4, Reordered: true, ProtIdx: NoAliasIdx, GIdx: 7}),
			exitMol(),
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, spec, setup)
	if out.Fault != FMMIOSpec || out.GIdx != 7 {
		t.Fatalf("outcome %+v", out)
	}

	// Gated OUT then in-order MMIO load: FMMIOOrder.
	order := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 'x'}),
			mol(Atom{Op: AOut, Imm: 0x3f8, Rb: RTempBase}),
			mol(Atom{Op: ALd, Rd: RTempBase + 1, Ra: RZero, Imm: dev.ConsoleMMIOBase,
				Size: 4, ProtIdx: NoAliasIdx, GIdx: 4}),
			exitMol(),
		},
	}
	if err := order.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ = runDiff(t, order, setup)
	if out.Fault != FMMIOOrder || out.GIdx != 4 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledIRQWindow(t *testing.T) {
	code := hotLoop(50)
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0x1000)
		irq := &dev.IRQController{}
		irq.Raise(dev.IRQTimer)
		m.IRQ = irq
	})
	if out.Fault != FIRQ {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMidBodyCommit(t *testing.T) {
	// Lone ACommit (specializable) carrying a new committed EIP.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 11}),
			mol(Atom{Op: ACommit, Imm: 0x2000}),
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 22}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Commits != 2 {
		t.Fatalf("commits = %d, want 2", m.Commits)
	}

	// ACommit sharing a molecule with a register write commits *pre-write*
	// state: must take the fallback and still match the interpreter.
	mixed := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 77},
				Atom{Op: ACommit, Imm: 0x3000}),
			mol(Atom{Op: AExit, Imm: 0, Commit: false, GIdx: -1}),
		},
	}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	cc := Compile(mixed)
	if cc.Fallbacks() == 0 {
		t.Error("commit+write molecule should take the fallback closure")
	}
	out, m = runDiff(t, mixed, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	// The commit ran before the deferred write: shadow EAX is still 0.
	if m.Shadow[GuestReg(guest.EAX)] != 0 {
		t.Fatalf("shadow eax = %d, want 0 (commit precedes molecule writes)", m.Shadow[GuestReg(guest.EAX)])
	}
	// A store preceding a lone-ish commit is allowed to specialize.
	stThenCommit := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 9}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x7000, Size: 4},
				Atom{Op: ACommit, Imm: 0x4000}),
			exitMol(),
		},
	}
	if err := stThenCommit.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m = runDiff(t, stThenCommit, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.CommittedEIP != 0x4000 {
		t.Fatalf("committed eip = %#x", m.CommittedEIP)
	}
}

func TestCompiledIndirectExit(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTarget, Imm: 0xBEEF}),
			mol(Atom{Op: AExitInd, Ra: RTarget, Imm: 0, Commit: true, GIdx: -1}),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, nil)
	if !out.Indirect || out.IndTarget != 0xBEEF || out.Exit != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledFallOffEnd(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 1}),
		},
	}
	out, _ := runDiff(t, code, nil)
	if out.Fault != FBadCode || out.Err == nil {
		t.Fatalf("outcome %+v", out)
	}

	empty := &Code{NumExits: 1}
	out, _ = runDiff(t, empty, nil)
	if out.Fault != FBadCode {
		t.Fatalf("empty code outcome %+v", out)
	}
}

func TestCompiledHazardTakesFallback(t *testing.T) {
	// Same-molecule read-after-write: illegal under validation, but Compile
	// must still reproduce Exec's (deferred-read) behavior via the fallback.
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 5},
				Atom{Op: AMov, Rd: GuestReg(guest.EBX), Ra: GuestReg(guest.EAX)}),
			exitMol(),
		},
	}
	cc := Compile(code)
	if cc.Fallbacks() == 0 {
		t.Error("hazard molecule should take the fallback closure")
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	// EBX read EAX's pre-molecule value (0), not 5.
	if m.Shadow[GuestReg(guest.EBX)] != 0 {
		t.Fatalf("ebx = %d, want 0 (read-before-write)", m.Shadow[GuestReg(guest.EBX)])
	}
}

func TestCompiledSetCCAndLogicFlags(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 0xF0},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0x0F}),
			mol(Atom{Op: AAndCC, Rd: GuestReg(guest.ECX), Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX)}),
			mol(Atom{Op: ASetCC, Rd: GuestReg(guest.EDX), Cond: guest.CondE}),
			mol(Atom{Op: AXorICC, Rd: GuestReg(guest.ESI), Ra: GuestReg(guest.EAX), Imm: 0xF0}),
			mol(Atom{Op: AAdcICC, Rd: GuestReg(guest.EDI), Ra: GuestReg(guest.EDI), Imm: 1}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EDX)] != 1 {
		t.Fatalf("setcc(e) after and=0: edx = %d, want 1", m.Shadow[GuestReg(guest.EDX)])
	}
}

// TestCompiledRenamedFlagImage exercises the Fs/Fd renaming: the flag image
// lives in a temporary, and the IF bit must still come from the
// architectural RFlags.
func TestCompiledRenamedFlagImage(t *testing.T) {
	ftmp := RTempBase + 8
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 1}),
			mol(Atom{Op: ASubICC, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 1, Fd: ftmp}),
			mol(Atom{Op: ASetCC, Rd: GuestReg(guest.EBX), Cond: guest.CondE, Fs: ftmp}),
			mol(Atom{Op: ABrCC, Cond: guest.CondE, Fs: ftmp, Target: 5}),
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: 111}), // skipped
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EDX), Imm: 222}), // 5
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.EBX)] != 1 || m.Shadow[GuestReg(guest.ECX)] != 0 ||
		m.Shadow[GuestReg(guest.EDX)] != 222 {
		t.Fatalf("regs: ebx=%d ecx=%d edx=%d", m.Shadow[GuestReg(guest.EBX)],
			m.Shadow[GuestReg(guest.ECX)], m.Shadow[GuestReg(guest.EDX)])
	}
}

func TestCompiledProtFault(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 1}),
			mol(Atom{Op: ASt, Ra: RZero, Rb: RTempBase, Imm: 0x5004, Size: 4, GIdx: 2}),
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		bus.Protect(mem.PageOf(0x5004))
	})
	if out.Fault != FProt || out.Addr != 0x5004 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestCompiledMulDiv(t *testing.T) {
	code := &Code{
		NumExits: 1,
		Mols: []Molecule{
			mol(Atom{Op: AMovI, Rd: GuestReg(guest.EAX), Imm: 0x10000},
				Atom{Op: AMovI, Rd: GuestReg(guest.EBX), Imm: 0x30}),
			mol(Atom{Op: AMul64, Rd: GuestReg(guest.ECX), Rd2: GuestReg(guest.EDX),
				Ra: GuestReg(guest.EAX), Rb: GuestReg(guest.EBX)}),
			mol(), // media latency spacing
			mol(Atom{Op: AMovI, Rd: RTempBase, Imm: 7}),
			mol(Atom{Op: ADivU, Rd: GuestReg(guest.ESI), Rd2: GuestReg(guest.EDI),
				Ra: GuestReg(guest.ECX), Rb: RTempBase, Rc: RZero}),
			mol(), mol(), mol(), // div latency spacing
			exitMol(),
		},
	}
	if err := code.Validate(); err != nil {
		t.Fatal(err)
	}
	out, m := runDiff(t, code, nil)
	if out.Fault != FNone {
		t.Fatalf("outcome %+v", out)
	}
	if m.Shadow[GuestReg(guest.ECX)] != 0x300000 {
		t.Fatalf("mul low = %#x", m.Shadow[GuestReg(guest.ECX)])
	}
}

// BenchmarkExecBackends measures the interpreted and compiled backends on
// the same hot loop.
func BenchmarkExecBackends(b *testing.B) {
	code := hotLoop(1000)
	if err := code.Validate(); err != nil {
		b.Fatal(err)
	}
	cc := Compile(code)
	b.Run("interp", func(b *testing.B) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		for i := 0; i < b.N; i++ {
			m.LoadGuest(&regs, guest.FlagsAlways, 0)
			if out := m.Exec(code); out.Fault != FNone {
				b.Fatal(out)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		bus := mem.NewBus(1 << 20)
		m := NewMachine(bus)
		var regs [guest.NumRegs]uint32
		for i := 0; i < b.N; i++ {
			m.LoadGuest(&regs, guest.FlagsAlways, 0)
			if out := m.ExecCompiled(cc); out.Fault != FNone {
				b.Fatal(out)
			}
		}
	})
}

// runFaultCode builds a straight-line run of n molecules (1..n) whose last
// molecule exits, entered by a branch from molecule 0 into molecule
// 1+entry. Molecule 0 also records alias entry 2 over [0x6000,+4). The
// molecule at run position pos carries flt (ANop for none) and, with hazard
// set, a same-molecule read-after-write pair that forces the exact fallback.
// Every third filler molecule is empty, so zero-atom molecules sit among the
// run's boundaries.
func runFaultCode(n, pos, entry int, flt Atom, hazard bool) *Code {
	code := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: ALd, Rd: RTempBase + 3, Ra: RZero, Imm: 0x6000, Size: 4, ProtIdx: 2},
			Atom{Op: ABr, Target: int32(1 + entry)}),
	}}
	for k := 0; k < n; k++ {
		var atoms []Atom
		if k%3 != 2 {
			atoms = append(atoms, Atom{Op: AAddI, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: uint32(k + 1)})
		}
		if k == pos {
			if hazard {
				atoms = append(atoms, Atom{Op: AMovI, Rd: GuestReg(guest.ECX), Imm: 9},
					Atom{Op: AMov, Rd: GuestReg(guest.EDX), Ra: GuestReg(guest.ECX)})
			}
			atoms = append(atoms, flt)
		}
		if k == n-1 {
			atoms = append(atoms, Atom{Op: AExit, Commit: true, GIdx: -1})
		}
		code.Mols = append(code.Mols, mol(atoms...))
	}
	return code
}

// TestCompiledRunFaultPositions faults at every molecule of straight-line
// runs of length 1-6, entered at the run's start and by a direct branch
// into each interior molecule, with the faulting molecule specialized or
// taking the exact fallback (inside the run or as its control molecule):
// Mols, Rollbacks and the fault Outcome must match Exec exactly.
func TestCompiledRunFaultPositions(t *testing.T) {
	faults := []struct {
		name string
		atom Atom
		want FaultClass
	}{
		{"none", Atom{Op: ANop}, FNone},
		{"divide", Atom{Op: ADivU, Rd: RTempBase, Rd2: RTempBase + 1, Ra: RZero, Rb: RZero, Rc: RZero, GIdx: 3}, FGuest},
		{"alias", Atom{Op: ASt, Ra: RZero, Rb: RZero, Imm: 0x6000, Size: 4, CheckMask: 1 << 2, GIdx: 4}, FAlias},
		{"prot", Atom{Op: ASt, Ra: RZero, Rb: RZero, Imm: 0x5004, Size: 4, GIdx: 5}, FProt},
	}
	protect := func(m *Machine, bus *mem.Bus) { bus.Protect(mem.PageOf(0x5004)) }
	for n := 1; n <= 6; n++ {
		for pos := 0; pos < n; pos++ {
			for entry := 0; entry < n; entry++ {
				for _, f := range faults {
					for _, hazard := range []bool{false, true} {
						code := runFaultCode(n, pos, entry, f.atom, hazard)
						out, m := runDiff(t, code, protect)
						want := f.want
						if pos < entry {
							want = FNone
						}
						if out.Fault != want {
							t.Fatalf("n=%d pos=%d entry=%d %s hazard=%v: fault %v, want %v",
								n, pos, entry, f.name, hazard, out.Fault, want)
						}
						if want != FNone && m.Rollbacks != 1 {
							t.Fatalf("n=%d pos=%d entry=%d %s: rollbacks %d", n, pos, entry, f.name, m.Rollbacks)
						}
						cc := Compile(code)
						if (cc.Fallbacks() == 1) != hazard || cc.Fallbacks() > 1 {
							t.Fatalf("n=%d pos=%d %s hazard=%v: fallbacks %d", n, pos, f.name, hazard, cc.Fallbacks())
						}
						if cc.Fused() != n-1 {
							t.Fatalf("n=%d: fused %d, want %d", n, cc.Fused(), n-1)
						}
					}
				}
			}
		}
	}
}

// TestCompiledIRQWaitsForRunCommit pins the invariant that lets a run skip
// the interrupt window at its inner boundaries: the window opens only at a
// commit. A pending line with the committed IF clear stays undelivered
// while a run-interior atom sets IF in the working flags, whether the run
// is entered at its start or by a branch into it; once the run's ACommit
// lands IF, both backends deliver at the very next boundary. A line raised
// by a gated OUT inside a run likewise waits for the commit that drains it.
func TestCompiledIRQWaitsForRunCommit(t *testing.T) {
	sti := Atom{Op: AOrI, Rd: RFlags, Ra: RFlags, Imm: guest.FlagIF}
	incEAX := Atom{Op: AAddI, Rd: GuestReg(guest.EAX), Ra: GuestReg(guest.EAX), Imm: 1}
	incEBX := Atom{Op: AAddI, Rd: GuestReg(guest.EBX), Ra: GuestReg(guest.EBX), Imm: 1}
	straight := &Code{NumExits: 1, Mols: []Molecule{
		mol(incEAX),                         // 0
		mol(sti),                            // 1
		mol(incEAX),                         // 2
		mol(Atom{Op: ACommit, Imm: 0x2000}), // 3: IF reaches Shadow here
		mol(incEBX),                         // 4: never runs
		exitMol(),                           // 5
	}}
	branchIn := &Code{NumExits: 1, Mols: []Molecule{
		mol(incEAX, Atom{Op: ABr, Target: 2}), // 0
		mol(incEBX),                           // 1: skipped
		mol(sti),                              // 2
		mol(incEAX),                           // 3
		mol(Atom{Op: ACommit, Imm: 0x2000}),   // 4
		mol(incEBX),                           // 5: never runs
		exitMol(),                             // 6
	}}
	pendingIFClear := func(m *Machine, bus *mem.Bus) {
		irq := &dev.IRQController{}
		irq.Raise(dev.IRQTimer)
		m.IRQ = irq
	}
	// Both paths enter four molecules, the last of them the commit.
	for _, tc := range []struct {
		name string
		code *Code
	}{{"straight", straight}, {"branch-in", branchIn}} {
		out, m := runDiff(t, tc.code, pendingIFClear)
		if out.Fault != FIRQ || m.Commits != 1 || m.CommittedEIP != 0x2000 {
			t.Fatalf("%s: outcome %+v commits %d eip %#x, want FIRQ after the one commit",
				tc.name, out, m.Commits, m.CommittedEIP)
		}
		if want := 4 + m.RollbackCost; m.Mols != want {
			t.Fatalf("%s: mols %d, want %d (delivery at the boundary after the commit)", tc.name, m.Mols, want)
		}
		if m.Shadow[GuestReg(guest.EAX)] != 2 || m.Shadow[GuestReg(guest.EBX)] != 0 {
			t.Fatalf("%s: committed eax=%d ebx=%d", tc.name,
				m.Shadow[GuestReg(guest.EAX)], m.Shadow[GuestReg(guest.EBX)])
		}
	}

	outRaises := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: AMovI, Rd: RTempBase, Imm: dev.DiskCmdRead}), // 0
		mol(Atom{Op: AOut, Imm: dev.DiskCmdPort, Rb: RTempBase}),  // 1: gated
		mol(incEAX),                         // 2
		mol(Atom{Op: ACommit, Imm: 0x3000}), // 3: the OUT drains, IRQDisk rises
		mol(incEBX),                         // 4: never runs
		exitMol(),                           // 5
	}}
	out, m := runDiff(t, outRaises, func(m *Machine, bus *mem.Bus) {
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0x1000)
		irq := &dev.IRQController{}
		bus.MapPort(dev.DiskLBAPort, dev.DiskStatusPort, dev.NewDisk(bus, irq, nil))
		m.IRQ = irq
	})
	if out.Fault != FIRQ || m.Commits != 1 || m.Mols != 4+m.RollbackCost {
		t.Fatalf("gated OUT: outcome %+v commits %d mols %d, want FIRQ at the boundary after the commit",
			out, m.Commits, m.Mols)
	}
}

// TestCompiledDeviceReadsKeepWindowClosed: port and MMIO reads of every
// platform device inside a run raise no line (device reads are idempotent),
// so the interrupt window never opens there even with IF committed set.
func TestCompiledDeviceReadsKeepWindowClosed(t *testing.T) {
	code := &Code{NumExits: 1, Mols: []Molecule{
		mol(Atom{Op: AIn, Rd: RTempBase, Imm: dev.ConsoleStatusPort}),
		mol(Atom{Op: AIn, Rd: RTempBase + 1, Imm: dev.TimerCountPort}),
		mol(Atom{Op: AIn, Rd: RTempBase + 2, Imm: dev.DiskStatusPort}),
		mol(Atom{Op: ALd, Rd: RTempBase + 3, Ra: RZero, Imm: dev.ConsoleMMIOBase, Size: 4, ProtIdx: NoAliasIdx}),
		mol(Atom{Op: ALd, Rd: RTempBase + 4, Ra: RZero, Imm: dev.BltMMIOBase + dev.BltRegStat, Size: 4, ProtIdx: NoAliasIdx}),
		exitMol(),
	}}
	var irqs []*dev.IRQController
	out, m := runDiff(t, code, func(m *Machine, bus *mem.Bus) {
		var regs [guest.NumRegs]uint32
		m.LoadGuest(&regs, guest.FlagsAlways|guest.FlagIF, 0x1000)
		irq := &dev.IRQController{}
		console := dev.NewConsole()
		bus.MapPort(dev.ConsoleDataPort, dev.ConsoleStatusPort, console)
		bus.MapPort(dev.TimerPeriodPort, dev.TimerCountPort, dev.NewTimer(irq))
		bus.MapPort(dev.DiskLBAPort, dev.DiskStatusPort, dev.NewDisk(bus, irq, nil))
		bus.MapMMIO(dev.ConsoleMMIOBase, dev.ConsoleMMIOSize, console)
		bus.MapMMIO(dev.BltMMIOBase, dev.BltMMIOSize, dev.NewBlt(bus, irq))
		m.IRQ = irq
		irqs = append(irqs, irq)
	})
	if out.Fault != FNone || m.Mols != uint64(len(code.Mols)) {
		t.Fatalf("outcome %+v mols %d, want a clean exit after %d molecules", out, m.Mols, len(code.Mols))
	}
	for _, irq := range irqs {
		if irq.HasPending() {
			t.Fatal("a device read raised an interrupt line")
		}
	}
}
