package xlate

import (
	"errors"
	"fmt"
	"sort"

	"cms/internal/ir"
	"cms/internal/vliw"
)

// errRegPressure reports that a region needs more temporaries than the host
// register file offers; the translator retries with a smaller region.
var errRegPressure = errors.New("xlate: out of host registers")

// satom is a schedulable atom: the host atom plus its dependence metadata.
type satom struct {
	a   vliw.Atom
	idx int // program order

	isLoad, isStore, isExit, isBarrier, isDiv bool
	smcCheck                                  bool
	noReorder                                 bool

	// Memory disjointness info (pre-register-allocation view) for the
	// NoAliasHW mode: base vreg + its def version, displacement, size.
	memKnown bool
	baseV    ir.VReg
	baseVer  int
	disp     uint32
	size     uint8

	preds []dep
	succs []int

	// exitIdx is the region exit for exit-ish atoms, else -1.
	exitIdx int32
	// fixups are the stub repair copies of a side exit (dst = pinned guest
	// host register, src = renamed temp's host register).
	fixups []vliw.Atom
}

type dep struct {
	from  int
	delta int // minimum molecule distance (0 = same molecule permitted)
}

// regalloc maps virtual registers to host registers. Guest state vregs are
// pinned; temporaries are linear-scan allocated. reserve registers are kept
// out of the pool (for the self-check accumulator etc.).
func regalloc(region *ir.Region, reserve int) ([]vliw.HReg, error) {
	code := region.Code
	// Vregs are dense small integers; the assignment table and the interval
	// maps below are slices, not maps, for the emitter's per-operand lookups.
	maxV := ir.VFlags
	var scratch []ir.VReg
	for i := range code {
		scratch = code[i].Defs(scratch[:0])
		for _, d := range scratch {
			if d > maxV {
				maxV = d
			}
		}
		scratch = code[i].Uses(scratch[:0])
		for _, u := range scratch {
			if u > maxV {
				maxV = u
			}
		}
	}
	assign := make([]vliw.HReg, maxV+1)
	for v := ir.VReg(0); v <= ir.VFlags; v++ {
		assign[v] = vliw.HReg(v)
	}
	// Temp live intervals (temps are single-def by construction).
	type interval struct {
		v          ir.VReg
		start, end int
	}
	starts := make([]int, maxV+1)
	ends := make([]int, maxV+1)
	for v := range starts {
		starts[v] = -1
	}
	for i := range code {
		scratch = code[i].Defs(scratch[:0])
		for _, d := range scratch {
			if d >= ir.VTemp0 {
				if starts[d] < 0 {
					starts[d] = i
				}
				ends[d] = i
			}
		}
		scratch = code[i].Uses(scratch[:0])
		for _, u := range scratch {
			if u >= ir.VTemp0 {
				ends[u] = i
			}
		}
		// Side-exit fixups read their sources at the exit.
		if code[i].Op == ir.OpExitIf {
			for _, fx := range region.Exits[code[i].Exit].Fixups {
				if fx.Src >= ir.VTemp0 && int(fx.Src) < len(ends) {
					ends[fx.Src] = i
				}
			}
		}
	}
	intervals := make([]interval, 0, max(0, int(maxV)+1-int(ir.VTemp0)))
	for v := ir.VTemp0; v <= maxV; v++ {
		if starts[v] >= 0 {
			intervals = append(intervals, interval{v, starts[v], ends[v]})
		}
	}
	sort.SliceStable(intervals, func(i, j int) bool { return intervals[i].start < intervals[j].start })

	var pool []vliw.HReg
	for r := vliw.RTempBase; r <= vliw.RTempLast-vliw.HReg(reserve); r++ {
		pool = append(pool, r)
	}
	type active struct {
		end int
		r   vliw.HReg
	}
	var act []active
	for _, iv := range intervals {
		// Expire finished intervals; freed registers go to the tail of the
		// pool so reuse picks the least-recently-freed register. Register
		// reuse creates false WAR/WAW dependences that shackle the VLIW
		// scheduler, so maximizing reuse distance matters more than packing.
		keep := act[:0]
		for _, a := range act {
			if a.end >= iv.start {
				keep = append(keep, a)
			} else {
				pool = append(pool, a.r)
			}
		}
		act = keep
		if len(pool) == 0 {
			return nil, errRegPressure
		}
		r := pool[0]
		pool = pool[1:]
		assign[iv.v] = r
		act = append(act, active{iv.end, r})
	}
	return assign, nil
}

// emitter builds and schedules the atoms of one region.
type emitter struct {
	region *ir.Region
	pol    Policy
	host   vliw.HostConfig
	assign []vliw.HReg

	atoms []satom

	defVer map[ir.VReg]int // IR-level def versions for disjointness

	aliasNext  int      // next free alias entry
	aliasPairs [][]int8 // store atom idx -> entries to check
	smcEntries []int8   // entries owned by self-check loads
	failExit   int32    // self-check fail exit index, or -1
}

func hregOrZero(assign []vliw.HReg, v ir.VReg) vliw.HReg {
	if v == ir.NoVReg {
		return vliw.RZero
	}
	return assign[v]
}

func (em *emitter) push(sa satom) *satom {
	sa.idx = len(em.atoms)
	sa.exitIdx = -1
	em.atoms = append(em.atoms, sa)
	return &em.atoms[len(em.atoms)-1]
}

// codegen lowers IR to satoms (1:1 or close), in program order.
func (em *emitter) codegen() error {
	em.defVer = make(map[ir.VReg]int)
	hr := func(v ir.VReg) vliw.HReg { return hregOrZero(em.assign, v) }
	// hrF maps a flag-image vreg; NoVReg means the architectural RFlags.
	hrF := func(v ir.VReg) vliw.HReg {
		if v == ir.NoVReg {
			return vliw.RFlags
		}
		return em.assign[v]
	}

	for ii := range em.region.Code {
		i := &em.region.Code[ii]
		gidx := int16(i.GIdx)
		base := vliw.Atom{GIdx: gidx, ProtIdx: vliw.NoAliasIdx}

		switch i.Op {
		case ir.OpNop:
		case ir.OpBoundary:
			if i.Serialize {
				a := base
				a.Op, a.Imm = vliw.ACommit, i.Imm
				em.push(satom{a: a, isBarrier: true})
			}
		case ir.OpConst:
			a := base
			a.Op, a.Rd, a.Imm = vliw.AMovI, hr(i.Dst), i.Imm
			em.push(satom{a: a})
		case ir.OpMov:
			a := base
			a.Op, a.Rd, a.Ra = vliw.AMov, hr(i.Dst), hr(i.A)
			em.push(satom{a: a})

		case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar,
			ir.OpAddCC, ir.OpSubCC, ir.OpAndCC, ir.OpOrCC, ir.OpXorCC,
			ir.OpShlCC, ir.OpShrCC, ir.OpSarCC:
			a := base
			a.Op = aluAtomOp(i.Op, i.B == ir.NoVReg)
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			if i.Op.SetsFlags() {
				a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			}
			if i.B == ir.NoVReg {
				a.Imm = i.Imm
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})

		case ir.OpAdcCC, ir.OpSbbCC:
			a := base
			if i.Op == ir.OpAdcCC {
				a.Op = vliw.AAdcCC
				if i.B == ir.NoVReg {
					a.Op = vliw.AAdcICC
				}
			} else {
				a.Op = vliw.ASbbCC
				if i.B == ir.NoVReg {
					a.Op = vliw.ASbbICC
				}
			}
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			if i.B == ir.NoVReg {
				a.Imm = i.Imm
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})

		case ir.OpIncCC, ir.OpDecCC, ir.OpNegCC:
			a := base
			switch i.Op {
			case ir.OpIncCC:
				a.Op = vliw.AIncCC
			case ir.OpDecCC:
				a.Op = vliw.ADecCC
			default:
				a.Op = vliw.ANegCC
			}
			a.Rd, a.Ra = hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			em.push(satom{a: a})

		case ir.OpImulCC:
			a := base
			a.Op, a.Rd, a.Ra = vliw.AImulCC, hr(i.Dst), hr(i.A)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			if i.B == ir.NoVReg {
				// Immediate multiply: materialize through a reserved scratch.
				c := base
				c.Op, c.Rd, c.Imm = vliw.AMovI, vliw.RScratch0, i.Imm
				em.push(satom{a: c})
				a.Rb = vliw.RScratch0
			} else {
				a.Rb = hr(i.B)
			}
			em.push(satom{a: a})
		case ir.OpMul64:
			a := base
			a.Op, a.Rd, a.Rd2, a.Ra, a.Rb = vliw.AMul64, hr(i.Dst), hr(i.Dst2), hr(i.A), hr(i.B)
			a.Fs, a.Fd = hrF(i.FIn), hrF(i.FOut)
			em.push(satom{a: a})
		case ir.OpDivU, ir.OpDivS:
			a := base
			a.Op = vliw.ADivU
			if i.Op == ir.OpDivS {
				a.Op = vliw.ADivS
			}
			a.Rd, a.Rd2, a.Ra, a.Rb, a.Rc = hr(i.Dst), hr(i.Dst2), hr(i.A), hr(i.B), hr(i.C)
			em.push(satom{a: a, isDiv: true})

		case ir.OpLd8, ir.OpLd32:
			a := base
			a.Op, a.Rd, a.Ra, a.Imm = vliw.ALd, hr(i.Dst), hr(i.A), i.Imm
			a.Size = 4
			if i.Op == ir.OpLd8 {
				a.Size = 1
			}
			sa := satom{a: a, isLoad: true, smcCheck: i.SMCCheck,
				noReorder: i.NoReorder || i.Serialize,
				memKnown:  true, baseV: i.A, baseVer: em.defVer[i.A], disp: i.Imm, size: a.Size}
			if i.Serialize {
				sa.isBarrier = true
			}
			em.push(sa)
		case ir.OpSt8, ir.OpSt32:
			a := base
			a.Op, a.Ra, a.Rb, a.Imm = vliw.ASt, hr(i.A), hr(i.B), i.Imm
			a.Size = 4
			if i.Op == ir.OpSt8 {
				a.Size = 1
			}
			sa := satom{a: a, isStore: true,
				noReorder: i.NoReorder || i.Serialize,
				memKnown:  true, baseV: i.A, baseVer: em.defVer[i.A], disp: i.Imm, size: a.Size}
			if i.Serialize {
				sa.isBarrier = true
			}
			em.push(sa)

		case ir.OpIn:
			a := base
			a.Op, a.Rd, a.Imm = vliw.AIn, hr(i.Dst), i.Imm
			em.push(satom{a: a, isBarrier: true})
		case ir.OpOut:
			a := base
			a.Op, a.Rb, a.Imm = vliw.AOut, hr(i.B), i.Imm
			em.push(satom{a: a, isStore: true})

		case ir.OpExitIf:
			a := base
			a.Op, a.Cond = vliw.ABrCC, i.Cond
			a.Fs = hrF(i.FIn)
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit
			for _, fx := range em.region.Exits[i.Exit].Fixups {
				sa.fixups = append(sa.fixups, vliw.Atom{
					Op: vliw.AMov, Rd: hr(fx.Guest), Ra: hr(fx.Src),
					GIdx: gidx, ProtIdx: vliw.NoAliasIdx,
				})
			}
		case ir.OpExit:
			a := base
			a.Op, a.Imm, a.Commit = vliw.AExit, uint32(i.Exit), true
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit
		case ir.OpExitInd:
			a := base
			a.Op, a.Ra, a.Imm, a.Commit = vliw.AExitInd, hr(i.A), uint32(i.Exit), true
			sa := em.push(satom{a: a, isExit: true})
			sa.exitIdx = i.Exit

		default:
			return fmt.Errorf("xlate: codegen cannot handle %v", i.Op)
		}

		var defs []ir.VReg
		for _, d := range i.Defs(defs) {
			em.defVer[d]++
		}
	}
	return nil
}

// aluAtomOp maps an IR ALU op (plain or CC) to the matching atom op.
func aluAtomOp(op ir.Op, imm bool) vliw.AtomOp {
	type pair struct{ r, i vliw.AtomOp }
	m := map[ir.Op]pair{
		ir.OpAdd: {vliw.AAdd, vliw.AAddI}, ir.OpSub: {vliw.ASub, vliw.ASubI},
		ir.OpAnd: {vliw.AAnd, vliw.AAndI}, ir.OpOr: {vliw.AOr, vliw.AOrI},
		ir.OpXor: {vliw.AXor, vliw.AXorI}, ir.OpShl: {vliw.AShl, vliw.AShlI},
		ir.OpShr: {vliw.AShr, vliw.AShrI}, ir.OpSar: {vliw.ASar, vliw.ASarI},
		ir.OpAddCC: {vliw.AAddCC, vliw.AAddICC}, ir.OpSubCC: {vliw.ASubCC, vliw.ASubICC},
		ir.OpAndCC: {vliw.AAndCC, vliw.AAndICC}, ir.OpOrCC: {vliw.AOrCC, vliw.AOrICC},
		ir.OpXorCC: {vliw.AXorCC, vliw.AXorICC}, ir.OpShlCC: {vliw.AShlCC, vliw.AShlICC},
		ir.OpShrCC: {vliw.AShrCC, vliw.AShrICC}, ir.OpSarCC: {vliw.ASarCC, vliw.ASarICC},
	}
	p := m[op]
	if imm {
		return p.i
	}
	return p.r
}

// disjoint reports whether two memory references provably never overlap —
// the only reordering license a machine without alias hardware has (§3.5).
func disjoint(a, b *satom) bool {
	if !a.memKnown || !b.memKnown {
		return false
	}
	sameBase := a.baseV == b.baseV && a.baseVer == b.baseVer
	if a.baseV == ir.NoVReg && b.baseV == ir.NoVReg {
		sameBase = true
	}
	if !sameBase {
		return false
	}
	aLo, aHi := a.disp, a.disp+uint32(a.size)
	bLo, bHi := b.disp, b.disp+uint32(b.size)
	return aHi <= bLo || bHi <= aLo
}

// addDep records a dependence edge from -> to (indices), delta molecules.
func (em *emitter) addDep(to, from, delta int) {
	if from < 0 || from == to {
		return
	}
	em.atoms[to].preds = append(em.atoms[to].preds, dep{from: from, delta: delta})
}

// buildDeps constructs the dependence graph under the active policy. This
// is where speculation lives: omitted edges are the freedoms §3.2-§3.5
// grant, and the alias bookkeeping records the runtime checks they require.
func (em *emitter) buildDeps() {
	// Dense per-register tracking: host registers are a small fixed range,
	// so slices beat maps for the scheduler's inner loops.
	em.aliasPairs = make([][]int8, len(em.atoms))
	var lastDef [vliw.NumHRegs]int
	var lastUses [vliw.NumHRegs][]int
	for r := range lastDef {
		lastDef[r] = -1
	}

	lastBarrier := -1
	lastStore := -1
	lastExit := -1
	var loadsSinceExit []int
	var divsSinceExit []int
	var storesSince []int    // stores since last barrier
	var uncheckedLoads []int // loads without alias entries that stores must not pass? (kept ordered)

	exitReads := []vliw.HReg{0, 1, 2, 3, 4, 5, 6, 7, vliw.RFlags}

	for j := range em.atoms {
		sa := &em.atoms[j]
		srcs := vliw.SourceRegs(sa.a)
		dsts := vliw.DestRegs(sa.a)
		if sa.isExit || sa.isBarrier {
			srcs = append(srcs, exitReads...)
			for _, fx := range sa.fixups {
				srcs = append(srcs, fx.Ra)
			}
		}

		// Register dependences.
		for _, s := range srcs {
			if d := lastDef[s]; d >= 0 {
				em.addDep(j, d, em.host.Latency(em.atoms[d].a.Op))
			}
		}
		for _, d := range dsts {
			if p := lastDef[d]; p >= 0 {
				em.addDep(j, p, 1) // WAW
			}
			for _, u := range lastUses[d] {
				delta := 0
				if em.atoms[u].isExit || em.atoms[u].isBarrier {
					delta = 1 // writes must stay strictly after commits
				}
				em.addDep(j, u, delta) // WAR
			}
		}

		// Barriers order everything.
		em.addDep(j, lastBarrier, 1)
		if sa.isBarrier {
			for k := 0; k < j; k++ {
				em.addDep(j, k, 1)
			}
			lastBarrier = j
			lastStore = -1
			storesSince = storesSince[:0]
			loadsSinceExit = loadsSinceExit[:0]
			divsSinceExit = divsSinceExit[:0]
			uncheckedLoads = uncheckedLoads[:0]
		}

		switch {
		case sa.isStore:
			em.addDep(j, lastStore, 1)         // stores stay ordered
			em.addDep(j, lastExit, 1)          // stores never cross exits
			for _, l := range uncheckedLoads { // stores never pass earlier loads
				em.addDep(j, l, 1)
			}
			// Self-check entries guard every store (§3.6.3).
			if len(em.smcEntries) > 0 {
				em.aliasPairs[j] = append(em.aliasPairs[j], em.smcEntries...)
			}
			lastStore = j
			storesSince = append(storesSince, j)

		case sa.isLoad:
			hoistable := !em.pol.NoHoistLoads && !sa.noReorder && !sa.smcCheck
			if !hoistable {
				em.addDep(j, lastExit, 1)
			}
			// Load versus earlier stores.
			for _, s := range storesSince {
				st := &em.atoms[s]
				switch {
				case em.pol.NoReorderMem || sa.noReorder || st.noReorder:
					em.addDep(j, s, 1)
				case em.pol.NoAliasHW:
					if !disjoint(sa, st) {
						em.addDep(j, s, 1)
					}
				default:
					// Reorder under alias protection: allocate an entry for
					// this load if needed; the store checks it.
					if sa.a.ProtIdx == vliw.NoAliasIdx {
						if em.aliasNext >= vliw.AliasTableSize {
							em.addDep(j, s, 1) // out of entries: stay ordered
							continue
						}
						sa.a.ProtIdx = int8(em.aliasNext)
						em.aliasNext++
					}
					em.aliasPairs[s] = append(em.aliasPairs[s], sa.a.ProtIdx)
				}
			}
			// Stores never pass loads in either policy: a store scheduled
			// before an earlier load would wrongly forward to it.
			uncheckedLoads = append(uncheckedLoads, j)
			loadsSinceExit = append(loadsSinceExit, j)

		case sa.isDiv:
			if em.pol.NoHoistLoads {
				em.addDep(j, lastExit, 1)
			}
			divsSinceExit = append(divsSinceExit, j)

		case sa.isExit:
			em.addDep(j, lastExit, 1)
			em.addDep(j, lastStore, 0)
			for _, l := range loadsSinceExit {
				em.addDep(j, l, 0) // loads may not sink below their exit
			}
			for _, d := range divsSinceExit {
				em.addDep(j, d, 0)
			}
			lastExit = j
			loadsSinceExit = loadsSinceExit[:0]
			divsSinceExit = divsSinceExit[:0]
		}

		// Update register tracking.
		for _, s := range srcs {
			lastUses[s] = append(lastUses[s], j)
		}
		for _, d := range dsts {
			lastDef[d] = j
			lastUses[d] = lastUses[d][:0]
		}
	}

	// Apply accumulated alias check masks to stores.
	for s, entries := range em.aliasPairs {
		for _, e := range entries {
			em.atoms[s].a.CheckMask |= 1 << uint(e)
		}
	}
}

// schedule runs list scheduling and lays out the final code, appending exit
// stubs and resolving branch targets.
func (em *emitter) schedule() (*vliw.Code, error) {
	n := len(em.atoms)
	indeg := make([]int, n)
	for j := range em.atoms {
		for _, p := range em.atoms[j].preds {
			em.atoms[p.from].succs = append(em.atoms[p.from].succs, j)
			indeg[j]++
		}
	}
	// Critical-path heights for priority.
	height := make([]int, n)
	for j := n - 1; j >= 0; j-- {
		h := 0
		for _, s := range em.atoms[j].succs {
			for _, p := range em.atoms[s].preds {
				if p.from == j && height[s]+p.delta+1 > h {
					h = height[s] + p.delta + 1
				}
			}
		}
		height[j] = h
	}

	earliest := make([]int, n)
	scheduledAt := make([]int, n)
	atomSlot := make([]int, n)
	for j := range scheduledAt {
		scheduledAt[j] = -1
	}
	remaining := n
	ready := make([]int, 0, n)
	pending := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			ready = append(ready, j)
		}
	}

	var mols []vliw.Molecule
	cycle := 0
	guard := 0
	var candBuf, taken []int // reused across cycles
	for remaining > 0 {
		guard++
		if guard > 100*n+1000 {
			return nil, fmt.Errorf("xlate: scheduler livelock (%d atoms left)", remaining)
		}
		// Candidates ready at this cycle, best priority first.
		candBuf = candsInto(candBuf[:0], ready, earliest, cycle, height)
		cands := candBuf
		var molAtoms []vliw.Atom
		if len(cands) > 0 {
			molAtoms = make([]vliw.Atom, 0, min(em.host.Width, len(cands)))
		}
		var alu, memu, media, br int
		taken = taken[:0]
		for _, j := range cands {
			if len(molAtoms) >= em.host.Width {
				break
			}
			switch vliw.UnitOf(em.atoms[j].a.Op) {
			case vliw.UnitALU:
				if alu == em.host.ALUs {
					continue
				}
				alu++
			case vliw.UnitMem:
				if memu == em.host.MemUnits {
					continue
				}
				memu++
			case vliw.UnitMedia:
				if media == em.host.MediaUnits {
					continue
				}
				media++
			case vliw.UnitBranch:
				if br == em.host.BranchUnits {
					continue
				}
				br++
			}
			atomSlot[j] = len(molAtoms)
			molAtoms = append(molAtoms, em.atoms[j].a)
			taken = append(taken, j)
		}
		for _, j := range taken {
			scheduledAt[j] = cycle
			remaining--
			ready = removeFrom(ready, j)
			for _, s := range em.atoms[j].succs {
				indeg[s]--
				if indeg[s] == 0 {
					pending = append(pending, s)
				}
			}
		}
		// Recompute earliest for newly released atoms.
		for _, s := range pending {
			e := 0
			for _, p := range em.atoms[s].preds {
				if t := scheduledAt[p.from] + p.delta; t > e {
					e = t
				}
			}
			earliest[s] = e
			ready = append(ready, s)
		}
		pending = pending[:0]
		mols = append(mols, vliw.Molecule{Atoms: molAtoms})
		cycle++
	}

	// Mark actually reordered memory accesses: a load is "reordered" in the
	// §3.4 hardware sense when some program-earlier memory operation or
	// exit ended up scheduled no earlier than it.
	for j := range em.atoms {
		sa := &em.atoms[j]
		if !sa.isLoad {
			continue
		}
		for i := 0; i < j; i++ {
			o := &em.atoms[i]
			if (o.isLoad || o.isStore || o.isExit || o.isBarrier) && scheduledAt[i] >= scheduledAt[j] {
				mols[scheduledAt[j]].Atoms[atomSlot[j]].Reordered = true
				break
			}
		}
	}

	// Exit stubs: one per region exit that is reached by a branch.
	code := &vliw.Code{Mols: mols, NumExits: len(em.region.Exits)}
	stubAt := make(map[int32]int32)
	for j := range em.atoms {
		sa := &em.atoms[j]
		if sa.a.Op != vliw.ABrCC && sa.a.Op != vliw.ABrNZ {
			continue
		}
		exitIdx := sa.exitIdx
		stub, ok := stubAt[exitIdx]
		if !ok {
			commit := true
			if exitIdx >= 0 && em.region.Exits[exitIdx].Kind == ir.ExitSelfCheckFail {
				commit = false
			}
			stub = int32(len(code.Mols))
			// Fixup copies first (two ALU slots per molecule), then the
			// committing exit; the last pair shares the exit's molecule.
			fixups := sa.fixups
			for len(fixups) > 2 {
				code.Mols = append(code.Mols, vliw.Molecule{Atoms: fixups[:2]})
				fixups = fixups[2:]
			}
			last := append(append([]vliw.Atom(nil), fixups...), vliw.Atom{
				Op: vliw.AExit, Imm: uint32(exitIdx), Commit: commit,
				GIdx: -1, ProtIdx: vliw.NoAliasIdx,
			})
			code.Mols = append(code.Mols, vliw.Molecule{Atoms: last})
			stubAt[exitIdx] = stub
		}
		code.Mols[scheduledAt[j]].Atoms[atomSlot[j]].Target = stub
	}
	return code, nil
}

// candsInto appends the atoms ready at this cycle to out (a scratch buffer
// reused across cycles), ordered best priority first: height descending,
// index ascending. Candidate lists are small, so an insertion sort beats
// sort.Slice's closure indirection in the scheduler's innermost loop.
func candsInto(out, ready []int, earliest []int, cycle int, height []int) []int {
	for _, j := range ready {
		if earliest[j] <= cycle {
			out = append(out, j)
		}
	}
	for i := 1; i < len(out); i++ {
		v := out[i]
		k := i
		for k > 0 && (height[out[k-1]] < height[v] ||
			(height[out[k-1]] == height[v] && out[k-1] > v)) {
			out[k] = out[k-1]
			k--
		}
		out[k] = v
	}
	return out
}

func removeFrom(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// checkWord is one self-check comparison unit.
type checkWord struct {
	addr uint32
	want uint32
	mask uint32 // bits that must match (0xFFFFFFFF normally)
}

// emitSelfCheck prepends self-checking atoms (§3.6.3): load each source
// word, compare against the snapshot, accumulate mismatches, and branch to
// the fail exit. The check loads take alias entries so that stores within
// the translation body are checked against the code region itself.
func (em *emitter) emitSelfCheck(words []checkWord, accReg, tReg, xReg vliw.HReg) {
	em.failExit = em.region.AddExit(ir.Exit{Kind: ir.ExitSelfCheckFail})
	z := vliw.Atom{Op: vliw.AMovI, Rd: accReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	em.push(satom{a: z})
	for _, w := range words {
		ld := vliw.Atom{Op: vliw.ALd, Rd: tReg, Ra: vliw.RZero, Imm: w.addr, Size: 4,
			GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		if em.aliasNext < vliw.AliasTableSize {
			ld.ProtIdx = int8(em.aliasNext)
			em.smcEntries = append(em.smcEntries, int8(em.aliasNext))
			em.aliasNext++
		}
		em.push(satom{a: ld, isLoad: true, smcCheck: true})
		x := vliw.Atom{Op: vliw.AXorI, Rd: xReg, Ra: tReg, Imm: w.want, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		em.push(satom{a: x})
		if w.mask != 0xFFFFFFFF {
			m := vliw.Atom{Op: vliw.AAndI, Rd: xReg, Ra: xReg, Imm: w.mask, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
			em.push(satom{a: m})
		}
		o := vliw.Atom{Op: vliw.AOr, Rd: accReg, Ra: accReg, Rb: xReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
		em.push(satom{a: o})
	}
	brnz := vliw.Atom{Op: vliw.ABrNZ, Ra: accReg, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	sa := em.push(satom{a: brnz, isExit: true})
	sa.exitIdx = em.failExit
}
