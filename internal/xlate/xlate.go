package xlate

import (
	"errors"
	"fmt"

	"cms/internal/guest"
	"cms/internal/interp"
	"cms/internal/ir"
	"cms/internal/mem"
	"cms/internal/vliw"
)

// Translation is the unit the translation cache stores: scheduled VLIW code
// for one guest region, plus the metadata the runtime needs for chaining,
// invalidation, self-checking, and adaptive retranslation.
type Translation struct {
	Entry  uint32
	Insns  []guest.Insn
	Exits  []ir.Exit
	Code   *vliw.Code
	Policy Policy

	// Compiled is the closure-threaded form of Code, built on the pipeline
	// workers when the translator's CompileBackend is on. Nil means the
	// engine interprets Code; the translation cache nils it when an entry
	// is replaced in place so stale compiled code can never run.
	Compiled *vliw.CompiledCode

	// SharedKey is the content key this artifact was stored under when it
	// came out of a farm's shared store (HasSharedKey reports whether it
	// did). Clones inherit it, so a VM that hits trouble while executing a
	// store-sourced translation can name the implicated artifact for
	// quarantine. Translations produced outside a store carry no key.
	SharedKey    Key
	HasSharedKey bool

	// SrcRanges are the coalesced guest code byte ranges this translation
	// was made from.
	SrcRanges []ir.SrcRange
	// Snapshot holds the source bytes per range as of translation time.
	Snapshot [][]byte
	// Mask holds per-byte compare masks (0xFF = must match); bytes of
	// stylized immediate fields are 0x00.
	Mask [][]byte

	// Req is the frozen request this translation was built from. Because
	// the backend is a pure function of the request, Req is everything a
	// snapshot needs to rebuild the translation bit-identically (or fetch
	// it from a shared store: Req.Key() is the content address). Clones
	// share it; it is immutable after Prepare.
	Req *Request

	prologue     *vliw.Code
	prologuePass int
	prologueFail int
}

// GuestLen returns the number of guest instructions covered.
func (t *Translation) GuestLen() int { return len(t.Insns) }

// Clone returns a per-VM installable view of a shared translation artifact.
// The immutable build products — scheduled code, the compiled closures
// (which take the executing Machine as a parameter and hold no VM state),
// the instruction list, exits, source ranges, snapshot, and mask — are
// shared; the mutable install-side state is not: the clone builds its own
// prologue lazily, and cache teardown (which nils Compiled on in-place
// replacement) touches only the clone. A shared-store artifact is therefore frozen
// forever: it is cloned at every install and never installed itself.
func (t *Translation) Clone() *Translation {
	c := *t
	c.prologue = nil
	c.prologuePass = 0
	c.prologueFail = 0
	return &c
}

// CodeAtoms returns the static code size in atoms.
func (t *Translation) CodeAtoms() int { return t.Code.NumAtoms() }

// CodeMolecules returns the static code size in molecules.
func (t *Translation) CodeMolecules() int { return len(t.Code.Mols) }

// Pages returns the distinct guest pages holding source bytes.
func (t *Translation) Pages() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, r := range t.SrcRanges {
		for p := mem.PageOf(r.Addr); p <= mem.PageOf(r.Addr+r.Len-1); p++ {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// Chunks returns, per page, the fine-grain chunk mask of source bytes
// (§3.6.1).
func (t *Translation) Chunks() map[uint32]uint32 {
	out := make(map[uint32]uint32)
	for _, r := range t.SrcRanges {
		for a := r.Addr; a < r.Addr+r.Len; a += mem.ChunkSize {
			out[mem.PageOf(a)] |= 1 << mem.ChunkOf(a)
		}
		last := r.Addr + r.Len - 1
		out[mem.PageOf(last)] |= 1 << mem.ChunkOf(last)
	}
	return out
}

// Covers reports whether addr lies in the translation's source bytes.
func (t *Translation) Covers(addr uint32) bool {
	for _, r := range t.SrcRanges {
		if addr >= r.Addr && addr < r.Addr+r.Len {
			return true
		}
	}
	return false
}

// CoversRange reports whether [addr, addr+n) intersects the source bytes.
func (t *Translation) CoversRange(addr uint32, n int) bool {
	for _, r := range t.SrcRanges {
		if addr < r.Addr+r.Len && r.Addr < addr+uint32(n) {
			return true
		}
	}
	return false
}

// SourceMatches compares the current memory contents against the snapshot,
// honoring the stylized-immediate mask — the comparison the prologue of a
// self-revalidating translation performs (§3.6.2) and translation groups
// use to find a matching old version (§3.6.5).
func (t *Translation) SourceMatches(bus *mem.Bus) bool {
	for ri, r := range t.SrcRanges {
		cur := bus.ReadRaw(r.Addr, int(r.Len))
		snap := t.Snapshot[ri]
		mask := t.Mask[ri]
		for i := range snap {
			if (cur[i]^snap[i])&mask[i] != 0 {
				return false
			}
		}
	}
	return true
}

// Prologue returns the self-revalidation check code (built on first use)
// and the exit indices meaning "source unchanged, run the body" and
// "source changed".
func (t *Translation) Prologue() (code *vliw.Code, pass, fail int, err error) {
	if t.prologue == nil {
		words := checkWordsFor(t)
		t.prologue, t.prologuePass, t.prologueFail, err = buildCheckCode(words)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return t.prologue, t.prologuePass, t.prologueFail, nil
}

// checkWordsFor enumerates the 32-bit comparison units over the snapshot.
func checkWordsFor(t *Translation) []checkWord {
	var words []checkWord
	for ri, r := range t.SrcRanges {
		snap, mask := t.Snapshot[ri], t.Mask[ri]
		for off := uint32(0); off < r.Len; off += 4 {
			var want, m uint32
			for b := uint32(0); b < 4 && off+b < r.Len; b++ {
				want |= uint32(snap[off+b]) << (8 * b)
				m |= uint32(mask[off+b]) << (8 * b)
			}
			if m == 0 {
				continue
			}
			words = append(words, checkWord{addr: r.Addr + off, want: want, mask: m})
		}
	}
	return words
}

// buildCheckCode builds a standalone source-verification code unit (the
// §3.6.2 prologue): exit pass if every word matches, exit fail otherwise.
// It commits nothing and touches only temporaries.
func buildCheckCode(words []checkWord) (code *vliw.Code, pass, fail int, err error) {
	reg := &ir.Region{}
	em := &emitter{region: reg, pol: Policy{}, host: vliw.TM5800()}
	// Reuse the self-check emitter but without alias entries (a prologue
	// runs at a boundary; there are no stores to guard against).
	em.aliasNext = vliw.AliasTableSize // exhaust entries: none allocated
	em.emitSelfCheck(words, vliw.RTempLast, vliw.RTempLast-1, vliw.RTempLast-2)
	fail = int(em.failExit)
	passExit := reg.AddExit(ir.Exit{Kind: ir.ExitJump})
	a := vliw.Atom{Op: vliw.AExit, Imm: uint32(passExit), Commit: false, GIdx: -1, ProtIdx: vliw.NoAliasIdx}
	sa := em.push(satom{a: a, isExit: true})
	sa.exitIdx = passExit
	em.buildDeps()
	code, err = em.schedule()
	if err != nil {
		return nil, 0, 0, err
	}
	if verr := code.Validate(); verr != nil {
		return nil, 0, 0, fmt.Errorf("xlate: prologue validation: %w", verr)
	}
	return code, int(passExit), fail, nil
}

// Translator turns hot guest regions into Translations.
type Translator struct {
	Bus  *mem.Bus
	Prof *interp.Profile

	// Host is the target microarchitecture generation (zero value: TM5800).
	// Retargeting the translator is all it takes to move to new hardware —
	// the guest-visible architecture is unaffected (§2).
	Host vliw.HostConfig

	// CompileBackend makes Translate also compile the scheduled code into
	// closure-threaded form (vliw.Compile). The compile runs wherever
	// Translate runs — on the pipeline workers in the concurrent
	// configuration — keeping it off the engine thread.
	CompileBackend bool

	// Translated counts successful translations; InsnsTranslated counts
	// guest instructions they covered (the translator work metric).
	Translated      uint64
	InsnsTranslated uint64
}

// selfCheckReserve is how many host registers the self-check machinery
// reserves from the allocator.
const selfCheckReserve = 3

// host returns the effective target microarchitecture.
func (tr *Translator) host() vliw.HostConfig {
	if tr.Host.Width == 0 {
		return vliw.TM5800()
	}
	return tr.Host
}

// Translate builds a translation for the region starting at entry under the
// given policy. It shrinks the region and retries on register pressure, and
// returns ErrUntranslatable when no region can be formed at all.
func (tr *Translator) Translate(entry uint32, pol Policy) (*Translation, error) {
	req, err := tr.Prepare(entry, pol)
	if err != nil {
		return nil, err
	}
	t, err := req.Translate()
	if err != nil {
		return nil, err
	}
	tr.Translated++
	tr.InsnsTranslated += uint64(len(t.Insns))
	return t, nil
}

// Request is a frozen translation request: the region selection plus every
// byte of input the backend needs, captured synchronously from the live bus
// and profile. Once built, a Request shares no mutable state with the
// running guest, so Translate may run on any goroutine while the
// interpreter keeps retiring instructions — the concurrency boundary of the
// translation pipeline.
type Request struct {
	Entry uint32
	Pol   Policy

	// insns is the trace selected at the policy's full instruction cap.
	// Register-pressure retries re-lower a prefix of it: selectRegion's
	// walk depends on the cap only through its loop bound, so selection at
	// a smaller cap IS the prefix of this list.
	insns []guest.Insn
	// ranges/bytes are the coalesced source ranges of the full trace and
	// their contents at capture time; retries snapshot from these, never
	// from the live bus.
	ranges []ir.SrcRange
	bytes  [][]byte
	// prof carries only the MMIO flags of the trace's addresses (the one
	// profile input lowering reads), copied out of the live profile.
	prof *interp.Profile
	host vliw.HostConfig
	// compile is the translator's CompileBackend, frozen at Prepare time.
	compile bool
}

// Prepare runs the front end of translation — region selection and source
// capture — against the live bus, and returns a self-contained Request for
// the backend. It returns ErrUntranslatable when no region can be formed.
func (tr *Translator) Prepare(entry uint32, pol Policy) (*Request, error) {
	p := pol
	p.MaxInsns = p.EffMaxInsns()
	insns, err := selectRegion(tr.Bus, tr.Prof, entry, p)
	if err != nil {
		return nil, err
	}
	req := &Request{
		Entry:   entry,
		Pol:     pol,
		insns:   insns,
		ranges:  ir.SrcRangesOf(insns),
		host:    tr.host(),
		compile: tr.CompileBackend,
	}
	req.bytes = make([][]byte, len(req.ranges))
	for ri, r := range req.ranges {
		req.bytes[ri] = tr.Bus.ReadRaw(r.Addr, int(r.Len))
	}
	if tr.Prof != nil {
		mmio := make(map[uint32]bool)
		for _, in := range insns {
			if tr.Prof.MMIOInsns[in.Addr] {
				mmio[in.Addr] = true
			}
		}
		req.prof = &interp.Profile{MMIOInsns: mmio}
	}
	return req, nil
}

// GuestLen returns the number of guest instructions in the captured trace.
func (req *Request) GuestLen() int { return len(req.insns) }

// ReadRaw serves source bytes from the capture, satisfying the snapshot
// reader. Every address the backend snapshots lies inside the captured
// ranges: retry prefixes only ever cover a subset of the full trace's bytes.
func (req *Request) ReadRaw(addr uint32, n int) []byte {
	for ri, r := range req.ranges {
		if addr >= r.Addr && addr+uint32(n) <= r.Addr+r.Len {
			out := make([]byte, n)
			copy(out, req.bytes[ri][addr-r.Addr:])
			return out
		}
	}
	panic(fmt.Sprintf("xlate: snapshot read [%#x,+%d) outside captured ranges", addr, n))
}

// Translate runs the backend — lower, optimize, allocate, emit, schedule —
// purely from the Request's captured inputs. It shrinks the region and
// retries on register pressure, exactly as the synchronous path does.
func (req *Request) Translate() (*Translation, error) {
	cap := req.Pol.EffMaxInsns()
	for {
		t, err := req.translateOnce(cap)
		if err == nil {
			if req.compile {
				t.Compiled = vliw.Compile(t.Code)
			}
			t.Req = req
			return t, nil
		}
		if errors.Is(err, errRegPressure) && cap > 4 {
			cap /= 2
			continue
		}
		return nil, err
	}
}

func (req *Request) translateOnce(capInsns int) (*Translation, error) {
	p := req.Pol
	p.MaxInsns = capInsns
	insns := req.insns
	if capInsns < len(insns) {
		insns = insns[:capInsns]
	}
	region, err := lower(req.Entry, insns, p, req.prof)
	if err != nil {
		return nil, err
	}
	rename(region)
	optimize(region)

	reserve := 0
	if p.SelfCheck {
		reserve = selfCheckReserve
	}
	assign, err := regalloc(region, reserve)
	if err != nil {
		return nil, err
	}

	t := &Translation{
		Entry:     req.Entry,
		Insns:     insns,
		Policy:    p,
		SrcRanges: region.SrcRanges(),
	}
	t.snapshot(req, p)

	em := &emitter{region: region, pol: p, host: req.host, assign: assign}
	// Most IR ops lower 1:1 (plus exit stubs); presizing skips the append
	// regrowth that otherwise dominates the emitter's allocations.
	em.atoms = make([]satom, 0, len(region.Code)+2*len(region.Exits)+8)
	if p.SelfCheck {
		em.emitSelfCheck(checkWordsFor(t), vliw.RTempLast, vliw.RTempLast-1, vliw.RTempLast-2)
	}
	if err := em.codegen(); err != nil {
		return nil, err
	}
	em.buildDeps()
	code, err := em.schedule()
	if err != nil {
		return nil, err
	}
	if verr := code.ValidateWith(req.host); verr != nil {
		return nil, fmt.Errorf("xlate: generated invalid code for %#x: %w", req.Entry, verr)
	}
	t.Code = code
	t.Exits = region.Exits
	return t, nil
}

// rawReader is the source-byte access snapshot needs: the live bus on the
// synchronous path, a Request's capture on the pipeline path.
type rawReader interface {
	ReadRaw(addr uint32, n int) []byte
}

// snapshot captures the source bytes and builds the stylized-immediate mask.
func (t *Translation) snapshot(src rawReader, pol Policy) {
	t.Snapshot = make([][]byte, len(t.SrcRanges))
	t.Mask = make([][]byte, len(t.SrcRanges))
	for ri, r := range t.SrcRanges {
		t.Snapshot[ri] = src.ReadRaw(r.Addr, int(r.Len))
		m := make([]byte, r.Len)
		for i := range m {
			m[i] = 0xFF
		}
		t.Mask[ri] = m
	}
	if len(pol.ImmLoad) == 0 {
		return
	}
	for _, in := range t.Insns {
		if !pol.ImmLoad[in.Addr] || !in.HasImm32() {
			continue
		}
		for b := uint32(0); b < 4; b++ {
			t.maskByte(in.Addr + in.ImmOff + b)
		}
	}
}

func (t *Translation) maskByte(addr uint32) {
	for ri, r := range t.SrcRanges {
		if addr >= r.Addr && addr < r.Addr+r.Len {
			t.Mask[ri][addr-r.Addr] = 0
		}
	}
}
