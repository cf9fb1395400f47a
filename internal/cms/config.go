// Package cms is the Code Morphing engine: the paper's primary contribution
// assembled from the substrates. It owns the dispatch loop of Figure 1
// (interpret → profile → translate → execute from the translation cache,
// with chaining), and the speculation / recovery / adaptive-retranslation
// response to every fault class (§3): rollback and re-interpretation,
// conservative policy ladders, region narrowing, page and fine-grain write
// protection, self-revalidating and self-checking translations, stylized
// self-modifying code, and translation groups.
package cms

import (
	"cms/internal/tcache"
	"cms/internal/vliw"
	"cms/internal/xlate"
)

// Config holds the engine's tunables. The zero value is normalized to the
// defaults by New; experiment harnesses override individual knobs.
type Config struct {
	// HotThreshold is the execution count at which a block head is handed
	// to the translator (§2: "when the number of executions of a section of
	// x86 code reaches a certain threshold").
	HotThreshold uint64

	// FaultThreshold is how many faults of one class a translation absorbs
	// before adaptive retranslation kicks in ("infrequent failures" are
	// handled by interpretation alone, which costs nothing up front).
	FaultThreshold uint32

	// LookupCost is the molecule charge for one translation-cache lookup on
	// the "no chain" path of Figure 1 (the branch-target lookup routine that
	// chaining eliminates).
	LookupCost uint64

	// TranslateCostPerInsn is the molecule charge per guest instruction
	// translated, modelling the translator's own execution time ("the
	// translator can be a significant portion of execution time"). The
	// default is calibrated so that translator work lands at a realistic
	// share of our deliberately short benchmark runs; see DESIGN.md §6.
	TranslateCostPerInsn uint64

	// BasePolicy is the speculation policy every translation starts from;
	// experiments use it to suppress reordering (Figure 2), disable the
	// alias hardware (Figure 3), or force self-checking (§3.6.3 data).
	BasePolicy xlate.Policy

	// EnableFineGrain turns on fine-grain write protection (§3.6.1); off
	// reproduces the "without fine-grain" column of Table 1.
	EnableFineGrain bool
	// EnableSelfReval turns on self-revalidating translations (§3.6.2).
	EnableSelfReval bool
	// EnableStylized turns on stylized-SMC immediate loading (§3.6.4).
	EnableStylized bool
	// EnableGroups turns on translation groups (§3.6.5).
	EnableGroups bool
	// EnableCompiledBackend compiles installed translations into
	// closure-threaded code on the pipeline workers and executes that form
	// on the hot path. Purely a wall-clock optimization: gating,
	// commit/rollback, faults, and all simulated Metrics are identical to
	// the interpretive backend (the differential test in internal/bench
	// asserts this on every workload).
	EnableCompiledBackend bool
	// EnableChaining links translation exits directly (§2); off forces
	// every exit through the dispatcher for the chaining experiment.
	EnableChaining bool

	// Host selects the target microarchitecture generation (zero value:
	// TM5800). Changing it retargets the translator without touching
	// anything guest-visible — the co-design freedom of §2.
	Host vliw.HostConfig

	// NoTranslate forces pure interpretation (reference mode).
	NoTranslate bool

	// TCacheCapAtoms bounds the translation cache (0 = default).
	TCacheCapAtoms int

	// PipelineWorkers enables the concurrent translation pipeline: hot
	// regions are frozen on the engine thread and translated on this many
	// worker goroutines while the interpreter keeps retiring guest
	// instructions. 0 (the default) translates synchronously, as real
	// single-threaded CMS did. Simulated Metrics are identical for any
	// worker count >= 1; only wall-clock time changes.
	PipelineWorkers int
	// PipelineDepth bounds in-flight translation requests (0 = default 8).
	// Hot sites beyond the bound simply stay in the interpreter until a
	// slot frees up — a deterministic, engine-side decision.
	PipelineDepth int
	// PipelineLatency is the simulated delay, in retired guest
	// instructions, between submitting a region and installing its
	// translation (0 = default 600). Installs happen at the first dispatch
	// boundary past the deadline, which is what makes pipelined Metrics
	// independent of worker count and host speed.
	PipelineLatency uint64
	// IndTCHitCost is the molecule charge for an indirect-branch target
	// cache hit (0 = default 2) — the cheap inline-cache path that replaces
	// the full LookupCost dispatch lookup for hot indirect jumps.
	IndTCHitCost uint64

	// SharedStore, when non-nil, deduplicates translation work across
	// engines through a farm-wide content-addressed store (internal/farm):
	// requests whose frozen capture hashes identically are translated and
	// compiled once, and every engine installs its own clone of the shared
	// artifact. Purely a wall-clock optimization — the engine charges the
	// same simulated translation cost on a store hit as on a miss, so
	// Metrics and final guest state are bit-identical to a solo run.
	SharedStore *tcache.SharedStore

	// Injector, when non-nil, is consulted at every translated-execution
	// commit boundary to force recovery events (rollback, alias fault,
	// eviction) for fault-injection testing; see hooks.go. Injection must
	// not change final guest state — only Metrics and wall clock.
	Injector Injector

	// Cancel, when non-nil, is the cooperative preemption hook: the engine
	// polls it at the first commit boundary after every CancelQuantum
	// retired guest instructions, and a true return stops Run with
	// ErrCancelled at that committed boundary. The farm's per-job watchdog
	// arms it with an atomic deadline flag. Placement matters for the hot
	// path: the poll costs one uint64 compare per dispatch/chain boundary
	// when idle and nothing at all is charged to the simulated Metrics, so a
	// run that is never cancelled is bit-identical to one with no hook (see
	// docs/INTERNALS.md).
	Cancel func() bool

	// CancelQuantum is the polling step, in retired guest instructions
	// (0 = default 4096). Smaller quanta preempt sooner but call Cancel more
	// often; the default polls a few hundred times per simulated millisecond
	// of guest work.
	CancelQuantum uint64

	// RollbackStormThreshold, when non-zero and a SharedStore is configured,
	// quarantines a translation's content key after that many rollback-class
	// faults have hit one installed copy of it — a rollback storm. The
	// poisoned key stops the artifact cascading to other VMs; poisoning is
	// wall-clock-only (re-translation charges the same simulated cost), so
	// Metrics stay bit-identical to a solo run.
	RollbackStormThreshold uint32

	// Exec, when non-nil, executes every translation in place of the
	// compiled and interpretive paths, from the translation's immutable
	// scheduled code. It exists so tests can run an independent executor
	// (the fuzzer's risc leg) through the full engine; nothing outside
	// tests sets it.
	Exec func(m *vliw.Machine, code *vliw.Code) *vliw.Outcome
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		HotThreshold:          50,
		FaultThreshold:        2,
		TranslateCostPerInsn:  150,
		LookupCost:            12,
		EnableFineGrain:       true,
		EnableSelfReval:       true,
		EnableStylized:        true,
		EnableGroups:          true,
		EnableChaining:        true,
		EnableCompiledBackend: true,
	}
}

func (c Config) normalized() Config {
	if c.HotThreshold == 0 {
		c.HotThreshold = 50
	}
	if c.FaultThreshold == 0 {
		c.FaultThreshold = 2
	}
	if c.TranslateCostPerInsn == 0 {
		c.TranslateCostPerInsn = 150
	}
	if c.LookupCost == 0 {
		c.LookupCost = 12
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 8
	}
	if c.PipelineLatency == 0 {
		c.PipelineLatency = 600
	}
	if c.IndTCHitCost == 0 {
		c.IndTCHitCost = 2
	}
	if c.CancelQuantum == 0 {
		c.CancelQuantum = 4096
	}
	return c
}

// Metrics aggregates the engine's dynamic counts. Molecules are the paper's
// performance metric; the guest-instruction counts give molecules per guest
// instruction, the unit of Table 1's slowdown column.
type Metrics struct {
	// Molecule accounting by activity.
	MolsInterp    uint64 // interpreter cost-model charges
	MolsTexec     uint64 // molecules executed inside translations
	MolsTranslate uint64 // translator work charges
	MolsPrologue  uint64 // self-revalidation prologues
	MolsDispatch  uint64 // translation-cache lookups on unchained paths

	// Guest instructions retired by each engine.
	GuestInterp uint64
	GuestTexec  uint64

	// Figure 1 control-flow transitions.
	DispatchToTexec uint64 // dispatcher entered the translation cache
	ChainTransfers  uint64 // exit followed a chain (no lookup)
	LookupTransfers uint64 // exit looked up the next translation
	DispatchReturns uint64 // exit fell back to the dispatcher

	// Fault counts by class (indexed by vliw.FaultClass).
	Faults [8]uint64
	// GenuineGuestFaults/SpecGuestFaults split FGuest by what
	// re-interpretation proved (§3.2).
	GenuineGuestFaults uint64
	SpecGuestFaults    uint64

	// SMC machinery.
	ProtFaults           uint64 // CPU writes that hit protected code
	DMAInvalidations     uint64
	FineGrainConversions uint64
	SelfRevalArms        uint64
	SelfRevalPasses      uint64
	SelfRevalFails       uint64
	SelfCheckFails       uint64
	StylizedAdopts       uint64
	GroupReuses          uint64

	// Adaptive retranslation events by fault class.
	Adaptations [8]uint64

	// Translation pipeline events (all zero in synchronous mode).
	PipelineSubmits  uint64 // regions frozen and handed to the worker pool
	PipelineInstalls uint64 // translations installed at their due boundary
	PipelineStale    uint64 // finished translations dropped: source changed in flight

	// Indirect-branch target cache (the inline cache on indirect exits).
	IndirectHits   uint64
	IndirectMisses uint64

	Interrupts   uint64
	Translations uint64
	// CodeAtoms sums the static size of all installed translations (the
	// §3.6.3 code-size metric).
	CodeAtoms uint64
	// GuestInsnsTranslated sums region lengths over all translations.
	GuestInsnsTranslated uint64
}

// TotalMols returns total molecules across all activities.
func (m *Metrics) TotalMols() uint64 {
	return m.MolsInterp + m.MolsTexec + m.MolsTranslate + m.MolsPrologue + m.MolsDispatch
}

// GuestTotal returns total retired guest instructions.
func (m *Metrics) GuestTotal() uint64 { return m.GuestInterp + m.GuestTexec }

// MPI returns molecules per guest instruction (the paper's slowdown unit).
func (m *Metrics) MPI() float64 {
	g := m.GuestTotal()
	if g == 0 {
		return 0
	}
	return float64(m.TotalMols()) / float64(g)
}

// site holds the per-region adaptive state CMS accumulates across
// retranslations of the same entry address.
type site struct {
	policy xlate.Policy
	// interpOnly pins the address to the interpreter (the degenerate
	// zero-instruction translation of §3.2).
	interpOnly bool

	// Ladder counters.
	aliasAdapts   int
	smcWrites     int
	prologueFails int
	wantSelfReval bool
	useGroups     bool
	selfCheck     bool
}

// adaptClass advances the site's policy ladder for a fault class and
// offending instruction address, per §3.2-§3.5. Genuine guest faults are
// narrowed by the engine directly; this handles the speculative classes.
func (s *site) adaptClass(class vliw.FaultClass, insnAddr uint32, regionLen int) {
	switch class {
	case vliw.FAlias:
		// "Recurring faults are handled by cutting the faulting translation
		// into smaller regions and by scheduling any regions that still
		// fault without speculative load/store reordering."
		switch s.aliasAdapts {
		case 0:
			s.policy = s.policy.WithNoReorder(insnAddr)
		case 1:
			s.policy.NoReorderMem = true
		default:
			s.policy.NoReorderMem = true
			s.policy.MaxInsns = maxInt(4, regionLen/2)
		}
		s.aliasAdapts++
	case vliw.FMMIOSpec:
		// "CMS regenerates the translation, this time without reordering
		// the offending memory reference."
		if s.policy.NoReorder[insnAddr] {
			s.policy = s.policy.WithSerialize(insnAddr)
		} else {
			s.policy = s.policy.WithNoReorder(insnAddr)
		}
	case vliw.FMMIOOrder:
		s.policy = s.policy.WithSerialize(insnAddr)
	case vliw.FGuest:
		// Speculative guest faults (the interpreter proved no architectural
		// exception occurred): stop hoisting faulting operations above
		// branch exits; if that was not enough, cut the region.
		if s.policy.NoHoistLoads {
			s.policy.MaxInsns = maxInt(4, regionLen/2)
		}
		s.policy.NoHoistLoads = true
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
