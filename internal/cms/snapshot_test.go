package cms

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cms/internal/dev"
	"cms/internal/tcache"
	"cms/internal/workload"
	"cms/internal/xlate"
)

// snapLoop retires enough instructions that a first-poll cancel always
// lands mid-run with the hot loop already translated.
const snapLoop = `
.org 0x1000
	mov eax, 0
	mov ecx, 40000
loop:
	add eax, ecx
	mov [0x8000], eax
	mov ebx, [0x8000]
	dec ecx
	jne loop
	hlt
`

// cancelOnce returns a Cancel hook that fires at the first poll boundary
// and never again — the capture engine preempts, the restored engine runs.
func cancelOnce() func() bool {
	fired := false
	return func() bool {
		if fired {
			return false
		}
		fired = true
		return true
	}
}

// captureMidRun runs src until the first cancel boundary and exports the
// engine. The platform is left exactly as captured (the engine stopped at a
// committed boundary), so restoring onto it is legal.
func captureMidRun(t *testing.T, cfg Config, budget uint64) (*Engine, *EngineState) {
	t.Helper()
	cfg.Cancel = cancelOnce()
	e := build(t, snapLoop, cfg, nil)
	if err := e.Run(budget); !errors.Is(err, ErrCancelled) {
		t.Fatalf("capture run: %v, want ErrCancelled", err)
	}
	if e.CPU().Halted {
		t.Fatal("cancel landed after the halt — nothing mid-run to capture")
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// TestEngineExportRestoreMidRun is the in-package half of the snapshot
// contract: export at a cancel boundary, rebuild with RestoreEngine on the
// captured platform, finish, and match an uninterrupted run bit-for-bit —
// registers, flags, and the full Metrics struct.
func TestEngineExportRestoreMidRun(t *testing.T) {
	const budget = 10_000_000
	solo := build(t, snapLoop, DefaultConfig(), nil)
	runToHalt(t, solo, budget)

	e, st := captureMidRun(t, DefaultConfig(), budget)
	re, err := RestoreEngine(e.Plat, DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	if re.Budget() != budget {
		t.Fatalf("restored budget = %d, want %d", re.Budget(), budget)
	}
	runToHalt(t, re, budget)
	if re.CPU().Regs != solo.CPU().Regs || re.CPU().Flags != solo.CPU().Flags {
		t.Fatalf("restored arch state diverged: %v vs %v", re.CPU().Regs, solo.CPU().Regs)
	}
	if !reflect.DeepEqual(re.Metrics, solo.Metrics) {
		t.Fatalf("restored Metrics diverged:\nrestored %+v\nsolo     %+v", re.Metrics, solo.Metrics)
	}
}

// TestBudgetStopContinuation stops a workload on its instruction budget and
// continues it two ways — a second Run on the same engine, and a snapshot
// taken at the stop and restored onto a fresh platform — and requires both
// to end bit-identical to the uninterrupted run: registers, flags, RAM and
// the full Metrics struct. A budget stop inside a chain must park the
// pending transition as a cancel stop does, or the continuation re-enters
// through the dispatcher and charges DispatchToTexec and DispatchReturns
// where the uninterrupted run took a chain transfer.
func TestBudgetStopContinuation(t *testing.T) {
	for _, name := range []string{"win98_boot", "eqntott"} {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			img := w.Build()
			start := func() *Engine {
				plat := dev.NewPlatform(img.RAM, img.Disk)
				plat.Bus.WriteRaw(img.Org, img.Data)
				return New(plat, img.Entry, DefaultConfig())
			}
			solo := start()
			runToHalt(t, solo, img.Budget)
			total := solo.Metrics.GuestTotal()
			parked := 0
			for _, stop := range []uint64{total / 3, total / 2} {
				e := start()
				if err := e.Run(stop); !errors.Is(err, ErrBudget) {
					t.Fatalf("stop at %d: %v, want ErrBudget", stop, err)
				}
				if e.resumePt.valid {
					parked++
				}
				st, err := e.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				plat, err := dev.RestorePlatform(e.Plat.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				re, err := RestoreEngine(plat, DefaultConfig(), st)
				if err != nil {
					t.Fatal(err)
				}
				for form, c := range map[string]*Engine{"same engine": e, "restored snapshot": re} {
					runToHalt(t, c, img.Budget)
					if c.CPU().Regs != solo.CPU().Regs || c.CPU().Flags != solo.CPU().Flags {
						t.Fatalf("stop at %d, %s: arch state %v, want %v", stop, form, c.CPU().Regs, solo.CPU().Regs)
					}
					if !bytes.Equal(c.Plat.Bus.ReadRaw(0, int(img.RAM)), solo.Plat.Bus.ReadRaw(0, int(img.RAM))) {
						t.Fatalf("stop at %d, %s: RAM diverged", stop, form)
					}
					if !reflect.DeepEqual(c.Metrics, solo.Metrics) {
						t.Fatalf("stop at %d, %s: Metrics diverged:\ngot  %+v\nwant %+v", stop, form, c.Metrics, solo.Metrics)
					}
				}
			}
			if parked == 0 {
				t.Fatal("no budget stop landed inside a chain; the test exercises nothing")
			}
		})
	}
}

// TestEngineRestoreRehydratesThroughStore pins both rehydration paths: a
// warm shared store serves the captured translations as hits, a cold one
// retranslates as misses, and the continuation is bit-identical either way.
func TestEngineRestoreRehydratesThroughStore(t *testing.T) {
	const budget = 10_000_000
	solo := build(t, snapLoop, DefaultConfig(), nil)
	runToHalt(t, solo, budget)

	warm := tcache.NewShared(0)
	cfg := DefaultConfig()
	cfg.SharedStore = warm
	e, st := captureMidRun(t, cfg, budget)
	if len(st.Cache.Entries) == 0 {
		t.Fatal("capture carries no translations — the store paths are untested")
	}

	rcfg := DefaultConfig()
	rcfg.SharedStore = warm
	re, err := RestoreEngine(e.Plat, rcfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if ws := warm.Stats(); ws.RehydrateHits == 0 {
		t.Fatalf("warm store rehydrated with no hits: %+v", ws)
	}
	if hits, _ := re.SharedStats(); hits == 0 {
		t.Fatal("restored engine's shared-hit counter did not move")
	}
	runToHalt(t, re, budget)
	if !reflect.DeepEqual(re.Metrics, solo.Metrics) {
		t.Fatal("warm-store restore diverged from solo Metrics")
	}

	// Cold store: same state, every translation rebuilt from scratch.
	ccfg := DefaultConfig()
	ccfg.SharedStore = tcache.NewShared(0)
	// Round-trip the captured platform through the dev snapshot layer so the
	// second restore gets its own bus — restoring two engines onto one
	// platform would alias guest memory.
	plat2, err := dev.RestorePlatform(e.Plat.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreEngine(plat2, ccfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if cs := ccfg.SharedStore.Stats(); cs.RehydrateMisses == 0 {
		t.Fatalf("cold store rehydrated with no misses: %+v", cs)
	}
	runToHalt(t, rc, budget)
	if !reflect.DeepEqual(rc.Metrics, solo.Metrics) {
		t.Fatal("cold-store restore diverged from solo Metrics")
	}
}

// TestEngineExportErrors pins the export-time refusals: a running pipeline
// and an injector that cannot ride a snapshot.
func TestEngineExportErrors(t *testing.T) {
	e := build(t, snapLoop, DefaultConfig(), nil)
	e.pipe = new(xlate.Pipeline)
	if _, err := e.ExportState(); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("export with live pipeline: %v", err)
	}
	e.pipe = nil

	cfg := DefaultConfig()
	cfg.Injector = statelessInjector{}
	ei := build(t, snapLoop, cfg, nil)
	if _, err := ei.ExportState(); err == nil || !strings.Contains(err.Error(), "injector") {
		t.Fatalf("export with stateless injector: %v", err)
	}
}

// statelessInjector implements Injector but not StatefulInjector.
type statelessInjector struct{}

func (statelessInjector) TexecBoundary(uint32, uint64) InjectAction { return InjectNone }

// TestEngineRestoreErrors pins the restore-time refusals: incomplete state,
// a resume point naming an uncached translation, a budget resume point
// whose dispatcher-return charge is missing, and injector state without a
// matching StatefulInjector in the config.
func TestEngineRestoreErrors(t *testing.T) {
	e, st := captureMidRun(t, DefaultConfig(), 10_000_000)

	if _, err := RestoreEngine(e.Plat, DefaultConfig(), nil); err == nil {
		t.Fatal("nil state restored")
	}
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &EngineState{}); err == nil {
		t.Fatal("empty state restored")
	}

	bad := *st
	bad.Resume = ResumeState{Valid: true, Entry: 0xdead0}
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &bad); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("resume to uncached entry: %v", err)
	}

	charge := *st
	charge.Resume.Valid, charge.Resume.Budget = true, true
	charge.Metrics.DispatchReturns = 0
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &charge); err == nil || !strings.Contains(err.Error(), "dispatcher return") {
		t.Fatalf("budget resume with no dispatcher return charged: %v", err)
	}

	inj := *st
	inj.Injector = []byte("schedule")
	if _, err := RestoreEngine(e.Plat, DefaultConfig(), &inj); err == nil || !strings.Contains(err.Error(), "injector") {
		t.Fatalf("injector state without injector: %v", err)
	}
}
