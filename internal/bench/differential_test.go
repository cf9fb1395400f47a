package bench

import (
	"testing"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/vliw"
	"cms/internal/workload"
)

// backendRun executes one workload to completion under cfg and captures the
// outcome with the differential oracle's shared State snapshot, so this
// test, the farm differential, and the generative fuzzer all compare the
// exact same observables the exact same way.
func backendRun(t *testing.T, w workload.Workload, name string, cfg cms.Config) *fuzzer.State {
	t.Helper()
	img := w.Build()
	plat := dev.NewPlatform(img.RAM, img.Disk)
	plat.Bus.WriteRaw(img.Org, img.Data)
	e := cms.New(plat, img.Entry, cfg)
	st := fuzzer.Capture(name, e, plat, e.Run(img.Budget))
	if st.Err != "" {
		t.Fatalf("%s (%s): %s", w.Name, name, st.Err)
	}
	if !st.Halted {
		t.Fatalf("%s (%s) did not halt", w.Name, name)
	}
	return st
}

// diffBackends runs w under cfg three ways — compiled backend off, on, and
// every translation through the independent risc test executor — and
// asserts all three are observationally identical: same final CPU, same
// guest memory and device output, same simulated Metrics, same cache
// statistics. This is the deopt contract of the closure-threaded backend —
// only wall clock may move — and the risc executor's contract re-checked on
// the real workload suite.
func diffBackends(t *testing.T, w workload.Workload, cfg cms.Config) {
	t.Helper()
	ci := cfg
	ci.EnableCompiledBackend = false
	cc := cfg
	cc.EnableCompiledBackend = true
	cr := cfg
	riscExec, calls := fuzzer.RiscExec(), 0
	cr.Exec = func(m *vliw.Machine, code *vliw.Code) *vliw.Outcome {
		calls++
		return riscExec(m, code)
	}

	si := backendRun(t, w, "interp-backend", ci)
	for _, s := range []*fuzzer.State{
		backendRun(t, w, "compiled-backend", cc),
		backendRun(t, w, "risc-exec", cr),
	} {
		if d := fuzzer.DiffArch(si, s); d != "" {
			t.Errorf("%s: architectural state diverged: %s", w.Name, d)
		}
		if d := fuzzer.DiffMetrics(si, s); d != "" {
			t.Errorf("%s: %s", w.Name, d)
		}
	}
	if calls == 0 && si.Cache.Installs > 0 {
		t.Errorf("%s: %d translations installed but the risc executor never ran", w.Name, si.Cache.Installs)
	}
}

// TestBackendDifferential proves the compiled and interpretive backends and
// the risc test executor are byte-for-byte equivalent on every workload — including the SMC and
// adaptive-retranslation workloads — under the default (synchronous)
// configuration.
func TestBackendDifferential(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			diffBackends(t, w, cms.DefaultConfig())
		})
	}
}

// TestBackendDifferentialPipelined repeats the differential over the
// concurrent translation pipeline, where compilation happens on the worker
// goroutines rather than the engine thread (the risc executor still runs
// on the engine thread).
func TestBackendDifferentialPipelined(t *testing.T) {
	cfg := cms.DefaultConfig()
	cfg.PipelineWorkers = 2
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			diffBackends(t, w, cfg)
		})
	}
}
