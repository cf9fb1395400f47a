package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"cms/internal/cms"
	"cms/internal/workload"
)

// PerfWorkloads are the hot kernels the wall-clock perf record tracks —
// the translation-dominated benchmarks where simulator speed matters most.
var PerfWorkloads = []string{
	"eqntott", "compress", "alvinn", "tomcatv", "li", "gcc",
	"win98_boot", "quake_demo2",
}

// WorkloadPerf is one workload's wall-clock measurement.
type WorkloadPerf struct {
	Name string `json:"name"`
	// NsPerRun is the best-of-N wall-clock time for one full workload run
	// on the synchronous engine; NsPerRunPipelined is the same with
	// PipelineWorkers = NumCPU.
	NsPerRun          int64 `json:"ns_per_run"`
	NsPerRunPipelined int64 `json:"ns_per_run_pipelined"`
	// NsPerRunInterp is NsPerRun with the compiled backend disabled — the
	// pure interpretive hot path, kept in the record so the closure-threaded
	// backend's win stays visible across PRs. Zero in records written before
	// the compiled backend existed.
	NsPerRunInterp int64 `json:"ns_per_run_interp,omitempty"`
	// NsPerRunGuarded is NsPerRun in the farm's fault-containment shape: the
	// cooperative cancel hook armed (never firing) and the engine run inside
	// a recover() wrapper. The delta against NsPerRun is the watchdog +
	// panic-isolation tax on a hot kernel — the -baseline gate requires it
	// under 2%. Zero in records written before fault containment existed.
	NsPerRunGuarded int64 `json:"ns_per_run_guarded,omitempty"`
	// NsPerRunSnapReady is NsPerRunGuarded with checkpoint support armed but
	// never firing: the cancel hook polls both the watchdog flag and the
	// checkpoint flag, the farm runner's exact serving shape. The delta
	// against NsPerRunGuarded is what snapshot support costs a hot kernel
	// when unused — the -baseline gate requires it under 1%. Zero in records
	// written before checkpoint/restore existed.
	NsPerRunSnapReady int64 `json:"ns_per_run_snapready,omitempty"`
	// GuestInsns is the simulated work per run (identical across modes).
	GuestInsns uint64 `json:"guest_insns"`
	// MguestPerSec is simulation throughput (sync engine): millions of
	// guest instructions retired per wall-clock second.
	MguestPerSec float64 `json:"mguest_per_sec"`
}

// PerfRecord is the machine-readable perf snapshot cmsbench -json emits;
// committed BENCH_*.json files track the trajectory across PRs.
type PerfRecord struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the parallelism the measurement actually ran with —
	// NumCPU alone proved misleading: the whole PR1→PR4 farm history was
	// recorded at effective parallelism 1 and nothing in the record said
	// so. Zero in records written before this field existed.
	GoMaxProcs int            `json:"gomaxprocs,omitempty"`
	Runs       int            `json:"runs_per_workload"`
	Workloads  []WorkloadPerf `json:"workloads"`
	// Farm is the serving-farm throughput sweep (VMs/sec and dedup rate per
	// concurrency level). Informational: the -baseline regression gate stays
	// on NsPerRun, and records written before the farm existed omit it.
	Farm []FarmPerf `json:"farm,omitempty"`
	// FarmScale is the sustained-load multicore sweep (GOMAXPROCS pinned to
	// the VM count per level, p50/p99 latency, scaling efficiency). The
	// -baseline gate fails on efficiency regressions when both records were
	// measured with real parallelism (CompareScaling).
	FarmScale []FarmScalePerf `json:"farm_scale,omitempty"`
}

// Perf measures every PerfWorkloads kernel, best-of-runs.
func Perf(runs int) (*PerfRecord, error) {
	if runs < 1 {
		runs = 1
	}
	rec := &PerfRecord{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Runs:       runs,
	}
	for _, name := range PerfWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sync, guest, err := timeRuns(w, cms.DefaultConfig(), runs)
		if err != nil {
			return nil, err
		}
		pcfg := cms.DefaultConfig()
		pcfg.PipelineWorkers = runtime.NumCPU()
		piped, _, err := timeRuns(w, pcfg, runs)
		if err != nil {
			return nil, err
		}
		icfg := cms.DefaultConfig()
		icfg.EnableCompiledBackend = false
		interp, _, err := timeRuns(w, icfg, runs)
		if err != nil {
			return nil, err
		}
		// The farm runner's fault-containment shape: the cancel hook armed
		// with a never-set flag (the watchdog's idle state), then polling
		// the watchdog and checkpoint flags both, as every serving job does.
		var cancelled, checkpoint atomic.Bool
		gcfg := cms.DefaultConfig()
		gcfg.Cancel = cancelled.Load
		guarded, _, err := timeRuns(w, gcfg, runs)
		if err != nil {
			return nil, err
		}
		scfg := cms.DefaultConfig()
		scfg.Cancel = func() bool { return cancelled.Load() || checkpoint.Load() }
		snapReady, _, err := timeRuns(w, scfg, runs)
		if err != nil {
			return nil, err
		}
		rec.Workloads = append(rec.Workloads, WorkloadPerf{
			Name:              name,
			NsPerRun:          sync,
			NsPerRunPipelined: piped,
			NsPerRunInterp:    interp,
			NsPerRunGuarded:   guarded,
			NsPerRunSnapReady: snapReady,
			GuestInsns:        guest,
			MguestPerSec:      float64(guest) / (float64(sync) / 1e9) / 1e6,
		})
	}
	farmRows, err := FarmThroughput()
	if err != nil {
		return nil, err
	}
	rec.Farm = farmRows
	scaleRows, err := FarmScale(nil, 0)
	if err != nil {
		return nil, err
	}
	rec.FarmScale = scaleRows
	return rec, nil
}

// timeRuns returns the best wall-clock nanoseconds over n runs. Each run
// starts from a collected heap so GC debt accumulated by earlier workloads
// (or configs) is paid outside the timed window — without this, later
// workloads in the sweep absorb earlier allocations' assist work and the
// record picks up double-digit cross-run noise.
//
// A cfg with Cancel armed is timed in the farm runner's guarded shape: the
// engine also runs under a recover() wrapper, so the number is what
// serving pays per job when nothing goes wrong.
func timeRuns(w workload.Workload, cfg cms.Config, n int) (best int64, guest uint64, err error) {
	run := func() (*RunStats, error) { return Run(w, cfg) }
	if cfg.Cancel != nil {
		run = func() (r *RunStats, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("bench: %s panicked under guard: %v", w.Name, p)
				}
			}()
			return Run(w, cfg)
		}
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		r, rerr := run()
		d := time.Since(t0).Nanoseconds()
		if rerr != nil {
			return 0, 0, rerr
		}
		if best == 0 || d < best {
			best = d
		}
		guest = r.Metrics.GuestTotal()
	}
	return best, guest, nil
}

// GuardDelta is one workload's watchdog + panic-isolation overhead.
type GuardDelta struct {
	Name               string
	PlainNs, GuardedNs int64
	// Pct is the signed overhead percentage; positive means the guarded run
	// is slower.
	Pct float64
}

// GuardOverhead compares each workload's guarded and plain timings within
// one record and reports the worst overhead percentage. Workloads without a
// guarded measurement (old records) are skipped.
func GuardOverhead(rec *PerfRecord) (deltas []GuardDelta, worst float64) {
	for _, w := range rec.Workloads {
		if w.NsPerRun == 0 || w.NsPerRunGuarded == 0 {
			continue
		}
		pct := 100 * (float64(w.NsPerRunGuarded) - float64(w.NsPerRun)) / float64(w.NsPerRun)
		deltas = append(deltas, GuardDelta{Name: w.Name, PlainNs: w.NsPerRun, GuardedNs: w.NsPerRunGuarded, Pct: pct})
		if pct > worst {
			worst = pct
		}
	}
	return deltas, worst
}

// WritePerfJSON renders the record as indented JSON.
func WritePerfJSON(w io.Writer, r *PerfRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadPerfJSON parses a committed BENCH_*.json record.
func ReadPerfJSON(r io.Reader) (*PerfRecord, error) {
	var rec PerfRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// PerfDelta is one workload's wall-clock change against a baseline record.
type PerfDelta struct {
	Name   string
	BaseNs int64
	CurNs  int64
	// Pct is the signed percentage change; positive means slower than the
	// baseline.
	Pct float64
	// Missing marks a workload present in only one of the two records
	// (compared as informational, never a regression).
	Missing bool
}

// ComparePerf lines the current record up against a baseline, per workload,
// and reports whether any shared workload regressed by more than tolPct
// percent wall clock. Pipelined and interp timings ride along in the record
// but the gate is on NsPerRun, the synchronous-engine number the BENCH_*.json
// trajectory has always tracked.
func ComparePerf(base, cur *PerfRecord, tolPct float64) (deltas []PerfDelta, regressed bool) {
	baseBy := make(map[string]WorkloadPerf, len(base.Workloads))
	for _, w := range base.Workloads {
		baseBy[w.Name] = w
	}
	for _, w := range cur.Workloads {
		b, ok := baseBy[w.Name]
		if !ok || b.NsPerRun == 0 {
			deltas = append(deltas, PerfDelta{Name: w.Name, CurNs: w.NsPerRun, Missing: true})
			continue
		}
		pct := 100 * (float64(w.NsPerRun) - float64(b.NsPerRun)) / float64(b.NsPerRun)
		deltas = append(deltas, PerfDelta{Name: w.Name, BaseNs: b.NsPerRun, CurNs: w.NsPerRun, Pct: pct})
		if pct > tolPct {
			regressed = true
		}
	}
	return deltas, regressed
}
