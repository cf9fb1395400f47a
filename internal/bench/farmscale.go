package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cms/internal/cms"
	"cms/internal/farm"
)

// The farmscale experiment measures whether the serving farm actually
// converts cores into throughput, or just interleaves VMs on one core. Every
// level pins GOMAXPROCS to the level's VM count, floods the farm with a
// sustained mixed-workload job stream, and reports aggregate throughput,
// per-core throughput, p50/p99 job latency, and scaling efficiency —
// throughput at N effective cores divided by N times the single-VM figure.
// It is a printed report, not a gate: on a 1-CPU host the curve is flat by
// construction, and the harness says so (WarnSerialFarm).

// FarmWorkloads are the kernels the farm sweep serves. The job list cycles
// through them, so every level sees repeated workloads and the shared
// store's dedup engages the way it would in a real serving farm.
var FarmWorkloads = []string{"eqntott", "compress", "alvinn"}

// FarmScaleLevels are the default concurrency levels: at each level the
// farm runs N VM slots with GOMAXPROCS set to N.
var FarmScaleLevels = []int{1, 2, 4, 8}

// FarmScaleJobs is the default sustained-load job count per level — large
// enough that queueing, store contention, and scheduler effects dominate
// over startup transients.
const FarmScaleJobs = 1000

// FarmScalePerf is one level of the sustained-load sweep.
type FarmScalePerf struct {
	// VMs is the farm's concurrent VM slots; GOMAXPROCS is set to the same
	// value for the level's duration.
	VMs int
	// EffectiveCores is min(VMs, NumCPU) — the parallelism the host can
	// actually deliver. When this is 1 the level measures interleaving, not
	// scaling, and the harness says so loudly.
	EffectiveCores int
	Jobs           int
	WallNs         int64
	// VMsPerSec is aggregate serving throughput: completed VM runs per
	// wall-clock second across the whole farm.
	VMsPerSec float64
	// VMsPerSecPerCore normalizes throughput by EffectiveCores.
	VMsPerSecPerCore float64
	// P50Ns/P99Ns are submit-to-completion job latencies (queue wait
	// included) over all jobs of the level.
	P50Ns int64
	P99Ns int64
	// ScalingEfficiency is VMsPerSec divided by (EffectiveCores × the
	// 1-VM level's VMsPerSec): 1.0 is perfect linear scaling, and on a
	// single-core host it degenerates to ~1.0 by construction (throughput
	// can only interleave). Zero when the sweep has no 1-VM level.
	ScalingEfficiency float64
	DedupRatio        float64
	StoreHits         uint64
	StoreMisses       uint64
}

// FarmScale runs the sustained-load sweep: for each level N it sets
// GOMAXPROCS=N, builds a fresh farm (cold shared store) with N VM slots,
// floods it with `jobs` mixed-workload jobs, drains, and measures. The
// previous GOMAXPROCS is restored before returning.
func FarmScale(levels []int, jobs int) ([]FarmScalePerf, error) {
	if len(levels) == 0 {
		levels = FarmScaleLevels
	}
	if jobs <= 0 {
		jobs = FarmScaleJobs
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var out []FarmScalePerf
	for _, vms := range levels {
		runtime.GOMAXPROCS(vms)
		row, err := farmScaleLevel(vms, jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, *row)
	}
	// Efficiency needs the 1-VM anchor; compute after the sweep so level
	// order doesn't matter.
	var base float64
	for _, r := range out {
		if r.VMs == 1 {
			base = r.VMsPerSec
			break
		}
	}
	for i := range out {
		if base > 0 {
			out[i].ScalingEfficiency = out[i].VMsPerSec / (float64(out[i].EffectiveCores) * base)
		}
	}
	return out, nil
}

func farmScaleLevel(vms, jobs int) (*FarmScalePerf, error) {
	f := farm.New(farm.Config{
		MaxVMs:     vms,
		QueueDepth: jobs,
		Engine:     cms.DefaultConfig(),
	})
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		name := FarmWorkloads[i%len(FarmWorkloads)]
		if _, err := f.Submit(farm.JobSpec{Workload: name}); err != nil {
			return nil, fmt.Errorf("bench: farmscale submit %s: %w", name, err)
		}
	}
	f.Drain()
	wall := time.Since(t0).Nanoseconds()

	views := f.Jobs()
	for _, j := range views {
		if j.Status == farm.StatusFailed {
			return nil, fmt.Errorf("bench: farmscale job %s (%s): %s", j.ID, j.Spec.Workload, j.Error)
		}
	}
	p50, p99 := farm.LatencyPercentiles(views)
	st := f.Stats()
	eff := vms
	if n := runtime.NumCPU(); eff > n {
		eff = n
	}
	vmsPerSec := float64(jobs) / (float64(wall) / 1e9)
	return &FarmScalePerf{
		VMs:              vms,
		EffectiveCores:   eff,
		Jobs:             jobs,
		WallNs:           wall,
		VMsPerSec:        vmsPerSec,
		VMsPerSecPerCore: vmsPerSec / float64(eff),
		P50Ns:            p50,
		P99Ns:            p99,
		DedupRatio:       st.Store.DedupRatio(),
		StoreHits:        st.Store.Hits + st.Store.Waits,
		StoreMisses:      st.Store.Misses,
	}, nil
}

// SerialFarmRun reports whether farm measurements taken right now can only
// interleave, never parallelize (NumCPU or GOMAXPROCS is 1), in which case
// a flat throughput curve says nothing about scaling. Callers print
// WarnSerialFarm when it is true.
func SerialFarmRun() bool {
	return runtime.NumCPU() <= 1 || runtime.GOMAXPROCS(0) <= 1
}

// WarnSerialFarm prints the loud version of SerialFarmRun's verdict.
func WarnSerialFarm(w io.Writer) {
	fmt.Fprintf(w, `
********************************************************************************
* WARNING: effective parallelism is 1 (NumCPU=%d, GOMAXPROCS=%d).
* Farm throughput below measures INTERLEAVING, not multicore scaling: VMs/sec
* will be flat across VM counts and scaling efficiency is meaningless. Re-run
* on a multicore host before drawing any serving-scalability conclusion.
********************************************************************************
`, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// WriteFarmScale renders the sweep as a text table.
func WriteFarmScale(w io.Writer, rows []FarmScalePerf) {
	fmt.Fprintf(w, "Sustained farm load: %v jobs/level over %v, fresh sharded store per level\n",
		rowsJobs(rows), FarmWorkloads)
	fmt.Fprintf(w, "%4s %6s %6s %12s %10s %10s %10s %10s %7s %7s\n",
		"vms", "cores", "jobs", "wall ms", "VMs/sec", "VMs/s/core", "p50 ms", "p99 ms", "effic", "dedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %6d %6d %12.1f %10.2f %10.2f %10.2f %10.2f %6.2fx %6.1f%%\n",
			r.VMs, r.EffectiveCores, r.Jobs, float64(r.WallNs)/1e6, r.VMsPerSec,
			r.VMsPerSecPerCore, float64(r.P50Ns)/1e6, float64(r.P99Ns)/1e6,
			r.ScalingEfficiency, 100*r.DedupRatio)
	}
}

func rowsJobs(rows []FarmScalePerf) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Jobs
}
