package bench

import (
	"runtime"
	"strings"
	"testing"
)

// TestFarmScaleShape runs a miniature sustained-load sweep and checks every
// reported field is internally consistent. Kept small: the real sweep is
// cmsbench -exp farmscale.
func TestFarmScaleShape(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	rows, err := FarmScale([]int{1, 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("FarmScale left GOMAXPROCS at %d, started at %d", got, prev)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Jobs != 9 || r.WallNs <= 0 || r.VMsPerSec <= 0 {
			t.Errorf("row %d: no throughput measured: %+v", i, r)
		}
		if r.EffectiveCores < 1 || r.EffectiveCores > r.VMs {
			t.Errorf("row %d: effective cores %d with %d VMs", i, r.EffectiveCores, r.VMs)
		}
		if r.P50Ns <= 0 || r.P99Ns < r.P50Ns {
			t.Errorf("row %d: latency percentiles p50=%d p99=%d", i, r.P50Ns, r.P99Ns)
		}
		if r.VMsPerSecPerCore <= 0 {
			t.Errorf("row %d: per-core throughput missing", i)
		}
		if r.ScalingEfficiency <= 0 {
			t.Errorf("row %d: scaling efficiency missing (1-VM anchor present)", i)
		}
		// 9 jobs cycling 3 workloads: at least the 6 repeats dedup.
		if r.DedupRatio < 0.5 {
			t.Errorf("row %d: dedup ratio %.2f, want >= 0.5", i, r.DedupRatio)
		}
	}
	var sb strings.Builder
	WriteFarmScale(&sb, rows)
	if !strings.Contains(sb.String(), "VMs/s/core") {
		t.Error("WriteFarmScale output missing per-core column")
	}
}
