package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"cms/internal/cms"
	"cms/internal/workload"
)

func TestRunWorkload(t *testing.T) {
	w, err := workload.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(w, cms.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Mols() == 0 || r.Metrics.GuestTotal() == 0 {
		t.Error("empty run stats")
	}
	if r.Name != "eqntott" || r.Kind != workload.App {
		t.Errorf("identity: %s %v", r.Name, r.Kind)
	}
}

// simulatedSHA256 pins WriteSimulated's full output, the simulated sections
// of `cmsbench -exp all`. They hold simulated Metrics only, so a change that
// keeps guest behaviour and Metrics moves no byte of them; re-record the
// digest only with a change that means to move them.
const simulatedSHA256 = "3cf1cd7c013f8dbf5f9a649c6ab12062b0e9305f22d785b11de2690556fb7c8b"

func TestSimulatedSectionsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSimulated(&buf, "all", "win98_boot"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != simulatedSHA256 {
		t.Fatalf("simulated sections changed: sha256 %s, want %s; output:\n%s", got, simulatedSHA256, buf.String())
	}
}

func TestDegradationAndMean(t *testing.T) {
	if d := degradation(100, 120); d != 20 {
		t.Errorf("degradation = %v", d)
	}
	if d := degradation(0, 50); d != 0 {
		t.Errorf("degradation with zero base = %v", d)
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if m := mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v", m)
	}
}

// The headline experiments: run them once and assert the paper-shape
// invariants rather than absolute numbers.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	f, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != len(workload.All()) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Suppressing reordering must hurt on average, for boots and apps both.
	if f.MeanApp <= 0 {
		t.Errorf("mean app degradation %.2f%%, want positive", f.MeanApp)
	}
	if f.MeanBoot <= 0 {
		t.Errorf("mean boot degradation %.2f%%, want positive", f.MeanBoot)
	}
	// The memory-traffic-bound kernels must degrade hard (paper: eqntott
	// 33%, compress 35%); the ALU/branch-bound ones barely (gcc 3.9%).
	byName := map[string]float64{}
	for _, r := range f.Rows {
		byName[r.Name] = r.Percent
	}
	if byName["eqntott"] < 10 {
		t.Errorf("eqntott degradation %.2f%%, want >= 10%%", byName["eqntott"])
	}
	if byName["gcc"] > 5 {
		t.Errorf("gcc degradation %.2f%%, want small", byName["gcc"])
	}
	if byName["eqntott"] <= byName["gcc"] {
		t.Error("ordering inverted: eqntott must suffer more than gcc")
	}
	var buf bytes.Buffer
	WriteFigure(&buf, f)
	if !strings.Contains(buf.String(), "mean (all apps)") {
		t.Error("report missing means")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table1Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FaultRatio < 1 {
			t.Errorf("%s: fault ratio %.1f < 1 — fine-grain made faults worse", r.Name, r.FaultRatio)
		}
		if r.Slowdown <= 1 {
			t.Errorf("%s: slowdown %.2f <= 1 — removing fine-grain cannot speed things up", r.Name, r.Slowdown)
		}
	}
	// Quake's writes genuinely hit code chunks, so it benefits least from
	// fine-grain filtering (lowest ratio in the paper: 7.7x vs 46-59x).
	quake := rows[len(rows)-1]
	for _, r := range rows[:len(rows)-1] {
		if quake.FaultRatio > r.FaultRatio {
			t.Errorf("quake ratio %.1f above %s %.1f — ordering lost", quake.FaultRatio, r.Name, r.FaultRatio)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "slowdown") {
		t.Error("table header missing")
	}
}

func TestSelfRevalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r, err := SelfReval()
	if err != nil {
		t.Fatal(err)
	}
	if r.Improvement <= 0 {
		t.Errorf("self-revalidation improvement %.1f%%, want positive (paper: 28%%)", r.Improvement)
	}
	if r.ArmsWith == 0 || r.PassesWith == 0 {
		t.Error("prologues never used")
	}
	var buf bytes.Buffer
	WriteSelfReval(&buf, r)
	if !strings.Contains(buf.String(), "improvement") {
		t.Error("report missing improvement")
	}
}

func TestChainAndFlow(t *testing.T) {
	c, err := Chain("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	if c.MolsUnchained <= c.MolsChained {
		t.Errorf("chaining won nothing: %d vs %d", c.MolsChained, c.MolsUnchained)
	}
	if c.ChainTransfers == 0 {
		t.Error("no chain transfers")
	}
	f, err := Flow("dos_boot")
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics.DispatchToTexec == 0 || f.Metrics.GuestTexec == 0 {
		t.Error("flow metrics empty")
	}
	var buf bytes.Buffer
	WriteFlow(&buf, f)
	WriteChain(&buf, c)
	if !strings.Contains(buf.String(), "chained exits") {
		t.Error("flow report incomplete")
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	if _, err := Flow("nope"); err == nil {
		t.Error("Flow must reject unknown workloads")
	}
	if _, err := Chain("nope"); err == nil {
		t.Error("Chain must reject unknown workloads")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	u, err := AblateUnroll("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Points) != 4 {
		t.Fatalf("unroll points: %d", len(u.Points))
	}
	// Unrolling must help this loop-dominated workload: unroll=4 beats
	// unroll=1.
	if u.Points[2].MPI >= u.Points[0].MPI {
		t.Errorf("unroll=4 (%.2f) not better than unroll=1 (%.2f)",
			u.Points[2].MPI, u.Points[0].MPI)
	}

	h, err := AblateHotThreshold("dos_boot")
	if err != nil {
		t.Fatal(err)
	}
	// A lower threshold always translates at least as much code.
	for i := 1; i < len(h.Points); i++ {
		if h.Points[i].Translations > h.Points[i-1].Translations {
			t.Errorf("threshold %s translated more than %s", h.Points[i].Label, h.Points[i-1].Label)
		}
	}

	ft, err := AblateFaultThreshold("sc")
	if err != nil {
		t.Fatal(err)
	}
	// Never adapting must not beat the default on this aliasing workload.
	never := ft.Points[len(ft.Points)-1]
	def := ft.Points[1]
	if never.MPI < def.MPI {
		t.Errorf("never-adapt (%.2f) beat adapting (%.2f)", never.MPI, def.MPI)
	}

	var buf bytes.Buffer
	WriteAblation(&buf, u)
	if !strings.Contains(buf.String(), "unroll=8") {
		t.Error("ablation report incomplete")
	}
}

func TestHostGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rows, err := HostGenerations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.All()) {
		t.Fatalf("rows: %d", len(rows))
	}
	// The wider machine never loses, and wins somewhere.
	won := false
	for _, r := range rows {
		if r.Speedup < 0.99 {
			t.Errorf("%s: TM8000 slower (%.2fx)", r.Name, r.Speedup)
		}
		if r.Speedup > 1.10 {
			won = true
		}
	}
	if !won {
		t.Error("TM8000 never won meaningfully")
	}
	var buf bytes.Buffer
	WriteHostGen(&buf, rows)
	if !strings.Contains(buf.String(), "mean speedup") {
		t.Error("report incomplete")
	}
}

// The determinism promise: identical runs produce identical molecule
// counts, bit for bit.
func TestRunsAreDeterministic(t *testing.T) {
	w, err := workload.ByName("win95_boot")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(w, cms.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, cms.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Mols() != b.Mols() || a.Metrics != b.Metrics {
		t.Errorf("nondeterministic run: %d vs %d molecules", a.Mols(), b.Mols())
	}
}
