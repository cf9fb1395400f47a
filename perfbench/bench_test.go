package main

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cms/internal/cms"
	"cms/internal/guest"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false},
		{100, 90, true}, {99, 90, false}, {0, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

// TestResidueWindow pins the RAM comparison: the 16 bytes below the final
// ESP may differ (an interrupt frame left at another boundary), nothing else.
func TestResidueWindow(t *testing.T) {
	ram := make([]byte, 1<<20)
	want := &vmState{ram: ram, halted: true}
	want.regs[guest.ESP] = 0xf0000
	mut := func(addr int) *vmState {
		g := *want
		g.ram = bytes.Clone(ram)
		g.ram[addr] ^= 0xff
		return &g
	}
	for _, a := range []int{0xefff0, 0xefff4, 0xefff5, 0xeffff} {
		if d := diffState(want, mut(a)); d != "" {
			t.Errorf("byte %#x inside the residue window rejected: %s", a, d)
		}
	}
	for _, a := range []int{0xeffef, 0xf0000, 0x1000, 0} {
		if d := diffState(want, mut(a)); d == "" {
			t.Errorf("one-byte difference at %#x accepted", a)
		}
	}
	g := *want
	g.regs[guest.EAX] = 1
	if diffState(want, &g) == "" {
		t.Error("register difference accepted")
	}
}

// TestResidueWindowWin98 runs the case the window exists for: win98_boot
// translated against its interpreter reference.
func TestResidueWindowWin98(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a boot")
	}
	progs, err := buildPrograms(nil, []string{"win98_boot"}, true)
	if err != nil {
		t.Fatal(err)
	}
	p := progs[0]
	st, _, err := runVM(nil, 0, &p.vm, cms.DefaultConfig(), "cms.Engine.Run", true)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffState(p.ref, st); d != "" {
		t.Fatalf("win98_boot rejected: %s", d)
	}
	esp := int(st.regs[guest.ESP])
	if bytes.Equal(p.ref.ram[esp-residue:esp], st.ram[esp-residue:esp]) {
		t.Log("residue window identical on this build; the window is slack, not needed")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "b", Start: 95, End: 120}, // runs past its parent
		{ID: 6, Parent: 4, Name: "c", Start: 62, End: 64},
	}
	lt := selfTimes(spans)
	// job: 100 minus the union [10,50) [60,70) [95,100) = 100 - 55.
	if got := lt["job"].totalSelf(); got != 45 {
		t.Errorf("job self = %v, want 45", got)
	}
	if got := lt["a"].totalSelf(); got != 20+30 {
		t.Errorf("a self = %v, want 50", got)
	}
	if got := lt["b"].totalSelf(); got != (10-2)+25 {
		t.Errorf("b self = %v, want 33", got)
	}
	if got := lt["b"].meanSelf(); got != 16.5 {
		t.Errorf("b mean self = %v, want 16.5", got)
	}
}

func TestTracerOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id, 1)
	if id != 0 || tr.add("y", 0, time.Now(), time.Now(), 0) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// TestOpenLoopLateness pins how open-loop latency is charged: from the due
// time, so a generator that sends late adds its lateness to the job, and a
// refused or failed job sorts above every real one.
func TestOpenLoopLateness(t *testing.T) {
	due := time.Unix(100, 0)
	submit := due.Add(5 * time.Millisecond)
	ms, complete := jobLatency(due, submit, int64(10*time.Millisecond))
	if ms != 15 || !complete.Equal(due.Add(15*time.Millisecond)) {
		t.Errorf("late by 5 ms, farm latency 10 ms: got %v ms completing at %v", ms, complete)
	}
	if ms, _ := jobLatency(due, due, int64(3*time.Millisecond)); ms != 3 {
		t.Errorf("on time, farm latency 3 ms: got %v ms", ms)
	}
	lat := make([]float64, 0, 100)
	for i := 0; i < 98; i++ {
		lat = append(lat, 1)
	}
	lat = append(lat, failedLatency, failedLatency)
	if v, _ := percentile(lat, 99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 2%% failed jobs = %v, want +Inf", v)
	}
	if v, _ := percentile(lat, 95); v != 1 {
		t.Errorf("p95 with 2%% failed jobs = %v, want 1", v)
	}
}

func TestDeckShares(t *testing.T) {
	deal := func(seed int64) []planned {
		d := newDeck(serveMix, rand.New(rand.NewSource(seed)))
		out := make([]planned, 300)
		for i := range out {
			out[i] = d.draw()
		}
		return out
	}
	a, b := deal(7), deal(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed dealt differently at %d", i)
		}
	}
	for blk := 0; blk < 3; blk++ {
		n := map[string]int{}
		for _, j := range a[blk*100 : blk*100+100] {
			n[j.class]++
		}
		if n[classSuite] != 85 || n[classSource] != 8 || n[classRestore] != 7 {
			t.Errorf("block %d shares %v", blk, n)
		}
	}
}

func TestGenSourceUniqueAndHalts(t *testing.T) {
	if genSource(1, 0) == genSource(1, 1) || genSource(1, 0) == genSource(2, 0) {
		t.Fatal("generated sources repeat")
	}
	if genSource(3, 4) != genSource(3, 4) {
		t.Fatal("generated source is not a function of (seed, index)")
	}
	p, err := assembleSource(nil, "s", genSource(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := runVM(nil, 0, p, cms.DefaultConfig(), "run", false)
	if err != nil || !st.halted || len(st.console) != 8 {
		t.Fatalf("source run: %v halted=%v console=%q", err, st.halted, st.console)
	}
}

// TestSmoke runs each workload briefly, twice with one seed: nothing may
// fail, and sim_mpi must repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			var mpi []float64
			for i := 0; i < 2; i++ {
				var log strings.Builder
				out, err := wl(opts{seed: 3, seconds: time.Second, log: &log})
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Fatalf("run %d: %d of %d failed:\n%s", i, out.failed, out.attempted, log.String())
				}
				mpi = append(mpi, endToEnd(out)["sim_mpi"].Value)
			}
			if mpi[0] != mpi[1] || mpi[0] == 0 {
				t.Errorf("sim_mpi %v then %v", mpi[0], mpi[1])
			}
		})
	}
}
