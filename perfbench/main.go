// Command perfbench is the repository benchmark. It runs one named workload
// with inputs made from a seed, checks every guest result against a
// reference, and prints as the last line of standard output
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1, a separate run that records a span around each layer call).
// It measures the program from outside: every timing is taken around the
// benchmark's own calls into a layer's public functions, or read from the
// farm's own job timestamps. Run it from the repository root:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
//
// Workloads (why each was chosen is recorded in BENCHMARK.json):
//
//   - kernels: closed loop, one goroutine, SPEC-analog kernels on fresh VMs;
//     translated execution and VM build dominate.
//   - boots: closed loop, one goroutine, OS boots and games; the recovery
//     path (rollbacks, IRQs, SMC, retranslation) dominates.
//   - serve: open loop at a fixed rate into a two-slot farm with a shared
//     translation store, then a flood phase that measures capacity.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median, in
// process CPU seconds so that slices stolen by other tenants do not count.
const setupReps = 5

// tailPct is the tail percentile reported (latency_cal_p90): the highest
// that keeps minBeyond samples above it on every workload at the default
// run length, where boots completes only about 100 rounds in 20 s.
const tailPct = 90

// failedLatency stands in for the latency of a refused or failed job: it
// misses any limit, so it sorts above every real sample.
var failedLatency = math.Inf(1)

// opts are the run's settings.
type opts struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	log     io.Writer
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	setupS []float64 // process CPU seconds, one per setup repetition
	// Latency samples, one per job: in the closed loops the job's process
	// CPU time (what one client waits on an unshared host), in serve its
	// wall time from due to done; failedLatency for a failed job.
	latCal []float64 // in cals
	latMs  []float64 // in wall-clock ms
	calMs  []float64 // calibration samples, ms

	// Throughput: jobs and guest instructions completed in busyCal cals of
	// CPU time, and for the wall-clock report, wallJobs and wallGuest
	// completed in busyS seconds.
	busyCal   float64
	jobs      int
	guest     uint64
	busyS     float64
	wallJobs  int
	wallGuest uint64

	simMols, simGuest uint64 // sim_mpi over a seed-determined set of runs
	allocBytes        uint64 // host heap allocated by the measured runs
	allocGuest        uint64 // guest instructions those runs retired
	retainedBytes     uint64
	attempted, failed int
	wrong             int // failures that were wrong outputs, not errors
	layers            map[string]metric
	notes             []string // findings worth a line in every report
}

func (o *outcome) fail(op opts, msg string) {
	o.failed++
	fmt.Fprintf(op.log, "perfbench: FAILED %s\n", msg)
}

func (o *outcome) wrongOutput(op opts, msg string) {
	o.wrong++
	o.fail(op, "wrong output: "+msg)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics, which every workload reports.
func endToEnd(o *outcome) map[string]metric {
	p50, _ := percentile(o.latCal, 50)
	tail, _ := percentile(o.latCal, tailPct)
	return finite(map[string]metric{
		"setup_s":              {median(o.setupS), "s"},
		"kinsn_per_cal":        {ratio(float64(o.guest), o.busyCal) / 1e3, "kinsn/cal"},
		"latency_cal_p50":      {p50, "cal"},
		"latency_cal_p90":      {tail, "cal"},
		"sat_jobs_per_kcal":    {ratio(float64(o.jobs), o.busyCal) * 1e3, "1/kcal"},
		"sim_mpi":              {ratio(float64(o.simMols), float64(o.simGuest)), "mol/insn"},
		"alloc_bytes_per_insn": {ratio(float64(o.allocBytes), float64(o.allocGuest)), "B/insn"},
		"retained_heap_mb":     {float64(o.retainedBytes) / (1 << 20), "MiB"},
	})
}

// retainedHeap forces a collection and returns the live heap: what the
// workload's state (for serve, the farm and its job table) still holds.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// provenance identifies the run; it is printed with every result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// cpuModel reads the CPU model name, or "unknown" where /proc/cpuinfo is
// not available.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var workloads = map[string]func(opts) (*outcome, error){
	"kernels": func(o opts) (*outcome, error) { return runClosed(o, kernelNames) },
	"boots":   func(o opts) (*outcome, error) { return runClosed(o, bootNames) },
	"serve":   runServe,
}

// kernelNames are the SPEC-analog kernels: translated execution is most of
// their work, with no rollbacks, SMC or IRQs and 0.4-2% interpreted.
var kernelNames = []string{"eqntott", "compress", "alvinn", "tomcatv", "li", "gcc", "sc", "espresso"}

// bootNames are the recovery-path workloads: hundreds of rollbacks, IRQs,
// protection faults and self-revalidations per run.
var bootNames = []string{"win98_boot", "winme_boot", "dos_boot", "linux_boot", "quake_demo2", "winstone_corel"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: kernels, boots or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Int("seconds", 20, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload kernels|boots|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	prov := provenance{Workload: *name, Seed: *seed, Seconds: *secs, Trace: *traced, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	pj, _ := json.Marshal(prov) // a struct of strings and ints always encodes
	fmt.Fprintf(stdout, "# provenance %s\n", pj)

	o := opts{seed: *seed, seconds: time.Duration(*secs) * time.Second, log: stderr}
	if *traced == 1 {
		o.tr = newTracer()
	}
	out, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed}
	if o.tr != nil {
		res.Metrics = out.layers
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := o.tr.write(path, prov); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(o.tr.spans), path)
	} else {
		res.Metrics = endToEnd(out)
	}
	report(stdout, out, res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// report prints each metric by name with its unit, and the sample counts the
// latency percentiles rest on, as comment lines ahead of the result.
func report(w io.Writer, o *outcome, ms map[string]metric) {
	n := len(o.latCal)
	fmt.Fprintf(w, "# latency samples: %d (p50 has %d samples above it, p%d has %d; p%d needs >= %d)\n",
		n, n-rank(n, 50), tailPct, n-rank(n, tailPct), tailPct, minBeyond)
	if !tailOK(n, tailPct) {
		fmt.Fprintf(w, "# WARNING: too few samples for a p%d; run longer\n", tailPct)
	}
	p50, _ := percentile(o.latMs, 50)
	tail, _ := percentile(o.latMs, tailPct)
	fmt.Fprintf(w, "# wall clock: latency_ms_p50 %.4g, latency_ms_p%d %.4g, mguest_per_s %.4g, sat_jobs_per_s %.4g, cal_ms_p50 %.4g (n=%d)\n",
		p50, tailPct, tail, ratio(float64(o.wallGuest), o.busyS)/1e6, ratio(float64(o.wallJobs), o.busyS), median(o.calMs), len(o.calMs))
	fmt.Fprintf(w, "# setup_s samples: %.4g\n", o.setupS)
	for _, note := range o.notes {
		fmt.Fprintf(w, "# note: %s\n", note)
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
