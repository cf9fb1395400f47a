// cmsbench regenerates the paper's evaluation: every figure and table of
// "The Transmeta Code Morphing Software" (CGO 2003) over the synthetic
// benchmark suite. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// Usage:
//
//	cmsbench                 # run everything
//	cmsbench -exp fig2       # one experiment: fig2, fig3, table1,
//	                         # selfcheck, selfreval, flow, chain, faults
//	cmsbench -exp snapshot   # checkpoint/restore costs on the hot kernels:
//	                         # envelope bytes, save latency, warm vs cold
//	                         # restore latency, rehydration hit rate
//	cmsbench -workload NAME  # workload for flow/chain (default win98_boot)
//	cmsbench -list           # list the benchmark suite
//	cmsbench -json FILE      # write a wall-clock perf record (BENCH_*.json)
//	cmsbench -baseline BENCH_PR1.json
//	                         # measure and diff against a committed record;
//	                         # exits non-zero on a >10% wall-clock regression,
//	                         # a multicore scaling-efficiency regression,
//	                         # >2% watchdog/recover overhead on a hot kernel,
//	                         # or >1% unarmed checkpoint-support overhead
//	                         # (combine with -json FILE to also write a record)
//	cmsbench -exp farmscale -farmvms 1,4,8 -farmjobs 500
//	                         # sustained-load multicore sweep: GOMAXPROCS is
//	                         # pinned to each level's VM count; warns loudly
//	                         # when effective parallelism is 1
//	cmsbench -cpuprofile p.out -json FILE
//	                         # capture a pprof CPU profile of the measurement
//
// Exit codes: 0 on success, 1 on a usage or experiment error, 2 when a
// -baseline gate fails. The -cpuprofile and -memprofile files are written
// on every exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"cms/internal/bench"
	"cms/internal/workload"
)

// regressionTolerancePct is the wall-clock slack -baseline allows before it
// fails the run: perf records are best-of-N on a shared machine, so small
// jitter is expected, but a real backend regression is not.
const regressionTolerancePct = 10.0

// scalingToleranceEff is the absolute scaling-efficiency drop -baseline
// allows per VM level before it fails the run (efficiency is a 0..1 ratio;
// 0.10 absorbs scheduler jitter without waving through a lost core).
const scalingToleranceEff = 0.10

// guardTolerancePct caps what fault containment may cost a hot kernel: the
// guarded measurement (cancel hook armed, recover() wrapper — the farm
// runner's shape) must stay within this percentage of the plain run.
const guardTolerancePct = 2.0

// snapshotTolerancePct caps what checkpoint support may cost a hot kernel
// when nobody asks for a snapshot: the snap-ready measurement (watchdog AND
// checkpoint flags polled, neither firing) must stay within this percentage
// of the plain guarded run.
const snapshotTolerancePct = 1.0

// parseLevels parses a "1,4,8"-style VM-level list.
func parseLevels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad VM level %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// extraExperiments are the wall-clock experiments cmsbench runs after the
// simulated sections, in order.
var extraExperiments = []string{"farm", "snapshot", "farmscale"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	experiments := append(bench.SimulatedSections(), extraExperiments...)
	flag := flag.NewFlagSet("cmsbench", flag.ContinueOnError)
	flag.SetOutput(stderr)
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(experiments, ", "))
	wl := flag.String("workload", "win98_boot", "workload for the flow/chain experiments")
	list := flag.Bool("list", false, "list the benchmark suite and exit")
	jsonPath := flag.String("json", "", "measure wall-clock perf over the hot kernels and write a JSON record to this file")
	runs := flag.Int("runs", 3, "runs per workload for -json (best-of)")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to diff the -json measurement against; exit non-zero on regression")
	farmJobs := flag.Int("farmjobs", 0, "jobs per level for -exp farmscale (0 = default)")
	farmVMs := flag.String("farmvms", "", "comma-separated VM levels for -exp farmscale, e.g. 1,4,8 (empty = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := flag.Parse(args); err != nil {
		return 1
	}

	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(stderr, "cmsbench: unknown experiment %q (want all, %s)\n", *exp, strings.Join(experiments, ", "))
		return 1
	}
	levels, err := parseLevels(*farmVMs)
	if err != nil {
		fmt.Fprintf(stderr, "cmsbench: -farmvms: %v\n", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cmsbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cmsbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "cmsbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "cmsbench: %v\n", err)
			}
		}()
	}

	if *jsonPath != "" || *baseline != "" {
		return perf(*jsonPath, *baseline, *runs, stdout, stderr)
	}

	if *list {
		fmt.Fprintf(stdout, "%-18s %-5s %s\n", "name", "kind", "stands in for")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-18s %-5s %s\n", w.Name, w.Kind, w.Paper)
		}
		return 0
	}

	if err := bench.WriteSimulated(stdout, *exp, *wl); err != nil {
		fmt.Fprintf(stderr, "cmsbench: %v\n", err)
		return 1
	}
	extra := map[string]func() error{
		"farm": func() error {
			if bench.SerialFarmRun() {
				bench.WarnSerialFarm(stderr)
			}
			rows, err := bench.FarmThroughput()
			if err != nil {
				return err
			}
			bench.WriteFarm(stdout, rows)
			return nil
		},
		"snapshot": func() error {
			rows, err := bench.SnapshotCosts()
			if err != nil {
				return err
			}
			bench.WriteSnapshot(stdout, rows)
			return nil
		},
		"farmscale": func() error {
			if bench.SerialFarmRun() {
				bench.WarnSerialFarm(stderr)
			}
			rows, err := bench.FarmScale(levels, *farmJobs)
			if err != nil {
				return err
			}
			bench.WriteFarmScale(stdout, rows)
			return nil
		},
	}
	for _, name := range extraExperiments {
		if *exp != "all" && *exp != name {
			continue
		}
		if err := extra[name](); err != nil {
			fmt.Fprintf(stderr, "cmsbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// perf measures the wall-clock record, writes it to jsonPath when set, and
// diffs it against the baseline record when set. It returns 2 when a
// baseline gate fails.
func perf(jsonPath, baseline string, runs int, stdout, stderr io.Writer) int {
	// Open the output first: a bad path should fail before the
	// minutes-long measurement, not after.
	var f *os.File
	if jsonPath != "" {
		var err error
		f, err = os.Create(jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "cmsbench: %v\n", err)
			return 1
		}
		defer f.Close()
	}
	if bench.SerialFarmRun() {
		bench.WarnSerialFarm(stderr)
	}
	rec, err := bench.Perf(runs)
	if err != nil {
		fmt.Fprintf(stderr, "cmsbench: perf: %v\n", err)
		return 1
	}
	if f != nil {
		if err := bench.WritePerfJSON(f, rec); err != nil {
			fmt.Fprintf(stderr, "cmsbench: %v\n", err)
			return 1
		}
	}
	for _, w := range rec.Workloads {
		fmt.Fprintf(stdout, "%-14s %10.3f ms/run  %10.3f ms pipelined  %10.3f ms interp  %7.2f Mguest/s\n",
			w.Name, float64(w.NsPerRun)/1e6, float64(w.NsPerRunPipelined)/1e6,
			float64(w.NsPerRunInterp)/1e6, w.MguestPerSec)
	}
	fmt.Fprintln(stdout)
	bench.WriteFarmScale(stdout, rec.FarmScale)
	if baseline == "" {
		return 0
	}

	bf, err := os.Open(baseline)
	if err != nil {
		fmt.Fprintf(stderr, "cmsbench: baseline: %v\n", err)
		return 1
	}
	base, err := bench.ReadPerfJSON(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintf(stderr, "cmsbench: baseline: %v\n", err)
		return 1
	}
	deltas, regressed := bench.ComparePerf(base, rec, regressionTolerancePct)
	fmt.Fprintf(stdout, "\nvs %s:\n", baseline)
	for _, d := range deltas {
		if d.Missing {
			fmt.Fprintf(stdout, "%-14s %10.3f ms/run  (not in baseline)\n", d.Name, float64(d.CurNs)/1e6)
			continue
		}
		fmt.Fprintf(stdout, "%-14s %10.3f ms -> %10.3f ms  %+7.1f%%\n",
			d.Name, float64(d.BaseNs)/1e6, float64(d.CurNs)/1e6, d.Pct)
	}
	scaleDeltas, scaleRegressed, comparable := bench.CompareScaling(base, rec, scalingToleranceEff)
	if comparable {
		for _, d := range scaleDeltas {
			mark := ""
			if d.Regressed {
				mark = "  REGRESSED"
			}
			fmt.Fprintf(stdout, "scaling @%d VMs   %5.2fx -> %5.2fx%s\n", d.VMs, d.BaseEff, d.CurEff, mark)
		}
	} else {
		fmt.Fprintf(stderr, "cmsbench: scaling-efficiency gate skipped: baseline or current record lacks a multicore farm_scale sweep\n")
	}
	guardDeltas, worst := bench.GuardOverhead(rec)
	for _, d := range guardDeltas {
		fmt.Fprintf(stdout, "guard %-14s %10.3f ms -> %10.3f ms  %+7.2f%%\n",
			d.Name, float64(d.PlainNs)/1e6, float64(d.GuardedNs)/1e6, d.Pct)
	}
	snapDeltas, snapWorst := bench.SnapshotOverhead(rec)
	for _, d := range snapDeltas {
		fmt.Fprintf(stdout, "snap  %-14s %10.3f ms -> %10.3f ms  %+7.2f%%\n",
			d.Name, float64(d.PlainNs)/1e6, float64(d.GuardedNs)/1e6, d.Pct)
	}
	switch {
	case regressed:
		fmt.Fprintf(stderr, "cmsbench: wall-clock regression beyond %.0f%% vs %s\n",
			regressionTolerancePct, baseline)
	case scaleRegressed:
		fmt.Fprintf(stderr, "cmsbench: scaling efficiency regressed beyond %.2f vs %s\n",
			scalingToleranceEff, baseline)
	case worst > guardTolerancePct:
		fmt.Fprintf(stderr, "cmsbench: watchdog/recover overhead %.2f%% exceeds %.1f%% on a hot kernel\n",
			worst, guardTolerancePct)
	case snapWorst > snapshotTolerancePct:
		fmt.Fprintf(stderr, "cmsbench: unarmed checkpoint-support overhead %.2f%% exceeds %.1f%% on a hot kernel\n",
			snapWorst, snapshotTolerancePct)
	default:
		return 0
	}
	return 2
}
