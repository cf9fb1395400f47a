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
//	cmsbench -exp backend    # vliw vs risc code-gen backend: Metrics-identity
//	                         # gate plus wall-clock per workload
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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig2, fig3, table1, selfcheck, selfreval, flow, chain, ablate, hostgen, faults, farm, farmscale, snapshot, backend")
	wl := flag.String("workload", "win98_boot", "workload for the flow/chain experiments")
	list := flag.Bool("list", false, "list the benchmark suite and exit")
	jsonPath := flag.String("json", "", "measure wall-clock perf over the hot kernels and write a JSON record to this file")
	runs := flag.Int("runs", 3, "runs per workload for -json (best-of)")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to diff the -json measurement against; exit non-zero on regression")
	farmJobs := flag.Int("farmjobs", 0, "jobs per level for -exp farmscale (0 = default)")
	farmVMs := flag.String("farmvms", "", "comma-separated VM levels for -exp farmscale, e.g. 1,4,8 (empty = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	levels, err := parseLevels(*farmVMs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmsbench: -farmvms: %v\n", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
			}
		}()
	}

	if *jsonPath != "" || *baseline != "" {
		// Open the output first: a bad path should fail before the
		// minutes-long measurement, not after.
		var f *os.File
		if *jsonPath != "" {
			var err error
			f, err = os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
		}
		if bench.SerialFarmRun() {
			bench.WarnSerialFarm(os.Stderr)
		}
		rec, err := bench.Perf(*runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmsbench: perf: %v\n", err)
			os.Exit(1)
		}
		if f != nil {
			if err := bench.WritePerfJSON(f, rec); err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
				os.Exit(1)
			}
		}
		for _, w := range rec.Workloads {
			fmt.Printf("%-14s %10.3f ms/run  %10.3f ms pipelined  %10.3f ms interp  %7.2f Mguest/s\n",
				w.Name, float64(w.NsPerRun)/1e6, float64(w.NsPerRunPipelined)/1e6,
				float64(w.NsPerRunInterp)/1e6, w.MguestPerSec)
		}
		fmt.Println()
		bench.WriteFarmScale(os.Stdout, rec.FarmScale)
		if *baseline != "" {
			bf, err := os.Open(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: baseline: %v\n", err)
				os.Exit(1)
			}
			base, err := bench.ReadPerfJSON(bf)
			bf.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cmsbench: baseline: %v\n", err)
				os.Exit(1)
			}
			deltas, regressed := bench.ComparePerf(base, rec, regressionTolerancePct)
			fmt.Printf("\nvs %s:\n", *baseline)
			for _, d := range deltas {
				if d.Missing {
					fmt.Printf("%-14s %10.3f ms/run  (not in baseline)\n", d.Name, float64(d.CurNs)/1e6)
					continue
				}
				fmt.Printf("%-14s %10.3f ms -> %10.3f ms  %+7.1f%%\n",
					d.Name, float64(d.BaseNs)/1e6, float64(d.CurNs)/1e6, d.Pct)
			}
			scaleDeltas, scaleRegressed, comparable := bench.CompareScaling(base, rec, scalingToleranceEff)
			if comparable {
				for _, d := range scaleDeltas {
					mark := ""
					if d.Regressed {
						mark = "  REGRESSED"
					}
					fmt.Printf("scaling @%d VMs   %5.2fx -> %5.2fx%s\n", d.VMs, d.BaseEff, d.CurEff, mark)
				}
			} else {
				fmt.Fprintf(os.Stderr, "cmsbench: scaling-efficiency gate skipped: baseline or current record lacks a multicore farm_scale sweep\n")
			}
			guardDeltas, worst := bench.GuardOverhead(rec)
			for _, d := range guardDeltas {
				fmt.Printf("guard %-14s %10.3f ms -> %10.3f ms  %+7.2f%%\n",
					d.Name, float64(d.PlainNs)/1e6, float64(d.GuardedNs)/1e6, d.Pct)
			}
			snapDeltas, snapWorst := bench.SnapshotOverhead(rec)
			for _, d := range snapDeltas {
				fmt.Printf("snap  %-14s %10.3f ms -> %10.3f ms  %+7.2f%%\n",
					d.Name, float64(d.PlainNs)/1e6, float64(d.GuardedNs)/1e6, d.Pct)
			}
			if regressed {
				fmt.Fprintf(os.Stderr, "cmsbench: wall-clock regression beyond %.0f%% vs %s\n",
					regressionTolerancePct, *baseline)
				pprof.StopCPUProfile()
				os.Exit(2)
			}
			if scaleRegressed {
				fmt.Fprintf(os.Stderr, "cmsbench: scaling efficiency regressed beyond %.2f vs %s\n",
					scalingToleranceEff, *baseline)
				pprof.StopCPUProfile()
				os.Exit(2)
			}
			if worst > guardTolerancePct {
				fmt.Fprintf(os.Stderr, "cmsbench: watchdog/recover overhead %.2f%% exceeds %.1f%% on a hot kernel\n",
					worst, guardTolerancePct)
				pprof.StopCPUProfile()
				os.Exit(2)
			}
			if snapWorst > snapshotTolerancePct {
				fmt.Fprintf(os.Stderr, "cmsbench: unarmed checkpoint-support overhead %.2f%% exceeds %.1f%% on a hot kernel\n",
					snapWorst, snapshotTolerancePct)
				pprof.StopCPUProfile()
				os.Exit(2)
			}
		}
		return
	}

	if *list {
		fmt.Printf("%-18s %-5s %s\n", "name", "kind", "stands in for")
		for _, w := range workload.All() {
			fmt.Printf("%-18s %-5s %s\n", w.Name, w.Kind, w.Paper)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "cmsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if err := bench.WriteSimulated(os.Stdout, *exp, *wl); err != nil {
		fmt.Fprintf(os.Stderr, "cmsbench: %v\n", err)
		os.Exit(1)
	}
	run("farm", func() error {
		if bench.SerialFarmRun() {
			bench.WarnSerialFarm(os.Stderr)
		}
		rows, err := bench.FarmThroughput()
		if err != nil {
			return err
		}
		bench.WriteFarm(os.Stdout, rows)
		return nil
	})
	run("snapshot", func() error {
		rows, err := bench.SnapshotCosts()
		if err != nil {
			return err
		}
		bench.WriteSnapshot(os.Stdout, rows)
		return nil
	})
	run("backend", func() error {
		rows, err := bench.BackendDiff(*runs)
		if err != nil {
			return err
		}
		bench.WriteBackend(os.Stdout, rows)
		return nil
	})
	run("farmscale", func() error {
		if bench.SerialFarmRun() {
			bench.WarnSerialFarm(os.Stderr)
		}
		rows, err := bench.FarmScale(levels, *farmJobs)
		if err != nil {
			return err
		}
		bench.WriteFarmScale(os.Stdout, rows)
		return nil
	})
}
