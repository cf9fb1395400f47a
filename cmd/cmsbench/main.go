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
//	cmsbench -exp farmscale -farmvms 1,4,8 -farmjobs 500
//	                         # sustained-load multicore sweep: GOMAXPROCS is
//	                         # pinned to each level's VM count; warns loudly
//	                         # when effective parallelism is 1
//	cmsbench -cpuprofile p.out -exp snapshot
//	                         # capture a pprof CPU profile of the run
//
// The snapshot and farmscale reports are wall-clock figures printed for
// reading, not gates; the repo's speed benchmark is perfbench
// (bash perfbench/run.sh).
//
// Exit codes: 0 on success, 1 on a usage or experiment error. The
// -cpuprofile and -memprofile files are written on every exit.
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
var extraExperiments = []string{"snapshot", "farmscale"}

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
