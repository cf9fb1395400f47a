package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cms/internal/cms"
	"cms/internal/workload"
)

// program is one suite workload with its references: ref is the NoTranslate
// interpreter run (architectural state and RAM), solo the default-config run
// whose Metrics every measured run must repeat exactly.
type program struct {
	vm
	ref  *vmState
	solo *vmState
}

// buildPrograms builds each named workload's image and runs its solo
// reference; withRef adds the interpreter reference the closed loops check
// RAM against.
func buildPrograms(tr *tracer, names []string, withRef bool) ([]*program, error) {
	var out []*program
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("workload.Build", 0)
		img := w.Build()
		tr.end(sp, uint64(len(img.Data)))
		p := &program{vm: vm{name: name, img: img}}
		if withRef {
			if p.ref, _, err = runVM(tr, 0, &p.vm, interpConfig(), "interp.run", true); err != nil {
				return nil, fmt.Errorf("interpreter reference: %w", err)
			}
		}
		if p.solo, _, err = runVM(tr, 0, &p.vm, cms.DefaultConfig(), "cms.Engine.Run", false); err != nil {
			return nil, fmt.Errorf("solo reference: %w", err)
		}
		if p.ref != nil {
			if d := diffState(p.ref, p.solo); d != "" {
				return nil, fmt.Errorf("%s: solo run disagrees with the interpreter: %s", name, d)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// runClosed is the kernels and boots workload: one goroutine cold-runs every
// program on a fresh VM per round, in a seed-shuffled order, until the
// window is spent (checked at round boundaries, so every round is whole and
// the instruction mix, and with it sim_mpi, is the same in every run).
// Each run is checked against the interpreter reference (registers, EIP,
// flags, halt, console, RAM outside the residue window) and its Metrics
// against the solo run. Jobs are timed in process CPU time; see calib.go.
func runClosed(o opts, names []string) (*outcome, error) {
	out := &outcome{}
	var progs []*program
	for i := 0; i < setupReps; i++ {
		c0 := cpuTime()
		var err error
		if progs, err = buildPrograms(o.tr, names, true); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, (cpuTime()-c0)/1e9)
	}

	rng := rand.New(rand.NewSource(int64(o.seed)))
	var in layerInputs
	deadline := time.Now().Add(o.seconds)
	runtime.LockOSThread() // the calibration kernel reads this thread's CPU time
	defer runtime.UnlockOSThread()
	cal := newCalibration()
	progCal := make([][]float64, len(progs))
	progMs := make([][]float64, len(progs))
	for time.Now().Before(deadline) {
		// One calibration run ahead of each job; the round's median scales
		// the round's jobs, so a stolen slice during one calibration run
		// does not, and host drift between rounds cancels.
		var roundCal, roundMs, roundCPU []float64
		var roundProg []int
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			out.attempted++
			calWall, calCPU := cal.run()
			roundCal = append(roundCal, calCPU)
			out.calMs = append(out.calMs, calWall/1e6)
			st, t, err := runVM(o.tr, 0, &p.vm, cms.DefaultConfig(), "cms.Engine.Run", true)
			if err != nil {
				out.fail(o, err.Error())
				out.latCal = append(out.latCal, failedLatency)
				out.latMs = append(out.latMs, failedLatency)
				continue
			}
			if d := diffState(p.ref, st); d != "" {
				out.wrongOutput(o, fmt.Sprintf("%s: %s", p.name, d))
			} else if st.metrics != p.solo.metrics {
				out.wrongOutput(o, fmt.Sprintf("%s: Metrics differ from the solo run: %s", p.name,
					metricsDiff(p.solo.metrics, st.metrics)))
			}
			roundMs = append(roundMs, float64(t.totalNs())/1e6)
			roundCPU = append(roundCPU, t.cpuNs)
			roundProg = append(roundProg, i)
			out.guest += st.metrics.GuestTotal()
			out.simMols += st.metrics.TotalMols()
			out.allocBytes += t.allocBytes
			in.add(st.metrics, float64(t.runNs), 0, st.metrics.Translations)
		}
		calCPU := median(roundCal)
		for k, ms := range roundMs {
			c := roundCPU[k] / calCPU
			out.latMs = append(out.latMs, ms)
			out.latCal = append(out.latCal, c)
			progCal[roundProg[k]] = append(progCal[roundProg[k]], c)
			progMs[roundProg[k]] = append(progMs[roundProg[k]], ms)
		}
	}
	// Throughput is one round of every program at each program's median
	// CPU time: a sum would let a few slow outliers set it.
	var roundGuest uint64
	for i, p := range progs {
		roundGuest += p.solo.metrics.GuestTotal()
		out.busyCal += median(progCal[i])
		out.busyS += median(progMs[i]) / 1e3
	}
	out.simGuest, out.allocGuest = out.guest, out.guest
	out.jobs, out.guest = len(progs), roundGuest
	out.wallJobs, out.wallGuest = out.jobs, out.guest
	out.retainedBytes = retainedHeap()
	if o.tr != nil {
		if err := probeLayers(o, out, progs, progs[0], &in, true); err != nil {
			return nil, err
		}
		out.layers = layerMetrics(o.tr.spans, in, out.latCal)
	}
	return out, nil
}
