package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/farm"
	"cms/internal/snapshot"
	"cms/internal/workload"
)

// serveRate is the open-loop arrival rate: a sixth of the two-slot farm's
// flood capacity on a quiet 2-CPU host (230-290 jobs/s), so that it stays
// well under the knee when other tenants take a quarter of the CPU. Near
// the knee latency is bistable (at 200 jobs/s one run's p50 was 170 ms and
// the next 1083 ms), which no bound could hold.
const serveRate = 40.0

// calPeriod is how often the serve window runs the calibration kernel:
// about 5% of one CPU.
const calPeriod = 20 * time.Millisecond

// floodDepth is how many jobs the flood phase keeps queued: enough that
// both VM slots never idle between polls of the queue length.
const floodDepth = 8

// serveMix is the serve job mix per 100 jobs: suite kernels, boots and
// games, unique generated sources (store misses beside the suite's hits),
// and restores of a mid-run win98_boot snapshot.
var serveMix = []share{
	{class: classSuite, per: 75, names: kernelNames},
	{class: classSuite, per: 10, names: bootNames},
	{class: classSource, per: 8},
	{class: classRestore, per: 7},
}

// rig is a farm with everything its jobs are checked against.
type rig struct {
	f       *farm.Farm
	progs   map[string]*program
	snap    *program // the program whose mid-run snapshot restore jobs resume
	blob    []byte
	seed    uint64
	sources []string
	nextSrc int // next source a job gets; sources are never reused
	srcRefs map[int]*vmState

	restoreRef  *vmState // the snapshot resumed solo: what restore jobs must match
	restoreNote string   // set when restoreRef's Metrics differ from the uninterrupted run
}

// newRig starts a two-slot farm over progs, captures snap's mid-run
// snapshot, generates nSources sources, and warms the shared store with one
// job of each program and one restore.
func newRig(tr *tracer, progs []*program, snap *program, seed uint64, nSources int) (*rig, error) {
	r := &rig{progs: make(map[string]*program), snap: snap, seed: seed, srcRefs: make(map[int]*vmState)}
	for _, p := range progs {
		r.progs[p.name] = p
	}
	var err error
	if r.blob, err = captureMidRun(tr, snap); err != nil {
		return nil, err
	}
	re, err := snapshot.Load(r.blob, cms.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := re.Run(snap.img.Budget); err != nil {
		return nil, fmt.Errorf("solo restore of %s: %w", snap.name, err)
	}
	r.restoreRef = capture(re, false)
	if d := diffState(snap.solo, r.restoreRef); d != "" {
		return nil, fmt.Errorf("solo restore of %s disagrees with its uninterrupted run: %s", snap.name, d)
	}
	// A budget-exhausted capture can resume at the dispatcher where the
	// uninterrupted run followed a chain; the guest state agrees, but the
	// simulated flow counters may not. Say so rather than hide it.
	if d := metricsDiff(snap.solo.metrics, r.restoreRef.metrics); d != "" {
		r.restoreNote = fmt.Sprintf("solo restore of %s retires the same guest state, but its Metrics differ from the uninterrupted run: %s", snap.name, d)
	}
	for i := 0; i < nSources; i++ {
		r.sources = append(r.sources, genSource(seed, i))
	}
	r.f = farm.New(farm.Config{MaxVMs: 2, QueueDepth: 1024, Engine: cms.DefaultConfig()})
	var ids []string
	for _, p := range progs {
		v, err := r.f.Submit(farm.JobSpec{Workload: p.name})
		if err != nil {
			r.f.Drain()
			return nil, err
		}
		ids = append(ids, v.ID)
	}
	v, err := r.submitRestore()
	if err != nil {
		r.f.Drain()
		return nil, err
	}
	r.f.Wait()
	for _, id := range append(ids, v.ID) {
		if j, _ := r.f.Job(id); j.Status != farm.StatusDone {
			r.f.Drain()
			return nil, fmt.Errorf("warm-up job %s: %s %s", id, j.Status, j.Error)
		}
	}
	return r, nil
}

// captureMidRun runs p to half its solo retirement and saves it.
func captureMidRun(tr *tracer, p *program) ([]byte, error) {
	e, err := runToHalf(p, cms.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sp := tr.begin("snapshot.Save", 0)
	blob, err := snapshot.Save(e)
	tr.end(sp, uint64(len(blob)))
	return blob, err
}

// submitRestore resumes the mid-run snapshot. The job must carry the
// workload's full budget: with none it resumes with the captured one, which
// the capture exhausted, and fails at once.
func (r *rig) submitRestore() (farm.JobView, error) {
	return r.f.SubmitRestore(r.blob, farm.JobSpec{Budget: r.snap.img.Budget})
}

// sent is one job handed to the farm.
type sent struct {
	planned
	open        bool // sent by the open loop (else by the flood)
	due, submit time.Time
	id          string
	src         int // source index for source jobs
	err         error
}

func (r *rig) send(j planned, due time.Time, open bool) sent {
	s := sent{planned: j, open: open, due: due, submit: time.Now()}
	var v farm.JobView
	switch j.class {
	case classSuite:
		v, s.err = r.f.Submit(farm.JobSpec{Workload: j.name})
	case classSource:
		s.src = r.nextSrc
		r.nextSrc++
		v, s.err = r.f.Submit(farm.JobSpec{Source: r.source(s.src)})
	default:
		v, s.err = r.submitRestore()
	}
	s.id = v.ID
	return s
}

// openLoop sends n jobs from d at seeded Poisson arrivals of the given rate,
// each when it is due whether or not earlier ones have finished.
func (r *rig) openLoop(d *deck, n int, rate float64, rng *rand.Rand) []sent {
	out := make([]sent, 0, n)
	due := time.Now()
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		out = append(out, r.send(d.draw(), due, true))
	}
	return out
}

// flood keeps floodDepth jobs queued for dur, so the farm runs at capacity.
func (r *rig) flood(d *deck, dur time.Duration) (out []sent, start, end time.Time) {
	start = time.Now()
	end = start.Add(dur)
	for time.Now().Before(end) {
		if r.f.Stats().Queued >= floodDepth {
			time.Sleep(500 * time.Microsecond)
			continue
		}
		out = append(out, r.send(d.draw(), time.Now(), false))
	}
	return out, start, time.Now()
}

// finished is a sent job with the farm's view of it.
type finished struct {
	sent
	view      farm.JobView
	latencyMs float64 // (submit - due) + LatencyNs; failedLatency if it failed
	complete  time.Time
}

// collect checks every sent job against its reference and records the
// farm's timestamps as spans: a job span from due time to completion with
// generator lateness, queue wait (plus image and VM build) and service as
// children.
func (r *rig) collect(o opts, out *outcome, jobs []sent) []finished {
	views := make(map[string]farm.JobView)
	for _, v := range r.f.Jobs() {
		views[v.ID] = v
	}
	res := make([]finished, 0, len(jobs))
	for _, s := range jobs {
		out.attempted++
		f := finished{sent: s, latencyMs: failedLatency}
		if s.err != nil {
			out.fail(o, fmt.Sprintf("%s job refused: %v", s.class, s.err))
			res = append(res, f)
			continue
		}
		f.view = views[s.id]
		if f.view.Status != farm.StatusDone || f.view.Result == nil {
			out.fail(o, fmt.Sprintf("%s job %s: %s %s", s.class, s.id, f.view.Status, f.view.Error))
			res = append(res, f)
			continue
		}
		if d := r.check(o.tr, s, f.view.Result); d != "" {
			out.wrongOutput(o, fmt.Sprintf("%s job %s (%s): %s", s.class, s.id, s.name, d))
		}
		f.latencyMs, f.complete = jobLatency(s.due, s.submit, f.view.LatencyNs)
		service := time.Duration(f.view.Result.WallNs)
		if o.tr != nil && s.open {
			// Flood jobs queue by construction; the farm's spans describe
			// the open loop's.
			job := o.tr.add("farm.job."+s.class, 0, s.due, f.complete, f.view.Result.GuestInsns)
			o.tr.add("farm.gen_late", job, s.due, s.submit, 0)
			o.tr.add("farm.wait", job, s.submit, f.complete.Add(-service), 0)
			o.tr.add("farm.service", job, f.complete.Add(-service), f.complete, f.view.Result.GuestInsns)
		}
		res = append(res, f)
	}
	return res
}

// jobLatency is an open-loop job's latency, measured from when it was due
// rather than when it was sent, so a generator that fell behind (a stall on
// the sending side) is charged to the jobs it delayed. The farm's latency
// runs from admission to completion.
func jobLatency(due, submit time.Time, farmLatencyNs int64) (ms float64, complete time.Time) {
	complete = submit.Add(time.Duration(farmLatencyNs))
	return float64(complete.Sub(due)) / 1e6, complete
}

// check compares a farm result with the solo run of the same job: registers,
// EIP, flags, halt state, console and Metrics must all be identical.
func (r *rig) check(tr *tracer, s sent, got *farm.Result) string {
	var want *vmState
	switch s.class {
	case classSuite:
		want = r.progs[s.name].solo
	case classRestore:
		want = r.restoreRef
	default:
		var err error
		if want, err = r.sourceRef(tr, s.src); err != nil {
			return err.Error()
		}
	}
	gs := &vmState{regs: got.Regs, eip: got.EIP, flags: got.Flags, halted: got.Halted, console: got.Console}
	ws := *want
	ws.text, ws.ram = nil, nil // a farm result carries neither
	if d := diffState(&ws, gs); d != "" {
		return d
	}
	if got.Metrics != want.metrics {
		return "Metrics differ from the solo run"
	}
	return ""
}

// source returns source i, generating past the pregenerated pool if a fast
// farm drains it: a reused source would turn its store misses into hits.
func (r *rig) source(i int) string {
	for len(r.sources) <= i {
		r.sources = append(r.sources, genSource(r.seed, len(r.sources)))
	}
	return r.sources[i]
}

// sourceRef assembles source i and runs it solo the way the farm would.
func (r *rig) sourceRef(tr *tracer, i int) (*vmState, error) {
	if st := r.srcRefs[i]; st != nil {
		return st, nil
	}
	p, err := assembleSource(tr, fmt.Sprintf("source#%d", i), r.source(i))
	if err != nil {
		return nil, err
	}
	st, _, err := runVM(tr, 0, p, cms.DefaultConfig(), "cms.Engine.Run", false)
	if err != nil {
		return nil, err
	}
	r.srcRefs[i] = st
	return st, nil
}

func assembleSource(tr *tracer, name, src string) (*vm, error) {
	sp := tr.begin("asm.Assemble", 0)
	prog, err := asm.Assemble(src)
	tr.end(sp, uint64(len(src)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	img := &workload.Image{Org: prog.Org, Data: prog.Image, Entry: prog.Entry(), RAM: sourceRAM, Budget: farmDefaultBudget}
	return &vm{name: name, img: img, stackTop: sourceStack}, nil
}

// farmDefaultBudget is the budget the farm gives a source job.
const farmDefaultBudget = 100_000_000

// runServe is the serve workload: an open loop at serveRate for three
// quarters of the window, then a flood for the rest. Job latency is measured from
// each job's due time, so a stalled generator or a backed-up queue shows.
func runServe(o opts) (*outcome, error) {
	out := &outcome{}
	names := append(append([]string(nil), kernelNames...), bootNames...)
	openDur := o.seconds * 3 / 4
	// Whole blocks of the mix, so every run sends the same share of each
	// class and sim_mpi varies by seed only through the sources' code.
	nOpen := max(100, int(serveRate*openDur.Seconds())/100*100)
	// Sources for the open loop and a flood at up to twice today's capacity.
	nSources := (nOpen + int(600*(o.seconds-openDur).Seconds())) * 8 / 100
	var r *rig
	var progs []*program
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.f.Drain()
		}
		c0 := cpuTime()
		var err error
		if progs, err = buildPrograms(o.tr, names, o.tr != nil); err != nil {
			return nil, err
		}
		if r, err = newRig(o.tr, progs, progs[len(kernelNames)], o.seed, nSources); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, (cpuTime()-c0)/1e9)
	}
	defer r.f.Drain()
	if r.restoreNote != "" {
		out.notes = append(out.notes, r.restoreNote)
	}

	d := newDeck(serveMix, rand.New(rand.NewSource(int64(o.seed))))
	arrivals := rand.New(rand.NewSource(int64(o.seed) + 1))
	stopCal := make(chan struct{})
	calCh := sampleCal(calPeriod, stopCal)
	a0 := heapAllocs()
	openStart := time.Now()
	jobs := r.openLoop(d, nOpen, serveRate, arrivals)
	openEnd := time.Now()
	// The heap the farm retains is read after the open loop's fixed job
	// count, so a farm that floods faster does not read as retaining more.
	r.f.Wait()
	out.retainedBytes = retainedHeap()
	c0 := cpuTime()
	floodJobs, fs, fe := r.flood(d, o.seconds-openDur)
	r.f.Wait()
	floodCPU := cpuTime() - c0
	out.allocBytes = heapAllocs() - a0
	close(stopCal)
	cals := <-calCh
	for _, c := range cals {
		out.calMs = append(out.calMs, c.wall/1e6)
	}
	// Open-loop latency is wall time, so it is scaled by the calibration's
	// wall time over the open loop; flood capacity is CPU time, scaled by
	// the calibration's CPU time over the flood (see calib.go).
	openWall, _ := calWindow(cals, openStart, openEnd)
	calMs := sum(openWall) / float64(len(openWall))
	_, floodCal := calWindow(cals, fs, fe)

	var in layerInputs
	var floodDone int
	var floodGuest uint64
	for _, f := range r.collect(o, out, append(jobs, floodJobs...)) {
		res := f.view.Result
		if f.open {
			out.latMs = append(out.latMs, f.latencyMs)
			out.latCal = append(out.latCal, f.latencyMs/calMs)
		}
		if res == nil {
			continue
		}
		out.allocGuest += res.GuestInsns
		if f.open {
			out.simMols += res.Mols
			out.simGuest += res.GuestInsns
		} else {
			out.jobs++
			out.guest += res.GuestInsns
		}
		if !f.complete.Before(fs) && !f.complete.After(fe) {
			floodDone++
			floodGuest += res.GuestInsns
		}
		in.add(res.Metrics, float64(res.WallNs), res.SharedHits, res.SharedMisses)
	}
	// Capacity in CPU time: every flood job over the CPU the process spent
	// until the last one finished. The wall-clock report counts the jobs
	// that finished inside the flood window instead.
	out.busyCal = floodCPU / 1e6 / median(floodCal)
	out.wallJobs, out.wallGuest, out.busyS = floodDone, floodGuest, fe.Sub(fs).Seconds()
	if o.tr != nil {
		in.dedup = r.f.Stats().Store.DedupRatio()
		if err := probeLayers(o, out, progs, r.snap, &in, false); err != nil {
			return nil, err
		}
		out.layers = layerMetrics(o.tr.spans, in, out.latCal)
	}
	return out, nil
}

// runToHalf runs p under cfg until it has retired half its solo count.
func runToHalf(p *program, cfg cms.Config) (*cms.Engine, error) {
	plat := dev.NewPlatform(p.img.RAM, p.img.Disk)
	plat.Bus.WriteRaw(p.img.Org, p.img.Data)
	e := cms.New(plat, p.img.Entry, cfg)
	if err := e.Run(p.solo.metrics.GuestTotal() / 2); !errors.Is(err, cms.ErrBudget) {
		return nil, fmt.Errorf("%s: mid-run stop: %v", p.name, err)
	}
	return e, nil
}
