package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/snapshot"
	"cms/internal/tcache"
	"cms/internal/vliw"
	"cms/internal/xlate"
)

// probeReps is how many times the traced run replays each layer probe.
const probeReps = 3

// probeJobs jobs at probeRate per second make the closed loops' farm probe:
// light enough load for a two-slot farm running boots that queueing does
// not swamp the per-job figures.
const (
	probeJobs = 60
	probeRate = 20.0
)

// layerInputs are the counts behind the per-layer metrics, summed over the
// workload's measured runs (closed loops) or farm jobs (serve).
type layerInputs struct {
	runs        int
	runNs       float64 // wall time of the engine's work: Run, or the farm's service time
	guestInterp uint64
	guestTexec  uint64
	builds      uint64 // translations the backend built
	storeHits   uint64 // translations the shared store served
	chains      uint64
	exits       uint64 // translation exits: chained, looked up, or back to the dispatcher
	rollbacks   uint64
	smc         uint64
	irqs        uint64

	platformBytes float64
	snapBytes     float64
	dedup         float64
}

// add folds one run in. Without a shared store every translation is a
// build (hits 0, misses = Translations).
func (in *layerInputs) add(m cms.Metrics, runNs float64, hits, misses uint64) {
	in.runs++
	in.runNs += runNs
	in.guestInterp += m.GuestInterp
	in.guestTexec += m.GuestTexec
	in.builds += misses
	in.storeHits += hits
	in.chains += m.ChainTransfers
	in.exits += m.ChainTransfers + m.LookupTransfers + m.DispatchReturns
	for _, n := range m.Faults {
		in.rollbacks += n // every fault class rolls back to the last commit
	}
	in.smc += m.ProtFaults + m.DMAInvalidations
	in.irqs += m.Interrupts
}

// probeLayers times the layers the measured loop reaches only inside other
// calls, on the workload's own programs: translation replays (xlate, vliw,
// tcache), snapshot save/decode/restore, the platform's allocation, and for
// the closed loops a short open loop into a farm.
func probeLayers(o opts, out *outcome, progs []*program, snap *program, in *layerInputs, withFarm bool) error {
	tr := o.tr
	p0 := progs[0]
	for i := 0; i < probeReps; i++ {
		a0 := heapAllocs()
		plat := dev.NewPlatform(p0.img.RAM, p0.img.Disk)
		in.platformBytes += float64(heapAllocs()-a0) / probeReps
		runtime.KeepAlive(plat)
	}

	for _, p := range progs {
		reqs, err := installedRequests(p)
		if err != nil {
			return err
		}
		for i := 0; i < probeReps; i++ {
			store := tcache.NewShared(0)
			for _, im := range reqs {
				if err := replay(tr, store, im); err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
			}
		}
	}

	if err := probeSnapshot(tr, snap, in); err != nil {
		return err
	}

	if withFarm {
		// The closed loops never reach the farm: a short open loop gives the
		// farm and store layers figures on this workload's programs.
		r, err := newRig(tr, progs, snap, o.seed, 16)
		if err != nil {
			return err
		}
		defer r.f.Drain()
		if r.restoreNote != "" {
			out.notes = append(out.notes, r.restoreNote)
		}
		names := make([]string, len(progs))
		for i, p := range progs {
			names[i] = p.name
		}
		mix := []share{{class: classSuite, per: 84, names: names}, {class: classSource, per: 8}, {class: classRestore, per: 8}}
		jobs := r.openLoop(newDeck(mix, rand.New(rand.NewSource(int64(o.seed)))), probeJobs, probeRate,
			rand.New(rand.NewSource(int64(o.seed)+1)))
		r.f.Wait()
		r.collect(o, out, jobs)
		in.dedup = r.f.Stats().Store.DedupRatio()
	}
	return nil
}

// installedRequests runs p and returns the frozen request of every
// translation left installed.
func installedRequests(p *program) ([]*xlate.RequestImage, error) {
	plat := dev.NewPlatform(p.img.RAM, p.img.Disk)
	plat.Bus.WriteRaw(p.img.Org, p.img.Data)
	e := cms.New(plat, p.img.Entry, cms.DefaultConfig())
	if err := e.Run(p.img.Budget); err != nil {
		return nil, err
	}
	cs, err := e.Cache.ExportState()
	if err != nil {
		return nil, err
	}
	var out []*xlate.RequestImage
	for _, es := range cs.Entries {
		out = append(out, es.Req)
	}
	return out, nil
}

// replay rebuilds one translation from its frozen request: its key, a
// backend translation (which compiles), a separate compile of the result,
// and a store miss followed by a hit with the per-VM clone.
func replay(tr *tracer, store *tcache.SharedStore, im *xlate.RequestImage) error {
	req, err := im.Reify()
	if err != nil {
		return err
	}
	sp := tr.begin("xlate.Request.Key", 0)
	req.Key()
	tr.end(sp, 0)
	sp = tr.begin("xlate.Request.Translate", 0)
	t, err := req.Translate()
	tr.end(sp, 0)
	if err != nil {
		return err
	}
	sp = tr.begin("vliw.Compile", 0)
	vliw.Compile(t.Code)
	tr.end(sp, uint64(t.CodeAtoms()))
	sp = tr.begin("tcache.miss", 0)
	_, hit, err := store.Translate(req)
	tr.end(sp, 0)
	if err != nil || hit {
		return fmt.Errorf("store miss expected for %#x (hit %v): %v", im.Entry, hit, err)
	}
	sp = tr.begin("tcache.hit", 0)
	art, hit, err := store.Translate(req)
	if err == nil {
		art.Clone()
	}
	tr.end(sp, 0)
	if err != nil || !hit {
		return fmt.Errorf("store hit expected for %#x (hit %v): %v", im.Entry, hit, err)
	}
	return nil
}

// probeSnapshot captures snap at half its run against a store, then saves,
// decodes and restores it warm (same store) and cold (empty store). Whether
// a restore resumes correctly is checked by the farm's restore jobs.
func probeSnapshot(tr *tracer, snap *program, in *layerInputs) error {
	cfg := cms.DefaultConfig()
	cfg.SharedStore = tcache.NewShared(0)
	e, err := runToHalf(snap, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < probeReps; i++ {
		sp := tr.begin("snapshot.Save", 0)
		blob, err := snapshot.Save(e)
		tr.end(sp, uint64(len(blob)))
		if err != nil {
			return err
		}
		in.snapBytes = float64(len(blob))
		for _, warm := range []bool{true, false} {
			sp = tr.begin("snapshot.Decode", 0)
			s, err := snapshot.Decode(blob)
			tr.end(sp, 0)
			if err != nil {
				return err
			}
			rc, name := cfg, "snapshot.Restore.warm"
			if !warm {
				rc.SharedStore, name = tcache.NewShared(0), "snapshot.Restore.cold"
			}
			sp = tr.begin(name, 0)
			_, err = snapshot.Restore(s, rc)
			tr.end(sp, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and counts.
func layerMetrics(spans []span, in layerInputs, latCal []float64) map[string]metric {
	lt := selfTimes(spans)
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	us := func(name string) float64 { return get(name).meanSelf() / 1e3 }
	durMs := func(name string) []float64 {
		var d []float64
		for _, s := range spans {
			if s.Name == name {
				d = append(d, float64(s.End-s.Start)/1e6)
			}
		}
		return d
	}
	pct := func(name string, p float64) float64 {
		v, _ := percentile(durMs(name), p)
		return v
	}
	interp := get("interp.run")
	interpNs := ratio(interp.totalSelf(), float64(interp.n))
	translateNs := get("xlate.Request.Translate").meanSelf()
	hitNs := get("tcache.hit").meanSelf()
	// Translated execution and dispatch are what is left of the engine's wall
	// time once interpretation, translation and store hits are taken out.
	texecNs := ratio(in.runNs-float64(in.guestInterp)*interpNs-float64(in.builds)*translateNs-
		float64(in.storeHits)*hitNs, float64(in.guestTexec))
	runs := float64(in.runs)
	tracedP50, _ := percentile(latCal, 50)
	ms := map[string]metric{
		"workload.build_us":          {us("workload.Build"), "us"},
		"asm.assemble_us":            {us("asm.Assemble"), "us"},
		"dev.platform_us":            {us("dev.NewPlatform"), "us"},
		"dev.platform_bytes":         {in.platformBytes, "B"},
		"cms.new_us":                 {us("cms.New"), "us"},
		"interp.ns_per_insn":         {interpNs, "ns"},
		"interp.insn_frac":           {ratio(float64(in.guestInterp), float64(in.guestInterp+in.guestTexec)), "frac"},
		"xlate.translate_us":         {translateNs / 1e3, "us"},
		"xlate.key_ns":               {get("xlate.Request.Key").meanSelf(), "ns"},
		"xlate.translations_per_run": {ratio(float64(in.builds+in.storeHits), runs), "count"},
		"vliw.compile_us":            {us("vliw.Compile"), "us"},
		"tcache.store_hit_ns":        {hitNs, "ns"},
		"tcache.store_miss_us":       {us("tcache.miss"), "us"},
		"tcache.dedup_ratio":         {in.dedup, "frac"},
		"cms.texec_ns_per_insn":      {texecNs, "ns"},
		"cms.chain_frac":             {ratio(float64(in.chains), float64(in.exits)), "frac"},
		"cms.rollbacks_per_run":      {ratio(float64(in.rollbacks), runs), "count"},
		"cms.smc_events_per_run":     {ratio(float64(in.smc), runs), "count"},
		"cms.irqs_per_run":           {ratio(float64(in.irqs), runs), "count"},
		"snapshot.save_us":           {us("snapshot.Save"), "us"},
		"snapshot.bytes":             {in.snapBytes, "B"},
		"snapshot.decode_us":         {us("snapshot.Decode"), "us"},
		"snapshot.restore_cold_us":   {us("snapshot.Restore.cold"), "us"},
		"snapshot.restore_warm_us":   {us("snapshot.Restore.warm"), "us"},
		"farm.wait_ms_p50":           {pct("farm.wait", 50), "ms"},
		"farm.wait_ms_p99":           {pct("farm.wait", 99), "ms"},
		"farm.service_ms_p50":        {pct("farm.service", 50), "ms"},
		"farm.service_ms_p99":        {pct("farm.service", 99), "ms"},
		"farm.gen_late_ms_p99":       {pct("farm.gen_late", 99), "ms"},
		"farm.job_ms_p50.suite":      {pct("farm.job."+classSuite, 50), "ms"},
		"farm.job_ms_p50.source":     {pct("farm.job."+classSource, 50), "ms"},
		"farm.job_ms_p50.restore":    {pct("farm.job."+classRestore, 50), "ms"},
		"trace.latency_cal_p50":      {tracedP50, "cal"},
	}
	return finite(ms)
}

// finite replaces values JSON cannot carry: NaN (a layer with no samples)
// becomes 0 and +Inf (a percentile of failed jobs) the largest float.
func finite(ms map[string]metric) map[string]metric {
	for k, m := range ms {
		switch {
		case math.IsNaN(m.Value):
			m.Value = 0
		case math.IsInf(m.Value, 0):
			m.Value = math.Copysign(math.MaxFloat64, m.Value)
		}
		ms[k] = m
	}
	return ms
}
