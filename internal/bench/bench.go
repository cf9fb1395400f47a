// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Figures 2-3, Table 1, the §3.6.2
// self-revalidation and §3.6.3 self-checking data, plus structural data for
// Figures 1 and the chaining claim of §2). Each experiment returns a typed
// result that cmd/cmsbench renders and EXPERIMENTS.md records.
package bench

import (
	"fmt"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/workload"
)

// RunStats is the outcome of one workload execution under one configuration.
type RunStats struct {
	Name    string
	Kind    workload.Kind
	Metrics cms.Metrics

	// FineGrainRefills comes from the bus (hardware-cache misses).
	FineGrainRefills uint64
	// CacheInstalls/Invalidations come from the translation cache.
	CacheInstalls      uint64
	CacheInvalidations uint64

	// QuakeFrames is the rendered frame count (Quake analog only).
	QuakeFrames uint32
}

// Mols returns total molecules.
func (r *RunStats) Mols() uint64 { return r.Metrics.TotalMols() }

// Run executes one workload under cfg to completion.
func Run(w workload.Workload, cfg cms.Config) (*RunStats, error) {
	img := w.Build()
	plat := dev.NewPlatform(img.RAM, img.Disk)
	plat.Bus.WriteRaw(img.Org, img.Data)
	e := cms.New(plat, img.Entry, cfg)
	if err := e.Run(img.Budget); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	if !e.CPU().Halted {
		return nil, fmt.Errorf("bench: %s did not halt", w.Name)
	}
	return &RunStats{
		Name:               w.Name,
		Kind:               w.Kind,
		Metrics:            e.Metrics,
		FineGrainRefills:   plat.Bus.Stats.FineGrainRefills,
		CacheInstalls:      e.Cache.Stats.Installs,
		CacheInvalidations: e.Cache.Stats.Invalidations,
		QuakeFrames:        plat.Bus.Read32(workload.QuakeFrameVar),
	}, nil
}

// degradation returns the percentage slowdown of variant over base.
func degradation(base, variant uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(variant) - float64(base)) / float64(base)
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
