package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/snapshot"
	"cms/internal/tcache"
	"cms/internal/workload"
)

// PerfWorkloads are the hot kernels: the translation-dominated benchmarks
// where simulator speed matters most. SnapshotCosts measures checkpoint and
// restore over them, and BenchmarkEngineRun profiles one full run of each.
var PerfWorkloads = []string{
	"eqntott", "compress", "alvinn", "tomcatv", "li", "gcc",
	"win98_boot", "quake_demo2",
}

// SnapshotPerf is one hot kernel's checkpoint/restore cost profile, measured
// at a mid-run capture point (half the workload's retirement count).
type SnapshotPerf struct {
	Name string
	// SnapshotBytes is the serialized envelope size: header, JSON payload,
	// integrity hash. Dominated by non-zero RAM pages.
	SnapshotBytes int
	// SaveNs is the wall-clock cost of snapshot.Save at the capture point.
	SaveNs int64
	// RestoreWarmNs times snapshot.Load against a shared store that already
	// holds the capture's translations (the live-migration receiver after
	// prewarming, or a restore on the capturing host). RestoreColdNs is the
	// same restore against an empty store — every translation is rebuilt by
	// deterministic retranslation.
	RestoreWarmNs int64
	RestoreColdNs int64
	// Translations is the number of translation keys the envelope carries.
	Translations int
	// RehydrateHitRate is the warm restore's store hit fraction (1.0 when
	// the store still holds everything the capture had installed).
	RehydrateHitRate float64
}

// SnapshotCosts measures checkpoint/restore over the perf kernels: each
// workload runs to half its retirement count against a shared store, is
// serialized, and is restored twice — once against the warm store, once
// against a cold one. The warm restored engine then finishes the run and
// must retire exactly the uninterrupted run's instruction count, so the
// numbers reported here are for restores proven equivalent, not just
// restores that loaded.
func SnapshotCosts() ([]SnapshotPerf, error) {
	var rows []SnapshotPerf
	for _, name := range PerfWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		full, err := Run(w, cms.DefaultConfig())
		if err != nil {
			return nil, err
		}
		total := full.Metrics.GuestTotal()

		warm := tcache.NewShared(0)
		cfg := cms.DefaultConfig()
		cfg.SharedStore = warm
		img := w.Build()
		plat := dev.NewPlatform(img.RAM, img.Disk)
		plat.Bus.WriteRaw(img.Org, img.Data)
		e := cms.New(plat, img.Entry, cfg)
		if err := e.Run(total / 2); !errors.Is(err, cms.ErrBudget) {
			return nil, fmt.Errorf("bench: %s: mid-run stop: %v", name, err)
		}

		t0 := time.Now()
		blob, err := snapshot.Save(e)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: save: %w", name, err)
		}
		saveNs := time.Since(t0).Nanoseconds()

		t0 = time.Now()
		re, err := snapshot.Load(blob, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: warm restore: %w", name, err)
		}
		warmNs := time.Since(t0).Nanoseconds()
		st := warm.Stats()
		hitRate := 0.0
		if n := st.RehydrateHits + st.RehydrateMisses; n > 0 {
			hitRate = float64(st.RehydrateHits) / float64(n)
		}

		ccfg := cms.DefaultConfig()
		ccfg.SharedStore = tcache.NewShared(0)
		t0 = time.Now()
		if _, err := snapshot.Load(blob, ccfg); err != nil {
			return nil, fmt.Errorf("bench: %s: cold restore: %w", name, err)
		}
		coldNs := time.Since(t0).Nanoseconds()

		// Finish the warm restore and cross-check against the solo run: a
		// restore whose continuation retires a different instruction count is
		// not a restore, whatever it timed at.
		if err := re.Run(total); err != nil {
			return nil, fmt.Errorf("bench: %s: restored run: %w", name, err)
		}
		if got := re.Metrics.GuestTotal(); got != total || !re.CPU().Halted {
			return nil, fmt.Errorf("bench: %s: restored run retired %d insns, solo %d", name, got, total)
		}

		rows = append(rows, SnapshotPerf{
			Name:             name,
			SnapshotBytes:    len(blob),
			SaveNs:           saveNs,
			RestoreWarmNs:    warmNs,
			RestoreColdNs:    coldNs,
			Translations:     len(warm.Keys()),
			RehydrateHitRate: hitRate,
		})
	}
	return rows, nil
}

// WriteSnapshot renders the checkpoint/restore cost table.
func WriteSnapshot(w io.Writer, rows []SnapshotPerf) {
	fmt.Fprintln(w, "Checkpoint/restore costs (capture at half retirement, restore verified bit-identical):")
	fmt.Fprintf(w, "%-14s %12s %10s %14s %14s %6s %6s\n",
		"workload", "bytes", "save ms", "restore-warm", "restore-cold", "xlns", "hit%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %10.3f %11.3f ms %11.3f ms %6d %5.0f%%\n",
			r.Name, r.SnapshotBytes, float64(r.SaveNs)/1e6,
			float64(r.RestoreWarmNs)/1e6, float64(r.RestoreColdNs)/1e6,
			r.Translations, 100*r.RehydrateHitRate)
	}
}
