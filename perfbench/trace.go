package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for a root); N is the work count recorded at the same
// boundary (guest instructions for a run, bytes for a snapshot).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      uint64 `json:"n,omitempty"`
}

// tracer keeps spans in memory for the traced run; it is written out only
// when the run ends. A nil tracer records nothing and costs one compare per
// call, which is what the untraced run uses. It is not safe for concurrent
// use: every span is recorded from the benchmark's own goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return int32(len(t.spans))
}

// end closes span id and records its work count.
func (t *tracer) end(id int32, n uint64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	s.N = n
}

// add records a span whose times were taken elsewhere (the farm's own job
// timestamps).
func (t *tracer) add(name string, parent int32, start, end time.Time, n uint64) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), N: n})
	return int32(len(t.spans))
}

// layerTime aggregates every span of one name.
type layerTime struct {
	count  int
	selfNs []float64 // per span: duration minus the part its children cover
	n      uint64    // summed work counts
}

func (l layerTime) totalSelf() float64 { return sum(l.selfNs) }

// meanSelf is the mean self time per span, in ns.
func (l layerTime) meanSelf() float64 { return ratio(l.totalSelf(), float64(l.count)) }

// selfTimes folds spans by name. A span's self time is its duration minus
// the union of its children's intervals clipped to it, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) map[string]*layerTime {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		l.count++
		l.n += s.N
		l.selfNs = append(l.selfNs, float64(s.End-s.Start-covered(s.Start, s.End, kids[s.ID])))
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// write saves the spans and the run's provenance as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
