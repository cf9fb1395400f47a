package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky runs, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and how many samples lie strictly above its rank. xs need not be sorted;
// +Inf entries (refused or failed jobs) sort last, so they can only push a
// tail up. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether n samples support the p-th percentile under the
// minBeyond rule.
func tailOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// median is the 50th percentile by the same nearest-rank rule.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, returning 0 for an empty denominator so a layer the run
// never reached reads as zero work rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
