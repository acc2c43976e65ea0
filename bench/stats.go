package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as supported: fewer and the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample (0 for an empty one), and whether at least minBeyond
// samples lie beyond it. An unsupported percentile is still returned — a
// slower program must show as a worse number, not as a missing one — but the
// caller flags it.
func percentile(sorted []float64, p float64) (value float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle of a sample (mean of the two middle values for
// an even count), or 0 for an empty one: a layer with no spans did nothing.
// The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sum adds a sample.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work has no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
