package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// or 0 when fewer than minBeyond samples lie beyond it — the tail of so few
// samples is one or two outliers, not a percentile.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 || n-1-rank < minBeyond {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
