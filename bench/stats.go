package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p % of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of an unsorted sample; the mean of the middle two when even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// relSpread is (max-min)/median of a sample: how far a run's cycles
// disagree. -compare marks a metric unresolved when this exceeds the
// metric's bound.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// bestOf is the largest of xs when better is "higher", the smallest
// otherwise. A run reports its best cycle on the timing metrics, as
// one reports the fastest of several repetitions: what the shared host
// does to a cycle only ever slows it (whole stretches of tens of
// seconds cost 50 % more CPU time per op), so the best cycle is the one
// that says most about the program. A slower program is slower on every
// cycle, the best included.
func bestOf(xs []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
