package main

import (
	"math"
	"sort"
)

// quantile returns the exact nearest-rank q-quantile (0 < q <= 1) of
// sorted: the smallest sample with at least a share q of the samples at
// or below it. sorted must be ascending; no samples give 0.
func quantile[T int64 | float64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count; 0 for no samples. It does not modify xs.
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

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// rule the pipeline applies to repeated runs, reproduced here so the A/A
// report and gen.round_spread judge spread the same way. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// repeatability figure every bound in BENCHMARK.json is compared with.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
