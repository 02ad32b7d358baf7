package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// xs and whether at least minBeyond samples lie beyond it. The median
// (p = 0.5) is always reportable for a non-empty sample.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], p <= 0.5 || n-rank >= minBeyond
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
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

// quartiles returns Q1, median and Q3 by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the rule the steadiness
// acceptance is computed with. With fewer than two samples every
// quartile is the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
