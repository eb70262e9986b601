package main

import (
	"math"
	"sort"
)

// Latencies are kept as exact samples: sorted, then indexed. No
// histogram stands between a measurement and the number reported.

// quantileIndex is the index, in n sorted samples, of the q-quantile:
// the smallest sample with at least q·n samples at or below it.
func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailIndex is the index of the reported tail: the q-quantile, lowered
// until at least ten samples lie beyond it, so that one stray sample
// cannot be the tail — but never below the median.
func tailIndex(n int, q float64) int {
	i := quantileIndex(n, q)
	if i > n-11 {
		i = n - 11
	}
	if m := quantileIndex(n, 0.5); i < m {
		i = m
	}
	return i
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[quantileIndex(len(s), 0.5)]
}

// tail of xs at quantile q under the ten-beyond rule, with the quantile
// actually reported; 0 when there are no samples.
func tail(xs []float64, q float64) (value, reportedQ float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := tailIndex(len(s), q)
	return s[i], float64(i+1) / float64(len(s))
}

// quartiles of xs as Python's statistics.quantiles(xs, n=4) gives them
// (exclusive method); all three are the one sample when there is one.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// quartileRange is the distance between the first and third quartile.
func quartileRange(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return math.Abs(q3 - q1)
}

// quartileSpread is that distance as a share of the median, which is
// how the repeatability of a metric is judged; 0 when the median is.
func quartileSpread(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	if med == 0 {
		return 0
	}
	return quartileRange(xs) / math.Abs(med)
}
