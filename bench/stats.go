package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle of vals (the mean of the two middle values for
// an even count), or 0 for no values.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sorted(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the latency at the highest percentile that still has at least
// ten samples beyond it: with n sorted samples that is the (n-10)th, at
// percentile 100·(n-10)/n. Below 20 samples that percentile would fall
// under the median, so tail falls back to the maximum, reported as
// percentile 100.
func tail(vals []float64) (value, pct float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	s := sorted(vals)
	if n < 20 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles returns the first and third quartiles of vals with the
// "exclusive" method of Python's statistics.quantiles(vals, n=4), the rule
// BENCHMARK.json bounds are checked against.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := sorted(vals)
	at := func(j int) float64 {
		// Position j·(n+1)/4 in 1-based ranks, interpolated and clamped.
		pos := float64(j) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// geomean is the geometric mean over groups of summary(group).
func geomean(groups map[string][]float64, summary func([]float64) float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	var logSum float64
	for _, k := range sortedKeys(groups) {
		logSum += math.Log(summary(groups[k]))
	}
	return math.Exp(logSum / float64(len(groups)))
}
