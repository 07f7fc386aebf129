package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // unsorted on purpose
	}
	return v
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		want, pct float64
	}{
		{n: 200, want: 190, pct: 95},  // 10 samples (191..200) beyond
		{n: 1000, want: 990, pct: 99}, // the rule climbs with the count
		{n: 20, want: 10, pct: 50},    // the lowest count it still applies to
		{n: 19, want: 19, pct: 100},   // below the median: fall back to the max
		{n: 5, want: 5, pct: 100},     // too few samples for any percentile
		{n: 1, want: 1, pct: 100},     // a single op is its own tail
	}
	for _, c := range cases {
		got, pct := tail(seq(c.n))
		if got != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", c.n, got, pct, c.want, c.pct)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles(seq(5))
	if q1 != 1.5 || q3 != 4.5 {
		t.Fatalf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := median(seq(10)); got != 5.5 {
		t.Fatalf("median(1..10) = %v, want 5.5", got)
	}
}
