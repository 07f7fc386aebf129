package stats

import (
	"bytes"
	"math/rand"
	"testing"

	"loosesim/internal/snap"
)

// fill populates a fresh histogram from a sample slice.
func fill(bound int, samples []int) *Histogram {
	h := NewHistogram(bound)
	for _, v := range samples {
		h.Add(v)
	}
	return h
}

// equalHist compares two histograms through their byte-stable encoding —
// exactly the equality the checkpoint layer relies on.
func equalHist(a, b *Histogram) bool {
	var ca, cb snap.Codec
	a.Sync(&ca)
	b.Sync(&cb)
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// TestMergeMatchesDirect: merging window histograms must equal one
// histogram fed every sample directly.
func TestMergeMatchesDirect(t *testing.T) {
	cases := []struct {
		name    string
		bound   int
		windows [][]int
	}{
		{"two-windows", 8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{"with-overflow", 4, [][]int{{0, 9, 2}, {11, 1, 300}}},
		{"empty-window", 6, [][]int{{1, 2}, {}, {3}}},
		{"clamped-negatives", 6, [][]int{{-5, 0}, {-1, 2}}},
		{"single", 16, [][]int{{7, 7, 7, 15, 16}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct := NewHistogram(tc.bound)
			merged := NewHistogram(tc.bound)
			for _, win := range tc.windows {
				for _, v := range win {
					direct.Add(v)
				}
				merged.Merge(fill(tc.bound, win))
			}
			if !equalHist(direct, merged) {
				t.Fatalf("merged %v != direct %v", merged, direct)
			}
		})
	}
}

// TestMergeAssociativeCommutative: (a+b)+c == a+(b+c) and a+b == b+a,
// including across histograms built with different bounds.
func TestMergeAssociativeCommutative(t *testing.T) {
	cases := []struct {
		name    string
		bounds  [3]int
		streams [3][]int
	}{
		{"same-bound", [3]int{8, 8, 8}, [3][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 9}}},
		{"mixed-bounds", [3]int{4, 8, 16}, [3][]int{{1, 5, 9}, {2, 6, 10}, {3, 7, 20}}},
		{"overflow-heavy", [3]int{2, 3, 4}, [3][]int{{10, 11}, {12}, {0, 1, 13}}},
		{"with-empty", [3]int{8, 8, 8}, [3][]int{{}, {1, 2}, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(i int) *Histogram { return fill(tc.bounds[i], tc.streams[i]) }

			// Associativity: ((a+b)+c) vs (a+(b+c)).
			left := mk(0)
			left.Merge(mk(1))
			left.Merge(mk(2))
			bc := mk(1)
			bc.Merge(mk(2))
			right := mk(0)
			right.Merge(bc)
			if !equalHist(left, right) {
				t.Fatalf("associativity: %v != %v", left, right)
			}

			// Commutativity needs a common accumulator shape, since the
			// receiver's bound grows to cover the widest operand: start both
			// orders from the same empty histogram.
			ab := NewHistogram(1)
			ab.Merge(mk(0))
			ab.Merge(mk(1))
			ba := NewHistogram(1)
			ba.Merge(mk(1))
			ba.Merge(mk(0))
			if !equalHist(ab, ba) {
				t.Fatalf("commutativity: %v != %v", ab, ba)
			}
		})
	}
}

// TestMergeOverflowPreserved: samples that overflowed a window histogram
// stay in the overflow bucket after merging — they are never reassigned
// into buckets the accumulator happens to have, and count/sum/max carry
// through exactly.
func TestMergeOverflowPreserved(t *testing.T) {
	narrow := fill(4, []int{1, 9, 12}) // 9 and 12 overflow bound 4
	wide := NewHistogram(32)
	wide.Merge(narrow)
	if got := wide.Overflow(); got != 2 {
		t.Fatalf("overflow after merge = %d, want 2", got)
	}
	if wide.Bucket(9) != 0 || wide.Bucket(12) != 0 {
		t.Fatal("overflowed samples were reassigned to in-range buckets")
	}
	if wide.Count() != 3 || wide.Max() != 12 {
		t.Fatalf("count=%d max=%d, want 3/12", wide.Count(), wide.Max())
	}
	if got, want := wide.Mean(), (1.0+9+12)/3; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestMergeNilAndSelfZero: nil operand is a no-op; merging an empty
// histogram changes nothing but (possibly) the bucket range.
func TestMergeNilAndSelfZero(t *testing.T) {
	h := fill(8, []int{1, 2, 3})
	before := fill(8, []int{1, 2, 3})
	h.Merge(nil)
	h.Merge(NewHistogram(8))
	if !equalHist(h, before) {
		t.Fatalf("no-op merges changed state: %v -> %v", before, h)
	}
}

// TestMergeRandomizedAgainstDirect: property check on seeded random
// streams split into random windows.
func TestMergeRandomizedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		bound := 1 + rng.Intn(20)
		direct := NewHistogram(bound)
		acc := NewHistogram(bound)
		minBound := bound
		for w := 0; w < 1+rng.Intn(6); w++ {
			wb := 1 + rng.Intn(30)
			if wb < minBound {
				minBound = wb
			}
			win := NewHistogram(wb)
			for i := 0; i < rng.Intn(40); i++ {
				v := rng.Intn(40) - 2
				direct.Add(v)
				win.Add(v)
			}
			acc.Merge(win)
		}
		if acc.Count() != direct.Count() || acc.Max() != direct.Max() {
			t.Fatalf("trial %d: count/max diverged", trial)
		}
		if acc.Mean() != direct.Mean() {
			t.Fatalf("trial %d: mean diverged", trial)
		}
		// Below every operand's bound no sample can have overflowed, so
		// the buckets must agree exactly; above that, bucket-vs-overflow
		// placement legitimately depends on each window's own bound.
		for v := 0; v < minBound; v++ {
			if acc.Bucket(v) != direct.Bucket(v) {
				t.Fatalf("trial %d: bucket %d: merged %d != direct %d",
					trial, v, acc.Bucket(v), direct.Bucket(v))
			}
		}
	}
}

// TestHistogramSnapshotRoundTrip: snap encode/decode is lossless and
// byte-stable, and corrupt bytes error instead of panicking.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := fill(6, []int{0, 1, 1, 5, 9, 42})
	var enc snap.Codec
	h.Sync(&enc)

	var got Histogram
	c := snap.NewDecoder(enc.Bytes())
	got.Sync(c)
	if err := c.Expect(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !equalHist(h, &got) {
		t.Fatalf("round trip: %v != %v", &got, h)
	}

	// Truncations must error cleanly.
	for cut := 0; cut < len(enc.Bytes()); cut += 3 {
		var bad Histogram
		c := snap.NewDecoder(enc.Bytes()[:cut])
		bad.Sync(c)
		if c.Err() == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	// A negative max is semantically invalid.
	neg := &Histogram{buckets: []uint64{1}, count: 1, max: -3}
	var encNeg snap.Codec
	neg.Sync(&encNeg)
	var bad Histogram
	cneg := snap.NewDecoder(encNeg.Bytes())
	bad.Sync(cneg)
	if cneg.Err() == nil {
		t.Fatal("negative max accepted")
	}
}
