package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand is the differential test of the generator's own
// random source against math/rand: from every seed class Seed treats
// specially (zero, negative, at and past 2^31-1, the int64 extremes), a
// long mixed sequence of Float64, Uint64 and Intn draws — Intn on powers
// of two (the mask path) and on bounds whose rejection zone is large —
// must match rand.New(rand.NewSource(seed)) value for value.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -7919, int32max, int32max + 1, 3*int32max + 5, math.MaxInt64, math.MinInt64}
	bounds := []int{1, 2, 4, 64, 1 << 30, 3, 5, 60, 1<<30 + 1, 3 << 29, int32max}
	const draws = 1_200_000
	total := 0
	for _, seed := range seeds {
		var src rngSource
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed ^ 0x5eed)) // chooses the draw kind
		n := draws / len(seeds)
		for i := 0; i < n; i++ {
			switch k := pick.Intn(3); k {
			case 0:
				if got, want := src.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, got, want)
				}
			case 1:
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, got, want)
				}
			default:
				b := bounds[pick.Intn(len(bounds))]
				if got, want := src.Intn(b), ref.Intn(b); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, b, got, want)
				}
			}
		}
		total += n
	}
	if total < 1_000_000 {
		t.Fatalf("only %d draws compared", total)
	}
}

// TestRNGIntnRejectsBadBounds: Intn panics outside (0, 1<<31-1], as
// math/rand does for n <= 0, rather than leave the Int31n path.
func TestRNGIntnRejectsBadBounds(t *testing.T) {
	for _, n := range []int{0, -1, int32max + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			var src rngSource
			src.Seed(1)
			src.Intn(n)
		}()
	}
}
