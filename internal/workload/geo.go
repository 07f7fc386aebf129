package workload

import "math"

// Geometric draws by table inversion. Geom(p), the number of failures
// before the first success, has the closed form k = ⌊log(1-u)/log(1-p)⌋
// for a uniform draw u. In exact arithmetic k is the largest j with
// 1-u ≤ q^j, q = 1-p, so comparing 1-u against the thresholds q^j finds
// the same k without a logarithm.
//
// The closed form is evaluated in floating point and the thresholds are
// rounded, so the two can disagree when 1-u lies within a few ulps of a
// threshold. Each threshold therefore carries a relative guard band of
// geoGuard — about 10⁶ times the combined error of Log, Exp and the
// division. A draw inside a band, or beyond the last threshold, falls
// back to the closed form itself, which stays the reference: the table
// never changes a drawn value (TestGeometricHoistExact).

const (
	// geoTableLen is the number of thresholds q^1 … q^geoTableLen.
	geoTableLen = 64
	// geoGuard is the relative half-width of each threshold's guard band.
	geoGuard = 1e-9

	// The search for k starts from a bucket of 1-u: its binade and top
	// four mantissa bits, i.e. its bit pattern shifted right by
	// geoBucketShift. 1-u for a Float64 draw u lies in [2^-53, 1], so the
	// buckets run from 2^-53's to 1.0's.
	geoBucketShift = 52 - 4
	geoBucketBase  = (1023 - 53) << 4
	geoBuckets     = 53<<4 + 1
)

// geoTable holds the thresholds for one parameter p. lo[j] and hi[j]
// bracket q^j: lo[j] = q^j·(1-geoGuard), hi[j] = q^j·(1+geoGuard). lo[0]
// is +Inf, since q^0 = 1 bounds every 1-u exactly; hi[0] is unused.
// start[b] is the largest j whose threshold is at or above every value in
// bucket b, where the search for a draw in that bucket begins.
type geoTable struct {
	lnQ   float64 // log(1-p), the closed form's divisor
	lo    [geoTableLen + 1]float64
	hi    [geoTableLen + 1]float64
	start [geoBuckets]uint8
}

func newGeoTable(p float64) geoTable {
	t := geoTable{lnQ: math.Log(1 - p)}
	q := [geoTableLen + 1]float64{0: 1}
	t.lo[0] = math.Inf(1)
	for j := 1; j <= geoTableLen; j++ {
		q[j] = math.Exp(float64(j) * t.lnQ)
		t.lo[j], t.hi[j] = q[j]*(1-geoGuard), q[j]*(1+geoGuard)
	}
	j := 0
	for b := len(t.start) - 1; b >= 0; b-- {
		top := math.Float64frombits(uint64(geoBucketBase+b+1) << geoBucketShift)
		for j < geoTableLen && q[j+1] >= top {
			j++
		}
		t.start[b] = uint8(j)
	}
	return t
}

// draw returns Geom(p) for the uniform draw u in [0, 1): exactly the
// closed form int(math.Log(1-u)/t.lnQ). The table answers k only when
// 1-u is clear of the guard bands on both sides, q^(k+1) < 1-u < q^k;
// start only decides where the search begins.
func (t *geoTable) draw(u float64) int {
	v := 1 - u
	if b := math.Float64bits(v)>>geoBucketShift - geoBucketBase; b < geoBuckets {
		for k := int(t.start[b]); k < geoTableLen; k++ {
			if v > t.hi[k+1] {
				if v < t.lo[k] {
					return k
				}
				break
			}
			if v >= t.lo[k+1] {
				break // too close to q^(k+1) to call
			}
		}
	}
	return int(math.Log(1-u) / t.lnQ)
}
