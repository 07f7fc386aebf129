// Package stats provides the measurement plumbing shared by the simulator:
// scalar counters with rate helpers, bounded histograms, and cumulative
// distribution functions (used to regenerate the paper's Figure 6).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"loosesim/internal/snap"
)

// Histogram counts integer-valued samples in unit-width buckets up to a
// bound; samples at or beyond the bound accumulate in an overflow bucket.
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
	max      int
}

// NewHistogram returns a histogram covering values 0..bound-1 with an
// overflow bucket for values >= bound.
func NewHistogram(bound int) *Histogram {
	if bound < 1 {
		bound = 1
	}
	return &Histogram{buckets: make([]uint64, bound)}
}

// Add records one sample. Negative samples are clamped to zero.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += uint64(v)
	if v >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[v]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of the samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample recorded.
func (h *Histogram) Max() int { return h.max }

// Bucket returns the count of samples with value v (v within bounds).
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the count of samples at or beyond the histogram bound.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// CDF returns the cumulative distribution F(v) = P(sample <= v) evaluated at
// each integer 0..bound-1. With no samples it returns all zeros.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.buckets))
	if h.count == 0 {
		return out
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		out[i] = float64(cum) / float64(h.count)
	}
	return out
}

// Fraction returns P(sample <= v). Values beyond the bound report the
// fraction excluding only overflow samples above them, i.e. F(bound-1).
func (h *Histogram) Fraction(v int) float64 {
	if h.count == 0 {
		return 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	var cum uint64
	for i := 0; i <= v; i++ {
		cum += h.buckets[i]
	}
	return float64(cum) / float64(h.count)
}

// Percentile returns the smallest recorded sample value v with F(v) >= p.
// It is Quantile under its historical name; the two used to disagree —
// Percentile left p > 1 and NaN unclamped (uint64(NaN) is
// platform-defined) and reported the histogram bound, not Max(), when the
// rank landed in the overflow bucket. Both now share Quantile's
// definition.
func (h *Histogram) Percentile(p float64) int { return h.Quantile(p) }

// Quantile returns the smallest recorded sample value v with F(v) >= q.
// q is clamped to (0, 1]: q <= 0 and NaN mean rank 1, q > 1 (including
// +Inf) means rank count. A quantile landing in the overflow bucket
// reports Max(), the largest sample actually recorded, rather than the
// histogram bound — so p99 of a heavy-tailed delay distribution stays
// meaningful even when the tail outruns the buckets. With no samples it
// returns 0.
func (h *Histogram) Quantile(q float64) int {
	if h.count == 0 {
		return 0
	}
	// need is the 1-based rank of the sample being asked for. The clamp
	// handles NaN via the negated comparisons: NaN fails both q > 1 and
	// q > 0, landing on rank 1.
	need := uint64(1)
	switch {
	case q > 1:
		need = h.count
	case q > 0:
		need = uint64(math.Ceil(q * float64(h.count)))
		if need == 0 {
			need = 1
		}
		if need > h.count {
			need = h.count
		}
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= need {
			return i
		}
	}
	return h.max
}

// Merge folds o's samples into h. Buckets add elementwise; when o has a
// wider bound h grows to cover it, so merging is associative and
// commutative even across histograms constructed with different bounds
// (a sample that overflowed o stays overflow in h — Merge cannot know
// its true value, so overflow counts simply add). o is unmodified; a nil
// o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if len(o.buckets) > len(h.buckets) {
		grown := make([]uint64, len(o.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
	h.overflow += o.overflow
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// maxSnapBuckets bounds a decoded histogram's bucket count; the simulator
// never configures more than a few thousand unit-width buckets.
const maxSnapBuckets = 1 << 20

// Sync encodes or decodes the full histogram state (byte-stable; part of
// the machine checkpoint format). Decoding replaces the bucket range with
// the encoded one.
func (h *Histogram) Sync(c *snap.Codec) {
	n := c.Len(len(h.buckets), maxSnapBuckets)
	if c.Decoding() {
		h.buckets = make([]uint64, n)
	}
	for i := range h.buckets {
		c.U64(&h.buckets[i])
	}
	c.U64(&h.overflow)
	c.U64(&h.count)
	c.U64(&h.sum)
	c.Int(&h.max)
	if !c.Decoding() {
		return
	}
	// Add never records a negative max, and NewHistogram never builds an
	// empty bucket range; either means the bytes are corrupt.
	if h.max < 0 {
		c.Failf("histogram max %d negative", h.max)
		h.max = 0
	}
	if len(h.buckets) == 0 {
		c.Failf("histogram with no buckets")
		h.buckets = make([]uint64, 1)
	}
}

// histogramJSON is a Histogram's wire form: trailing zero buckets are
// trimmed on encode and restored on decode, with Bound preserving the
// configured bucket range so a round trip is lossless.
type histogramJSON struct {
	Bound    int      `json:"bound"`
	Buckets  []uint64 `json:"buckets"`
	Overflow uint64   `json:"overflow,omitempty"`
	Count    uint64   `json:"count"`
	Sum      uint64   `json:"sum"`
	Max      int      `json:"max"`
}

// MarshalJSON encodes the full histogram state; it exists so results that
// embed a Histogram (pipeline.Result.OperandGap) survive a JSON round
// trip, which the serve layer's content-addressed result cache relies on.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	buckets := h.buckets
	for len(buckets) > 0 && buckets[len(buckets)-1] == 0 {
		buckets = buckets[:len(buckets)-1]
	}
	return json.Marshal(histogramJSON{
		Bound:    len(h.buckets),
		Buckets:  buckets,
		Overflow: h.overflow,
		Count:    h.count,
		Sum:      h.sum,
		Max:      h.max,
	})
}

// UnmarshalJSON restores a histogram encoded by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	bound := w.Bound
	if bound < len(w.Buckets) {
		bound = len(w.Buckets)
	}
	if bound < 1 {
		bound = 1
	}
	h.buckets = make([]uint64, bound)
	copy(h.buckets, w.Buckets)
	h.overflow = w.Overflow
	h.count = w.Count
	h.sum = w.Sum
	h.max = w.Max
	return nil
}

// String renders a compact summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.2f max=%d overflow=%d}", h.count, h.Mean(), h.max, h.overflow)
}

// Speedup returns new/old as a ratio, guarding against a zero baseline.
func Speedup(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return improved / baseline
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped. Returns 0 for an empty input.
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table formats aligned rows for terminal output: the first row is treated
// as a header. It is used by the experiment harness to print figure data.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order; used for deterministic
// reporting of per-benchmark results.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
