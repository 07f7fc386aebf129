package obs

import (
	"fmt"

	"loosesim/internal/stats"
)

// LoopDelays aggregates the event stream into per-loop delay histograms:
// for each loop it tracks the traversal count, the delay distribution
// (mean, quantiles), and the total cycles lost. It implements EventSink,
// so it can hang directly off the machine or be fed from a decoded JSONL
// file (cmd/loostrace does the latter).
type LoopDelays struct {
	hists [NumEventKinds]*stats.Histogram
	lost  [NumEventKinds]uint64
}

// DefaultDelayBound is the histogram bound used when NewLoopDelays is
// given a non-positive bound. It covers the machine's longest single
// recovery (main-memory latency plus TLB refill plus slack); rarer, longer
// delays land in the overflow bucket, which Quantile handles.
const DefaultDelayBound = 512

// NewLoopDelays returns an empty aggregator with unit-cycle buckets up to
// bound (bound <= 0 selects DefaultDelayBound).
func NewLoopDelays(bound int) *LoopDelays {
	if bound <= 0 {
		bound = DefaultDelayBound
	}
	l := &LoopDelays{}
	for i := range l.hists {
		l.hists[i] = stats.NewHistogram(bound)
	}
	return l
}

// Event records one traversal. Unknown kinds (from a newer stream) are
// dropped rather than misfiled.
func (l *LoopDelays) Event(e Event) {
	if int(e.Kind) >= len(l.hists) {
		return
	}
	l.hists[e.Kind].Add(int(e.Delay))
	if e.Delay > 0 {
		l.lost[e.Kind] += uint64(e.Delay)
	}
}

// Count returns the number of traversals recorded for the loop.
func (l *LoopDelays) Count(k EventKind) uint64 { return l.hists[k].Count() }

// MeanDelay returns the mean traversal delay for the loop.
func (l *LoopDelays) MeanDelay(k EventKind) float64 { return l.hists[k].Mean() }

// P99 returns the 99th-percentile traversal delay for the loop.
func (l *LoopDelays) P99(k EventKind) int { return l.hists[k].Quantile(0.99) }

// CyclesLost returns the summed delays of the loop's traversals — the
// paper's first-order cost of a loose loop.
func (l *LoopDelays) CyclesLost(k EventKind) uint64 { return l.lost[k] }

// Histogram exposes the loop's full delay distribution.
func (l *LoopDelays) Histogram(k EventKind) *stats.Histogram { return l.hists[k] }

// Total returns the number of traversals recorded across all loops.
func (l *LoopDelays) Total() uint64 {
	var n uint64
	for k := EventKind(0); k < NumEventKinds; k++ {
		n += l.Count(k)
	}
	return n
}

// Table renders the per-loop summary — count, mean and p99 delay, cycles
// lost — skipping loops that never fired.
func (l *LoopDelays) Table() *stats.Table {
	t := &stats.Table{}
	t.AddRow("loop", "events", "mean-delay", "p99-delay", "cycles-lost")
	for k := EventKind(0); k < NumEventKinds; k++ {
		n := l.Count(k)
		if n == 0 {
			continue
		}
		t.AddRow(k.String(),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", l.MeanDelay(k)),
			fmt.Sprintf("%d", l.P99(k)),
			fmt.Sprintf("%d", l.CyclesLost(k)))
	}
	return t
}
