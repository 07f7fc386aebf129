package dispatch

import "fmt"

// EventKind names one coordinator lifecycle event and indexes its counter:
// every emitted event increments its kind's counter, and Metrics reads the
// counters back out. Trace spans record the events themselves.
type EventKind uint8

// The coordinator's lifecycle events.
const (
	// EvRequest is one submission attempt against a backend.
	EvRequest EventKind = iota
	// EvCacheHit is a backend response served from its content-addressed
	// result cache.
	EvCacheHit
	// EvRetry is a transient backend failure that scheduled a backoff
	// retry.
	EvRetry
	// EvHedge is a hedged duplicate launched against a second backend
	// after the hedge delay expired with the primary still in flight.
	EvHedge
	// EvHedgeWon is a hedged duplicate that returned first.
	EvHedgeWon
	// EvEject is a backend removed from the ring after consecutive
	// failures.
	EvEject
	// EvReadmit is an ejected backend restored to the ring by a
	// successful response or health probe.
	EvReadmit
	// EvLocalFallback is a job degraded to local simulation because no
	// backend could serve it.
	EvLocalFallback
	// EvBackpressure is a 429 from a healthy backend whose Retry-After
	// hint replaced the jittered backoff for the next attempt. It does not
	// count toward ejection: an overloaded queue is load, not failure.
	EvBackpressure

	// NumEventKinds bounds the enumeration.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"request",
	"cache-hit",
	"retry",
	"hedge",
	"hedge-won",
	"eject",
	"readmit",
	"local-fallback",
	"backpressure",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("dispatch-event(%d)", int(k))
}

// Metrics is a snapshot of the coordinator's counters.
type Metrics struct {
	Requests       uint64 `json:"requests"`
	CacheHits      uint64 `json:"cache_hits"`
	Retries        uint64 `json:"retries"`
	Hedges         uint64 `json:"hedges"`
	HedgesWon      uint64 `json:"hedges_won"`
	Ejections      uint64 `json:"ejections"`
	Readmissions   uint64 `json:"readmissions"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	Backpressure   uint64 `json:"backpressure"`
	// CacheHitRate is CacheHits over completed backend requests.
	CacheHitRate float64 `json:"cache_hit_rate"`

	Backends []BackendMetrics `json:"backends"`
}

// BackendMetrics is one backend's live view.
type BackendMetrics struct {
	URL      string `json:"url"`
	InFlight int64  `json:"in_flight"`
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	Down     bool   `json:"down"`
}
