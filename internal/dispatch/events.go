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
	// EvLocalFallback is a job (or an empty fleet's whole batch) run
	// locally because no backend served it.
	EvLocalFallback
	// EvBackpressure is a 429 from a healthy backend whose Retry-After
	// hint replaced the jittered backoff for the next attempt. It is not a
	// backend failure: an overloaded queue is load, not failure.
	EvBackpressure

	// NumEventKinds bounds the enumeration.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"request",
	"cache-hit",
	"retry",
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
}
