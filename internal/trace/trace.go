// Package trace is the serving stack's distributed-tracing layer: a
// deterministic span model that decomposes a sweep job's end-to-end
// latency into its stages — coordinator attempt, backoff wait, hedge,
// backend queue wait, cache lookup, simulation run — the same way the
// simulator decomposes IPC loss into per-loop delay contributions.
//
// Determinism is the design center, mirroring the rest of internal/:
//
//   - Trace IDs are a pure function of (tracer seed, job content key,
//     per-key occurrence count), so the same sweep produces the same
//     trace IDs on every run regardless of goroutine scheduling.
//   - Span IDs encode the tree path (each child's ID is its parent's ID
//     shifted by one base-256 digit plus the child index), so two
//     processes extending the same trace — the coordinator and the
//     backend a request landed on — can allocate IDs independently
//     without ever colliding, and the (trace, span) pair is a total
//     order the exporter can sort into a canonical stream.
//   - Timestamps come only from an injected clock (Options.Now), never
//     the wall clock, keeping the package clean under simlint's noclock
//     analyzer. A nil clock records zero timestamps: the span structure
//     stays byte-identical across runs, which is what the dispatch
//     package's fleet trace golden and the propagation tests pin.
//
// A nil *Tracer (tracing off) is free: every method is a nil-receiver
// no-op, so instrumented code pays one pointer compare per site and
// allocates nothing.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one finished stage of a trace, as written to the JSONL stream.
// Spans carry no process-local identifiers (job IDs, goroutine order):
// everything in a span is a deterministic function of the work it
// describes, so streams from repeated runs are byte-comparable.
type Span struct {
	// Trace identifies the job this span belongs to: 32 hex characters,
	// shared by every span of the job across coordinator and backends.
	Trace string `json:"trace"`
	// Span is the span's ID, unique within its trace. The root is 1;
	// a child's ID is parent*256 + index, encoding the tree path.
	Span uint64 `json:"span"`
	// Parent is the parent span's ID; 0 marks a root.
	Parent uint64 `json:"parent,omitempty"`
	// Name is the stage: "job", "post", "hedge", "backoff", "local",
	// "probe" on the coordinator; "serve", "cache", "queue", "run" on a
	// backend.
	Name string `json:"name"`
	// Key is the job's content address (serve.ConfigKey), set on roots.
	Key string `json:"key,omitempty"`
	// Target names what the stage acted on (a backend URL), when any.
	Target string `json:"target,omitempty"`
	// Status is the stage's outcome: "ok", "error", "hit", "miss", a
	// terminal job state, or "" when the stage has no outcome.
	Status string `json:"status,omitempty"`
	// Detail carries the error message or outcome annotation, if any.
	Detail string `json:"detail,omitempty"`
	// Winner marks the attempt whose response the job actually used —
	// the survivor of a retry chain or a hedge race.
	Winner bool `json:"winner,omitempty"`
	// Start and End are injected-clock timestamps in nanoseconds; zero
	// when the tracer has no clock.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Duration is the span's measured length, zero under a nil clock.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// SpanSink receives finished spans. Implementations must be safe for
// concurrent use: spans finish on whatever goroutine ran the stage.
type SpanSink interface {
	Span(Span)
}

// SpanContext is the propagated slice of a trace: enough for a remote
// process to continue it. The zero value means "no trace".
type SpanContext struct {
	Trace string
	Span  uint64
}

// TraceparentHeader is the HTTP header the coordinator sets and the
// backend reads, carrying a SpanContext in W3C traceparent layout.
const TraceparentHeader = "Traceparent"

// Format renders sc as a traceparent header value
// ("00-<trace>-<span>-01"), or "" for the zero context.
func Format(sc SpanContext) string {
	if sc.Trace == "" {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", sc.Trace, sc.Span)
}

// Parse inverts Format. It reports false for an empty, malformed, or
// foreign-version header — the server then simply starts its own trace.
func Parse(s string) (SpanContext, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	if _, err := hex.DecodeString(parts[1]); err != nil {
		return SpanContext{}, false
	}
	span, err := hex.DecodeString(parts[2])
	if err != nil {
		return SpanContext{}, false
	}
	id := binary.BigEndian.Uint64(span)
	if id == 0 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: parts[1], Span: id}, true
}

// Options configure a Tracer.
type Options struct {
	// Seed feeds trace-ID derivation; two tracers with the same seed
	// assign the same trace IDs to the same job keys.
	Seed int64
	// Now is the injected clock for span timestamps; nil records zeros,
	// keeping the span stream fully deterministic. Commands inject
	// time.Now; internal packages never read the clock themselves.
	Now func() time.Time
	// Sink receives finished spans; a nil sink makes New return a nil
	// tracer (tracing off).
	Sink SpanSink
}

// Tracer mints spans. A nil *Tracer is the off state: all methods are
// nil-receiver no-ops, so call sites need no separate enabled flag.
// Create with New; safe for concurrent use.
type Tracer struct {
	seed int64
	now  func() time.Time
	sink SpanSink

	open atomic.Int64

	mu  sync.Mutex
	occ map[string]uint64 // per-key trace occurrence counts
}

// New returns a tracer over opts.Sink, or nil (tracing off) when the
// sink is nil.
func New(opts Options) *Tracer {
	if opts.Sink == nil {
		return nil
	}
	return &Tracer{
		seed: opts.Seed,
		now:  opts.Now,
		sink: opts.Sink,
		occ:  make(map[string]uint64),
	}
}

// Open reports the number of started-but-unfinished spans; tests use it
// to assert that every terminal path closes what it opened.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// nowNS reads the injected clock, zero when there is none.
func (t *Tracer) nowNS() int64 {
	if t.now == nil {
		return 0
	}
	// simlint:ignore ifacedispatch injected-clock seam (noclock bans time.Now here)
	return t.now().UnixNano()
}

// traceID derives a trace's 32-hex-character ID from the tracer seed,
// the job key, and how many traces this key already started — pure
// inputs, so scheduling cannot perturb it.
func traceID(seed int64, key string, occurrence uint64) string {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(key))
	binary.BigEndian.PutUint64(b[:], occurrence)
	_, _ = h.Write(b[:])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// maxChildIndex caps one span's distinguishable children. Index
// assignment saturates there: a 256th child would reuse the ID, which
// degrades uniqueness but never breaks the encoding — and no stage in
// the serving stack approaches it (attempts are bounded by
// Options.Attempts, backend stages by the job lifecycle).
const maxChildIndex = 255

// childID extends a parent's tree-path ID by one digit.
func childID(parent uint64, index int) uint64 {
	if index > maxChildIndex {
		index = maxChildIndex
	}
	return parent*(maxChildIndex+1) + uint64(index)
}

// Root starts a new trace for the job addressed by key and returns its
// root span. The root's ID is always 1.
func (t *Tracer) Root(key, name string) *ActiveSpan {
	if t == nil || t.sink == nil {
		return nil
	}
	t.mu.Lock()
	occ := t.occ[key]
	t.occ[key] = occ + 1
	t.mu.Unlock()
	t.open.Add(1)
	a := &ActiveSpan{t: t}
	a.s = Span{
		Trace: traceID(t.seed, key, occ),
		Span:  1,
		Name:  name,
		Key:   key,
		Start: t.nowNS(),
	}
	return a
}

// Continue extends a propagated trace with this process's first span
// (child 1 of the propagated parent). A zero context returns nil: an
// untraced request stays untraced.
func (t *Tracer) Continue(sc SpanContext, name string) *ActiveSpan {
	if t == nil || t.sink == nil || sc.Trace == "" {
		return nil
	}
	t.open.Add(1)
	a := &ActiveSpan{t: t}
	a.s = Span{
		Trace:  sc.Trace,
		Span:   childID(sc.Span, 1),
		Parent: sc.Span,
		Name:   name,
		Start:  t.nowNS(),
	}
	return a
}

// ActiveSpan is a started span. All methods are safe for concurrent use
// and are no-ops on a nil receiver or after End, so instrumentation
// never needs to branch on whether tracing is enabled.
type ActiveSpan struct {
	t *Tracer

	mu     sync.Mutex
	s      Span
	nchild int
	ended  bool
}

// Child starts a sub-span. Child indices are assigned in call order, so
// deterministic call sequences yield deterministic IDs.
func (a *ActiveSpan) Child(name string) *ActiveSpan {
	if a == nil {
		return nil
	}
	t := a.t
	if t.sink == nil {
		return nil
	}
	a.mu.Lock()
	a.nchild++
	idx := a.nchild
	trace, parent := a.s.Trace, a.s.Span
	a.mu.Unlock()
	t.open.Add(1)
	c := &ActiveSpan{t: t}
	c.s = Span{
		Trace:  trace,
		Span:   childID(parent, idx),
		Parent: parent,
		Name:   name,
		Start:  t.nowNS(),
	}
	return c
}

// Context returns the span's propagation slice for the traceparent
// header; zero on a nil span.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return SpanContext{Trace: a.s.Trace, Span: a.s.Span}
}

// SetTarget records what the stage acted on; dropped after End.
func (a *ActiveSpan) SetTarget(target string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Target = target
	}
	a.mu.Unlock()
}

// SetStatus records the stage outcome; dropped after End.
func (a *ActiveSpan) SetStatus(status string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Status = status
	}
	a.mu.Unlock()
}

// SetDetail records an outcome annotation; dropped after End.
func (a *ActiveSpan) SetDetail(detail string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Detail = detail
	}
	a.mu.Unlock()
}

// SetError records status "error" with the message as detail, or status
// "ok" for a nil error; dropped after End.
func (a *ActiveSpan) SetError(err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		if err != nil {
			a.s.Status = "error"
			a.s.Detail = err.Error()
		} else {
			a.s.Status = "ok"
		}
	}
	a.mu.Unlock()
}

// SetWinner marks the span as the attempt whose result the job used;
// dropped after End.
func (a *ActiveSpan) SetWinner() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		a.s.Winner = true
	}
	a.mu.Unlock()
}

// End finishes the span and delivers it to the sink. End is idempotent:
// the first call wins, so a safety-net deferred End after an explicit
// one is harmless. This is the trace layer's per-event emit path (a
// simlint hot-path root): one mutex round, a struct copy, and a guarded
// interface call.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	s := a.s
	a.mu.Unlock()
	t := a.t
	s.End = t.nowNS()
	t.open.Add(-1)
	if t.sink == nil {
		return
	}
	t.sink.Span(s)
}
