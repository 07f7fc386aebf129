// Package dispatch is the sweep coordinator: it fans a batch of
// simulation configurations out over a fleet of loosimd backends through
// the serve HTTP JSON API and merges the results back in input order with
// the same first-error-by-position semantics as loosesim.RunAllContext.
//
// Shard assignment is by the canonical content address of each
// configuration (serve.ConfigKey), consistent-hashed across the backends,
// so repeated sweeps send the same point to the same node and concentrate
// that node's content-addressed cache hits. A job gets past a backend
// that does not answer in one way: it retries. Attempt k goes to the k-th
// distinct backend clockwise from the job's key on the ring, after a
// capped, jittered exponential backoff (or the backend's Retry-After
// hint), with a bounded in-flight window per backend; a job that runs out
// of attempts degrades to local simulation, so a sweep never fails merely
// because its fleet did. Every result is the output of the same
// deterministic pipeline regardless of where (or how many times) it ran,
// which is what makes retries and fallback safe.
//
// The package keeps the simulator's determinism contract: it never reads
// the wall clock (timers are injected via Options.After) and never touches
// the global math/rand state (jitter is injected via Options.Jitter, with
// a seeded locked source as the default).
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
	"loosesim/internal/serve"
	"loosesim/internal/snap"
	"loosesim/internal/trace"
)

// DefaultInFlight is the per-backend window when Options.InFlight is not
// set.
const DefaultInFlight = 4

// The retry schedule: a job makes at most attempts submissions across the
// fleet before it runs locally, and the wait before retry n is
// min(backoffBase << n, backoffCap), scaled by the jitter source.
const (
	attempts    = 4
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// Options configure a Coordinator.
type Options struct {
	// Backends are the loosimd base URLs the sweep is sharded over. An
	// empty list is legal: every batch runs through Local.
	Backends []string
	// Client issues the HTTP requests; nil selects a fresh http.Client.
	// Tests inject fault-wrapped transports here.
	Client *http.Client
	// InFlight bounds concurrent requests per backend; <= 0 selects
	// DefaultInFlight.
	InFlight int
	// Jitter returns a value in [0, 1) used to decorrelate concurrent
	// retry schedules; nil selects a seeded locked source. It must be
	// safe for concurrent use.
	Jitter func() float64
	// After is the timer source for backoff; nil selects time.After.
	// Tests inject a fake clock here.
	After func(time.Duration) <-chan time.Time
	// Tracer, when non-nil, records one trace per job: a root span plus
	// children for every attempt, backoff wait, and local fallback, with
	// the trace propagated to backends via the Traceparent header. Nil
	// (the default) disables tracing at the cost of one pointer compare
	// per stage.
	Tracer *trace.Tracer
	// NoCache asks the backends to bypass their result caches.
	NoCache bool
	// Local, when non-nil, replaces loosesim.RunAllContext as the batch
	// engine of an empty fleet. It must honour the same contract: results
	// in input order, first error aborts.
	Local func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)
}

// backend is one fleet member's live state.
type backend struct {
	url string
	sem chan struct{} // in-flight window

	inFlight atomic.Int64
	requests atomic.Uint64
	failures atomic.Uint64
}

// Coordinator fans sweep batches out over the fleet. Create with New;
// release its idle connections with Close. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts   Options
	client *http.Client
	ring   *ring

	backends []*backend
	localSem chan struct{} // bounds machines live during local fallback

	tracer *trace.Tracer
	counts [NumEventKinds]atomic.Uint64

	jitter func() float64
	after  func(time.Duration) <-chan time.Time
	local  func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)
}

// New returns a coordinator for the fleet; it starts no goroutines.
func New(opts Options) (*Coordinator, error) {
	if opts.InFlight <= 0 {
		opts.InFlight = DefaultInFlight
	}
	c := &Coordinator{
		opts:     opts,
		client:   opts.Client,
		tracer:   opts.Tracer,
		jitter:   opts.Jitter,
		after:    opts.After,
		local:    opts.Local,
		localSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.jitter == nil {
		c.jitter = defaultJitter()
	}
	if c.after == nil {
		c.after = time.After
	}
	if c.local == nil {
		c.local = loosesim.RunAllContext
	}
	urls := make([]string, len(opts.Backends))
	for i, u := range opts.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("dispatch: backend %d: empty URL", i)
		}
		urls[i] = u
	}
	c.ring = newRing(urls)
	c.backends = make([]*backend, len(urls))
	for i, u := range urls {
		c.backends[i] = &backend{url: u, sem: make(chan struct{}, opts.InFlight)}
	}
	return c, nil
}

// Close releases the client's idle connections. In-flight RunAll calls
// are unaffected (cancel their contexts to abort them).
func (c *Coordinator) Close() {
	c.client.CloseIdleConnections()
}

// defaultJitter returns the default jitter source: a seeded rand.Rand
// behind a mutex. The seed is fixed — jitter decorrelates concurrent
// retries within a run; it does not need to vary across runs, and a fixed
// seed keeps the schedule reproducible under an injected clock.
func defaultJitter() func() float64 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(1))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}

// backoff returns the delay before the retry that follows failed attempt
// `attempt` (0-based): backoffBase << attempt capped at backoffCap, scaled
// into [0.5, 1.0) of itself by the jitter value so concurrent retries
// spread out without ever collapsing to zero.
func backoff(attempt int, jitter float64) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := backoffCap
	if attempt < 40 { // beyond 40 doublings any sane base has saturated
		if shifted := backoffBase << uint(attempt); shifted > 0 && shifted < backoffCap {
			d = shifted
		}
	}
	return time.Duration(float64(d) * (0.5 + 0.5*jitter))
}

// emit counts one lifecycle event. This is the coordinator's only
// per-event code (a simlint hot-path root), so it stays one atomic add.
func (c *Coordinator) emit(kind EventKind) {
	c.counts[kind].Add(1)
}

// Metrics snapshots the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	var m Metrics
	m.Requests = c.counts[EvRequest].Load()
	m.CacheHits = c.counts[EvCacheHit].Load()
	m.Retries = c.counts[EvRetry].Load()
	m.LocalFallbacks = c.counts[EvLocalFallback].Load()
	m.Backpressure = c.counts[EvBackpressure].Load()
	if m.Requests > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(m.Requests)
	}
	m.Backends = make([]BackendMetrics, len(c.backends))
	for i, bk := range c.backends {
		m.Backends[i] = BackendMetrics{
			URL:      bk.url,
			InFlight: bk.inFlight.Load(),
			Requests: bk.requests.Load(),
			Failures: bk.failures.Load(),
		}
	}
	return m
}

// RunAll executes the batch over the fleet and returns results in input
// order; a successful batch has every result non-nil. The contract
// matches loosesim.RunAllContext: every configuration is validated before
// anything runs, and the batch reports the first error in input order.
// Fleet trouble is not an error — jobs that exhaust their attempts
// degrade to local simulation — so errors surface only from the
// simulations themselves or from ctx. An empty fleet runs the batch
// through Options.Local.
func (c *Coordinator) RunAll(ctx context.Context, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	if len(c.backends) == 0 {
		c.emit(EvLocalFallback)
		return c.local(ctx, cfgs)
	}
	keys := make([]string, len(cfgs))
	for i := range cfgs {
		key, err := serve.ConfigKey(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		keys[i] = key
	}
	results := make([]*pipeline.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.runJob(ctx, keys[i], point{cfg: cfgs[i]})
			if err != nil {
				errs[i] = fmt.Errorf("config %d: %w", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunSampled runs one configuration as a SMARTS-style sampled simulation
// over the fleet: the functional-warming chain runs coordinator-side (one
// cheap pass), each measurement window is dispatched as a checkpoint job
// sharded by the checkpoint's content address as soon as the chain has
// taken its checkpoint, and the per-window results merge back into a
// whole-run estimate in window order. Window jobs ride the same
// retry/fallback path as sweep points, so a sampled run
// survives the same fleet failures a batch does, with bit-identical
// results by the determinism contract. Every window job started has
// finished when RunSampled returns, a chain error included.
func (c *Coordinator) RunSampled(ctx context.Context, cfg pipeline.Config, o sample.Options) (*sample.Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wcfg := sample.WindowConfig(cfg, o)
	wkey, err := serve.ConfigKey(wcfg)
	if err != nil {
		return nil, err
	}
	results := make([]*pipeline.Result, o.Windows)
	errs := make([]error, o.Windows)
	var wg sync.WaitGroup
	err = sample.EachCheckpoint(cfg, o, func(i int, ckpt []byte) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The shard key mirrors the backend's cache key for a
			// checkpoint job: checkpoint digest prefix + window config
			// key, so repeat runs of the same window hit the same node's
			// cache.
			key := snap.Digest(ckpt)[:16] + wkey
			res, err := c.runJob(ctx, key, point{cfg: wcfg, ckpt: ckpt})
			if err != nil {
				errs[i] = fmt.Errorf("window %d: %w", i, err)
				return
			}
			results[i] = res
		}()
		return nil
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sample.Merge(results, o, cfg.MeasureInstructions)
}

// Runner adapts the coordinator to experiments.Options.Runner, so a
// figure regenerates through the fleet.
func (c *Coordinator) Runner(ctx context.Context) func([]pipeline.Config) ([]*pipeline.Result, error) {
	return func(cfgs []pipeline.Config) ([]*pipeline.Result, error) {
		return c.RunAll(ctx, cfgs)
	}
}

// point is one unit of dispatched work: a configuration, optionally
// started from a sealed machine checkpoint (a sampled-simulation window).
type point struct {
	cfg  pipeline.Config
	ckpt []byte
}

// simError is a job failure reported by a healthy backend: the simulation
// itself failed (e.g. a cycle budget expired), so retrying elsewhere —
// the pipeline being deterministic — would fail identically. It is
// permanent.
type simError struct{ msg string }

func (e *simError) Error() string { return e.msg }

// backpressureError is a 429 from a backend shedding load: the backend is
// healthy but refusing work, and its Retry-After header tells the
// coordinator when to come back. It replaces the jittered backoff for the
// next attempt and is not counted as a backend failure.
type backpressureError struct {
	after time.Duration
	msg   string
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("dispatch: backend backpressure (retry after %s): %s", e.after, e.msg)
}

// runJob drives one configuration to a result: attempt k goes to the k-th
// distinct backend clockwise from key on the ring, a failed attempt waits
// out a jittered backoff before the next, and a job out of attempts runs
// locally. When tracing is on, the whole journey hangs off one root span
// whose trace ID is a pure function of the job key, and every stage —
// attempt, backoff wait, local fallback — is a child, so a slow sweep
// decomposes into stage delays exactly like an IPC loss decomposes into
// loop delays.
func (c *Coordinator) runJob(ctx context.Context, key string, pt point) (*pipeline.Result, error) {
	root := c.tracer.Root(key, "job")
	defer root.End() // idempotent safety net: no path may leak the root
	// A point that cannot be encoded cannot go to any backend: it skips
	// the fleet and runs locally.
	body, encErr := json.Marshal(serve.JobSpec{Config: &pt.cfg, Checkpoint: pt.ckpt, NoCache: c.opts.NoCache})
	for attempt := 0; encErr == nil && attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			root.SetStatus("cancelled")
			return nil, err
		}
		b := c.ring.owner(key, attempt)
		if b < 0 {
			break // an empty fleet: nothing to ask
		}
		res, err := c.post(ctx, b, body, root)
		if err == nil {
			root.SetStatus("ok")
			return res, nil
		}
		var sim *simError
		if errors.As(err, &sim) {
			root.SetError(sim)
			return nil, sim
		}
		if cerr := ctx.Err(); cerr != nil {
			root.SetStatus("cancelled")
			return nil, cerr
		}
		// A backend under backpressure told us exactly when to come back;
		// honor its Retry-After (capped at backoffCap) instead of the
		// jittered schedule. Anything else is the backend's failure.
		var delay time.Duration
		var bp *backpressureError
		if errors.As(err, &bp) {
			c.emit(EvBackpressure)
			delay = min(bp.after, backoffCap)
		} else {
			c.backends[b].failures.Add(1)
			c.emit(EvRetry)
			delay = backoff(attempt, c.jitter())
		}
		bsp := root.Child("backoff")
		select {
		case <-ctx.Done():
			bsp.SetStatus("cancelled")
			bsp.End()
			root.SetStatus("cancelled")
			return nil, ctx.Err()
		case <-c.after(delay):
			bsp.End()
		}
	}
	// Every attempt failed (or there is no fleet): run the point locally.
	// The result is bit-identical to a fleet run by the determinism
	// contract, so the sweep's output does not depend on which path
	// served it.
	c.emit(EvLocalFallback)
	lsp := root.Child("local")
	res, err := c.runLocal(ctx, pt)
	lsp.SetError(err)
	if err == nil {
		lsp.SetWinner()
	}
	lsp.End()
	root.SetError(err)
	return res, err
}

// runLocal simulates one configuration on this host, bounded so a fleet
// outage cannot construct more live machines than GOMAXPROCS.
func (c *Coordinator) runLocal(ctx context.Context, pt point) (*pipeline.Result, error) {
	select {
	case c.localSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.localSem }()
	if pt.ckpt != nil {
		m, err := pipeline.Restore(pt.cfg, pt.ckpt)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx)
	}
	return loosesim.RunContext(ctx, pt.cfg)
}

// post submits one attempt's encoded JobSpec to backend b under its
// in-flight window and maps the response to a result, a permanent
// simError, a backpressureError, or a transient backend failure. Its
// "post" span under root records the shard assignment (Target) and the
// outcome, and is the winner when the job uses its response; the backend
// continues the trace from the propagated Traceparent header.
func (c *Coordinator) post(ctx context.Context, b int, body []byte, root *trace.ActiveSpan) (res *pipeline.Result, err error) {
	bk := c.backends[b]
	sp := root.Child("post")
	// The target is the ring ordinal, not the URL: shard assignment is a
	// pure function of the key, so the ordinal keeps span streams
	// byte-identical across runs even when test fleets sit on ephemeral
	// loopback ports. Metrics maps ordinals back to URLs.
	sp.SetTarget(backendName(b))
	defer func() {
		sp.SetError(err)
		if err == nil {
			sp.SetWinner()
		}
		sp.End()
	}()
	select {
	case bk.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-bk.sem }()
	bk.inFlight.Add(1)
	defer bk.inFlight.Add(-1)
	bk.requests.Add(1)
	c.emit(EvRequest)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, bk.url+"/api/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := trace.Format(sp.Context()); tp != "" {
		req.Header.Set(trace.TraceparentHeader, tp)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	st, err := decodeStatus(resp)
	if err != nil {
		return nil, err
	}
	switch st.State {
	case serve.StateDone:
		if st.Result == nil {
			return nil, fmt.Errorf("dispatch: backend %s: done with no result", bk.url)
		}
		if st.Cached {
			c.emit(EvCacheHit)
			sp.SetDetail("cache-hit")
		}
		return st.Result, nil
	case serve.StateFailed:
		// The backend is healthy; the simulation failed.
		return nil, &simError{msg: st.Error}
	default:
		// Cancelled (a draining backend) or an unexpected state: try
		// elsewhere.
		return nil, fmt.Errorf("dispatch: backend %s: job state %q: %s", bk.url, st.State, st.Error)
	}
}

// decodeStatus reads and closes one submission response. A truncated or
// malformed body is an error — the caller treats it as a transient
// backend failure.
func decodeStatus(resp *http.Response) (serve.Status, error) {
	var st serve.Status
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return st, &backpressureError{
			after: parseRetryAfter(resp.Header.Get("Retry-After")),
			msg:   string(bytes.TrimSpace(msg)),
		}
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return st, fmt.Errorf("dispatch: backend status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("dispatch: decoding backend response: %w", err)
	}
	return st, nil
}

// parseRetryAfter decodes a Retry-After header's delay-seconds form. The
// HTTP-date form and garbage both fall back to one second — a missing or
// unparseable hint should still slow the client down, just minimally.
func parseRetryAfter(h string) time.Duration {
	if n, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && n >= 0 {
		return time.Duration(n) * time.Second
	}
	return time.Second
}

// backendName is the stable span-target name for ring ordinal b.
func backendName(b int) string {
	return "backend-" + strconv.Itoa(b)
}
