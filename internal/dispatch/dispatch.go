// Package dispatch is the sweep coordinator: it fans a batch of
// simulation configurations out over a fleet of loosimd backends through
// the serve HTTP JSON API and merges the results back in input order with
// the same first-error-by-position semantics as loosesim.RunAllContext.
//
// Shard assignment is by the canonical content address of each
// configuration (serve.ConfigKey), consistent-hashed across the backends,
// so repeated sweeps send the same point to the same node and concentrate
// that node's content-addressed cache hits. The coordinator survives an
// unreliable fleet: bounded per-backend in-flight windows, capped
// exponential backoff with injected-source jitter, hedged requests for
// stragglers, health probing that ejects and readmits backends, and —
// when a job exhausts the fleet or no backend is admitted at all —
// graceful degradation to local simulation, so a sweep never fails merely
// because its fleet did. Every result is the output of the same
// deterministic pipeline regardless of where (or how many times) it ran,
// which is what makes retries, hedges, and fallback safe.
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

// Defaults for the zero Options values.
const (
	DefaultInFlight      = 4
	DefaultAttempts      = 4
	DefaultBackoffBase   = 50 * time.Millisecond
	DefaultBackoffCap    = 2 * time.Second
	DefaultProbeInterval = time.Second
	DefaultEjectAfter    = 3

	// probeTimeout bounds one /healthz exchange.
	probeTimeout = 2 * time.Second
)

// Options configure a Coordinator.
type Options struct {
	// Backends are the loosimd base URLs the sweep is sharded over. An
	// empty list is legal: every batch degrades to local simulation.
	Backends []string
	// Client issues the HTTP requests; nil selects a fresh http.Client.
	// Tests inject fault-wrapped transports here.
	Client *http.Client
	// InFlight bounds concurrent requests per backend; <= 0 selects
	// DefaultInFlight.
	InFlight int
	// Attempts is the maximum submission attempts per job across the
	// fleet before it degrades to local simulation; <= 0 selects
	// DefaultAttempts.
	Attempts int
	// BackoffBase and BackoffCap shape the retry schedule: the delay
	// before retry n is min(BackoffBase << n, BackoffCap), scaled by the
	// jitter source. <= 0 selects the defaults.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeDelay, when positive, launches a duplicate request on a
	// second backend if the primary has not answered within the delay;
	// the first response wins and the loser is cancelled.
	HedgeDelay time.Duration
	// ProbeInterval is the period of the background /healthz sweep that
	// ejects failing backends and readmits recovered ones; <= 0 selects
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// EjectAfter is the consecutive-failure count that ejects a backend
	// from the ring; <= 0 selects DefaultEjectAfter.
	EjectAfter int
	// Jitter returns a value in [0, 1) used to decorrelate concurrent
	// retry schedules; nil selects a seeded locked source. It must be
	// safe for concurrent use.
	Jitter func() float64
	// After is the timer source for backoff, hedging, and probing; nil
	// selects time.After. Tests inject a fake clock here.
	After func(time.Duration) <-chan time.Time
	// Events, when non-nil, receives one record per coordinator
	// lifecycle event, on top of the always-on counters behind Metrics.
	Events EventSink
	// Tracer, when non-nil, records one trace per job: a root span plus
	// children for every attempt, backoff wait, hedge, probe, and local
	// fallback, with the trace propagated to backends via the
	// Traceparent header. Nil (the default) disables tracing at the
	// cost of one pointer compare per stage.
	Tracer *trace.Tracer
	// NoCache asks the backends to bypass their result caches.
	NoCache bool
	// Local, when non-nil, replaces loosesim.RunAllContext as the batch
	// engine used when the whole fleet is unreachable at batch start. It
	// must honour the same contract: results in input order, first error
	// aborts.
	Local func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)
}

// backend is one fleet member's live state.
type backend struct {
	url string
	sem chan struct{} // in-flight window

	inFlight atomic.Int64
	requests atomic.Uint64
	failures atomic.Uint64
	fails    atomic.Int32 // consecutive failures, reset on success
	down     atomic.Bool
}

// Coordinator fans sweep batches out over the fleet. Create with New;
// stop the background health probing with Close. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts   Options
	client *http.Client
	ring   *ring

	backends []*backend
	localSem chan struct{} // bounds machines live during local fallback

	events EventSink
	tracer *trace.Tracer
	counts [NumEventKinds]atomic.Uint64

	jitter func() float64
	after  func(time.Duration) <-chan time.Time
	local  func(context.Context, []pipeline.Config) ([]*pipeline.Result, error)

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a coordinator; its health-probe loop is live on return when
// the fleet is non-empty.
func New(opts Options) (*Coordinator, error) {
	if opts.InFlight <= 0 {
		opts.InFlight = DefaultInFlight
	}
	if opts.Attempts <= 0 {
		opts.Attempts = DefaultAttempts
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if opts.EjectAfter <= 0 {
		opts.EjectAfter = DefaultEjectAfter
	}
	c := &Coordinator{
		opts:     opts,
		client:   opts.Client,
		events:   opts.Events,
		tracer:   opts.Tracer,
		jitter:   opts.Jitter,
		after:    opts.After,
		local:    opts.Local,
		localSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
		stop:     make(chan struct{}),
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
	if len(c.backends) > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background health probing. In-flight RunAll calls are
// unaffected (cancel their contexts to abort them).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
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
// `attempt` (0-based): base << attempt capped at ceil, scaled into
// [0.5, 1.0) of itself by the jitter value so concurrent retries spread
// out without ever collapsing to zero.
func backoff(attempt int, base, ceil time.Duration, jitter float64) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := ceil
	if attempt < 40 { // beyond 40 doublings any sane base has saturated
		if shifted := base << uint(attempt); shifted > 0 && shifted < ceil {
			d = shifted
		}
	}
	return time.Duration(float64(d) * (0.5 + 0.5*jitter))
}

// emit counts one lifecycle event and forwards it to the optional sink.
// This is the coordinator's only per-event code (a simlint hot-path
// root), so it stays allocation-free: one atomic add, one nil check.
func (c *Coordinator) emit(kind EventKind, backendIdx int) {
	c.counts[kind].Add(1)
	if c.events == nil {
		return
	}
	c.events.Event(Event{Kind: kind, Backend: backendIdx})
}

// Metrics snapshots the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	var m Metrics
	m.Requests = c.counts[EvRequest].Load()
	m.CacheHits = c.counts[EvCacheHit].Load()
	m.Retries = c.counts[EvRetry].Load()
	m.Hedges = c.counts[EvHedge].Load()
	m.HedgesWon = c.counts[EvHedgeWon].Load()
	m.Ejections = c.counts[EvEject].Load()
	m.Readmissions = c.counts[EvReadmit].Load()
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
			Down:     bk.down.Load(),
		}
	}
	return m
}

// admitted reports whether backend b is currently on the ring.
func (c *Coordinator) admitted(b int) bool { return !c.backends[b].down.Load() }

// pick returns the admitted backend owning key, excluding the given index
// (pass -1 to exclude nothing); -1 when no backend is admitted.
func (c *Coordinator) pick(key string, exclude int) int {
	return c.ring.owner(key, c.admitted, exclude)
}

// allDown reports whether no backend is admitted (trivially true for an
// empty fleet).
func (c *Coordinator) allDown() bool {
	for _, bk := range c.backends {
		if !bk.down.Load() {
			return false
		}
	}
	return true
}

// fail records a failed exchange with backend b — counting toward
// ejection — and returns err.
func (c *Coordinator) fail(b int, err error) error {
	bk := c.backends[b]
	bk.failures.Add(1)
	if n := bk.fails.Add(1); int(n) >= c.opts.EjectAfter {
		if bk.down.CompareAndSwap(false, true) {
			c.emit(EvEject, b)
		}
	}
	return err
}

// failOrCtx is fail unless our own context ended the exchange: a
// cancelled request (hedge loser, caller gone) says nothing about the
// backend's health and must not count toward ejection.
func (c *Coordinator) failOrCtx(ctx context.Context, b int, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return c.fail(b, err)
}

// ok records a successful exchange with backend b, readmitting it if it
// was ejected.
func (c *Coordinator) ok(b int) {
	bk := c.backends[b]
	bk.fails.Store(0)
	if bk.down.CompareAndSwap(true, false) {
		c.emit(EvReadmit, b)
	}
}

// RunAll executes the batch over the fleet and returns results in input
// order; a successful batch has every result non-nil. The contract
// matches loosesim.RunAllContext: every configuration is validated before
// anything runs, and the batch reports the first error in input order.
// Fleet trouble is not an error — jobs that exhaust the fleet degrade to
// local simulation — so errors surface only from the simulations
// themselves or from ctx.
func (c *Coordinator) RunAll(ctx context.Context, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	if c.allDown() {
		// The whole fleet is unreachable before anything started: one
		// local batch run on the bounded pool, not per-job fallbacks.
		c.emit(EvLocalFallback, -1)
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
// retry/hedge/fallback machinery as sweep points, so a sampled run
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
// next attempt and never counts toward ejection.
type backpressureError struct {
	after time.Duration
	msg   string
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("dispatch: backend backpressure (retry after %s): %s", e.after, e.msg)
}

// runJob drives one configuration to a result: shard lookup, bounded
// submission with hedging, jittered backoff across attempts, and local
// fallback once the fleet is out of options. When tracing is on, the
// whole journey hangs off one root span whose trace ID is a pure
// function of the job key, and every stage — attempt, backoff wait,
// hedge, local fallback — is a child, so a slow sweep decomposes into
// stage delays exactly like an IPC loss decomposes into loop delays.
func (c *Coordinator) runJob(ctx context.Context, key string, pt point) (*pipeline.Result, error) {
	root := c.tracer.Root(key, "job")
	defer root.End() // idempotent safety net: no path may leak the root
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			root.SetStatus("cancelled")
			return nil, err
		}
		b := c.pick(key, -1)
		if b < 0 {
			break // nobody admitted; degrade now rather than spin
		}
		res, err := c.tryOnce(ctx, b, key, pt, root)
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
		// honor its Retry-After (capped at BackoffCap) instead of the
		// jittered schedule. Everything else backs off as before.
		var delay time.Duration
		var bp *backpressureError
		if errors.As(err, &bp) {
			c.emit(EvBackpressure, b)
			delay = bp.after
			if delay > c.opts.BackoffCap {
				delay = c.opts.BackoffCap
			}
		} else {
			c.emit(EvRetry, b)
			delay = backoff(attempt, c.opts.BackoffBase, c.opts.BackoffCap, c.jitter())
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
	// Every attempt failed (or no backend is admitted): run the point
	// locally. The result is bit-identical to a fleet run by the
	// determinism contract, so the sweep's output does not depend on
	// which path served it.
	c.emit(EvLocalFallback, -1)
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

// tryOnce submits one attempt against the primary backend, hedging a
// duplicate onto a second backend if the primary is still silent after
// the hedge delay. The first response wins; the loser's request is
// cancelled. Attempt spans ("post") and hedge spans ("hedge") are
// siblings under the job root; the span whose response the job used is
// marked the winner.
func (c *Coordinator) tryOnce(ctx context.Context, primary int, key string, pt point, root *trace.ActiveSpan) (*pipeline.Result, error) {
	if c.opts.HedgeDelay <= 0 {
		sp := root.Child("post")
		res, err := c.post(ctx, primary, pt, sp)
		if err == nil {
			sp.SetWinner()
		}
		sp.End()
		return res, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    *pipeline.Result
		err    error
		hedged bool
		sp     *trace.ActiveSpan
	}
	// Spans for in-flight exchanges are created, appended, and ended only
	// on this goroutine; End is idempotent, so the deferred sweep closes
	// whatever an early return (cancellation) leaves open.
	var open []*trace.ActiveSpan
	defer func() {
		for _, sp := range open {
			sp.End()
		}
	}()
	ch := make(chan outcome, 2) // both goroutines can always deliver
	psp := root.Child("post")
	open = append(open, psp)
	go func() {
		res, err := c.post(hctx, primary, pt, psp)
		ch <- outcome{res: res, err: err, sp: psp}
	}()
	inFlight := 1
	timer := c.after(c.opts.HedgeDelay)
	var firstErr error
	for {
		select {
		case <-timer:
			timer = nil
			s := c.pick(key, primary)
			if s < 0 {
				continue // nobody to hedge onto
			}
			c.emit(EvHedge, s)
			inFlight++
			hsp := root.Child("hedge")
			open = append(open, hsp)
			go func() {
				res, err := c.post(hctx, s, pt, hsp)
				ch <- outcome{res: res, err: err, hedged: true, sp: hsp}
			}()
		case o := <-ch:
			inFlight--
			if o.err == nil {
				if o.hedged {
					c.emit(EvHedgeWon, -1)
				}
				o.sp.SetWinner()
				o.sp.End()
				return o.res, nil
			}
			o.sp.End()
			var sim *simError
			if errors.As(o.err, &sim) {
				return nil, o.err // permanent: the duplicate would fail identically
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inFlight == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// post runs one request against backend b under its in-flight window and
// maps the response to a result, a permanent simError, or a transient
// (counted) backend failure. The attempt span records the shard
// assignment (Target) and the outcome; the backend continues the trace
// from the propagated Traceparent header. post never ends sp — the
// caller does, because only it knows whether this attempt won.
func (c *Coordinator) post(ctx context.Context, b int, pt point, sp *trace.ActiveSpan) (res *pipeline.Result, err error) {
	bk := c.backends[b]
	// The target is the ring ordinal, not the URL: shard assignment is a
	// pure function of the key, so the ordinal keeps span streams
	// byte-identical across runs even when test fleets sit on ephemeral
	// loopback ports. Metrics maps ordinals back to URLs.
	sp.SetTarget(backendName(b))
	defer func() { sp.SetError(err) }()
	select {
	case bk.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-bk.sem }()
	bk.inFlight.Add(1)
	defer bk.inFlight.Add(-1)
	bk.requests.Add(1)
	c.emit(EvRequest, b)

	body, err := json.Marshal(serve.JobSpec{Config: &pt.cfg, Checkpoint: pt.ckpt, NoCache: c.opts.NoCache})
	if err != nil {
		return nil, err // not a backend fault; do not count it
	}
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
		return nil, c.failOrCtx(ctx, b, err)
	}
	st, err := decodeStatus(resp)
	if err != nil {
		var bp *backpressureError
		if errors.As(err, &bp) {
			// A shedding backend answered coherently: that is a healthy
			// contact, so reset its failure streak instead of charging it
			// toward ejection — overload is load, not failure.
			c.ok(b)
			return nil, err
		}
		return nil, c.failOrCtx(ctx, b, err)
	}
	switch st.State {
	case serve.StateDone:
		if st.Result == nil {
			return nil, c.failOrCtx(ctx, b, fmt.Errorf("dispatch: backend %s: done with no result", bk.url))
		}
		c.ok(b)
		if st.Cached {
			c.emit(EvCacheHit, b)
			sp.SetDetail("cache-hit")
		}
		return st.Result, nil
	case serve.StateFailed:
		c.ok(b) // the backend is healthy; the simulation failed
		return nil, &simError{msg: st.Error}
	default:
		// Cancelled (a draining backend) or an unexpected state: try
		// elsewhere.
		return nil, c.failOrCtx(ctx, b, fmt.Errorf("dispatch: backend %s: job state %q: %s", bk.url, st.State, st.Error))
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

// probeLoop sweeps /healthz on the period configured by ProbeInterval
// until Close.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.after(c.opts.ProbeInterval):
			c.probeAll()
		}
	}
}

// probeAll checks every backend once: a 200 readmits (and resets the
// failure streak); anything else counts toward ejection. Each sweep is
// its own trace (key "probe"), one child span per backend probed.
func (c *Coordinator) probeAll() {
	root := c.tracer.Root("probe", "probe-sweep")
	defer root.End()
	for i := range c.backends {
		select {
		case <-c.stop:
			return
		default:
		}
		c.probe(i, root)
	}
}

// probe runs one bounded /healthz exchange against backend b. The span
// records the health transition the probe caused: "eject" when the
// failure streak removed b from the ring, "readmit" when a recovery
// restored it.
func (c *Coordinator) probe(b int, parent *trace.ActiveSpan) {
	bk := c.backends[b]
	sp := parent.Child("probe")
	sp.SetTarget(backendName(b))
	defer sp.End()
	wasDown := bk.down.Load()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bk.url+"/healthz", nil)
	if err != nil {
		sp.SetError(err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		_ = c.fail(b, err) // a probe timeout is a real failure, unlike a cancelled job request
		sp.SetError(err)
		if !wasDown && bk.down.Load() {
			sp.SetStatus("eject")
		}
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if cerr := resp.Body.Close(); cerr != nil {
		_ = c.fail(b, cerr)
		sp.SetError(cerr)
		if !wasDown && bk.down.Load() {
			sp.SetStatus("eject")
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("dispatch: healthz status %d", resp.StatusCode)
		_ = c.fail(b, err)
		sp.SetError(err)
		if !wasDown && bk.down.Load() {
			sp.SetStatus("eject")
		}
		return
	}
	c.ok(b)
	if wasDown {
		sp.SetStatus("readmit")
	} else {
		sp.SetStatus("ok")
	}
}
