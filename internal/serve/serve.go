// Package serve is the simulation service layer behind cmd/loosimd: an
// HTTP JSON API that accepts simulation jobs, runs them on a bounded
// worker pool (machines constructed lazily, one live per worker),
// memoizes results in a content-addressed cache keyed by the canonical
// hash of a pipeline.Config, and exposes queue depth, cache hit rate,
// per-job throughput, and aggregate loop delays on /metrics.
//
// The package is host-side plumbing, not simulator code: everything it
// serves is computed by the same deterministic pipeline the CLI tools use,
// and it never reads the wall clock itself — the host clock is injected by
// the command via Options.Now, keeping the noclock contract intact for all
// of internal/.
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
	"loosesim/internal/snap"
	"loosesim/internal/stats"
	"loosesim/internal/trace"
	"loosesim/internal/workload"
)

// Options configure a Server.
type Options struct {
	// Workers bounds the number of simulations running concurrently;
	// <= 0 selects GOMAXPROCS. Each worker constructs its machine only
	// when it picks a job up, so peak live machines never exceeds
	// Workers regardless of queue length.
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs; submissions against
	// a full queue fail with ErrQueueFull. <= 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// Store is the result cache shared by all jobs; nil selects a fresh
	// in-memory store.
	Store Store
	// Now is the host clock used for per-job KIPS metrics. The command
	// injects time.Now; nil disables wall-time metrics (internal
	// packages never read the clock themselves).
	Now func() time.Time
	// Tracer, when non-nil, records one span tree per job — queue wait,
	// cache lookups, the run itself — continuing a coordinator's trace
	// when the submission carried a Traceparent header. Nil (the
	// default) disables tracing at the cost of one pointer compare per
	// stage.
	Tracer *trace.Tracer
}

// DefaultQueueDepth is the queue bound when Options.QueueDepth is not set.
const DefaultQueueDepth = 256

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Submission and lifecycle errors.
var (
	ErrDraining  = errors.New("serve: draining, not accepting jobs")
	ErrQueueFull = errors.New("serve: queue full")
)

// JobSpec is the JSON body of a submission: exactly one of Bench (a named
// benchmark on the paper's machines) or Config (a complete raw
// configuration) must be set. A figure is a sweep of such jobs, which
// cmd/loosweep posts one point at a time.
type JobSpec struct {
	// Named-bench jobs. Zero values select the paper's base machine
	// defaults, mirroring cmd/loosim's flags.
	Bench   string  `json:"bench,omitempty"`
	DRA     bool    `json:"dra,omitempty"`
	RegRead int     `json:"regread,omitempty"` // register file read latency; 0 = 3
	DecIQ   int     `json:"deciq,omitempty"`   // 0 = derive from machine kind
	IQEx    int     `json:"iqex,omitempty"`    // 0 = derive from machine kind
	Load    string  `json:"load,omitempty"`    // reissue|refetch|stall
	MemDep  string  `json:"memdep,omitempty"`  // storewait|blind|conservative
	Seed    int64   `json:"seed,omitempty"`    // 0 = 1
	Warmup  *uint64 `json:"warmup,omitempty"`  // nil = machine default
	Inst    uint64  `json:"inst,omitempty"`    // measured instructions; 0 = machine default

	// Raw-config jobs: a complete pipeline.Config, the wire format the
	// sweep coordinator (internal/dispatch) uses to ship arbitrary sweep
	// points without squeezing them through the named-bench defaulting
	// above. The server zeroes the config's observability hooks — probes
	// are not expressible over the wire — and runs it as-is.
	Config *pipeline.Config `json:"config,omitempty"`

	// Checkpoint, when set, restores the machine from this sealed
	// pipeline snapshot (base64 over JSON) instead of constructing it
	// fresh — the wire format for one sampled-simulation window. It
	// requires a Config job: a named bench's defaulting could drift away
	// from the config the checkpoint was taken under, and Restore would
	// reject the digest mismatch only after the job was queued. The
	// job's cache key gains the checkpoint's content address as a
	// prefix, so a window result can never alias the full run (or
	// another window) of the same configuration.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	// Job control.
	CycleBudget int64 `json:"cycle_budget,omitempty"` // abort after this many simulated cycles
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`   // abort after this much host time
	NoCache     bool  `json:"no_cache,omitempty"`     // bypass the result cache
	Events      bool  `json:"events,omitempty"`       // aggregate loop events into /metrics
}

// config builds the pipeline configuration for a spec (a named bench or
// a raw config).
func (s JobSpec) config() (pipeline.Config, error) {
	if s.Config != nil {
		cfg := *s.Config
		// The sink interfaces decode to nil anyway, and a decoded Tracer
		// would have nowhere to write; drop every hook so a wire config
		// is always a pure simulation (and hashes like one).
		cfg.Tracer = nil
		cfg.Events = nil
		cfg.Intervals = nil
		if s.CycleBudget > 0 {
			cfg.CycleBudget = s.CycleBudget
		}
		return cfg, nil
	}
	wl, err := workload.ByName(s.Bench)
	if err != nil {
		return pipeline.Config{}, err
	}
	regRead := s.RegRead
	if regRead == 0 {
		regRead = 3
	}
	var cfg pipeline.Config
	if s.DRA {
		cfg = pipeline.DRAConfigRF(wl, regRead)
	} else {
		cfg = pipeline.BaseConfigRF(wl, regRead)
	}
	if s.DecIQ > 0 {
		cfg.DecIQLat = s.DecIQ
	}
	if s.IQEx > 0 {
		cfg.IQExLat = s.IQEx
	}
	switch s.Load {
	case "", "reissue":
		cfg.LoadPolicy = pipeline.LoadReissue
	case "refetch":
		cfg.LoadPolicy = pipeline.LoadRefetch
	case "stall":
		cfg.LoadPolicy = pipeline.LoadStall
	default:
		return pipeline.Config{}, fmt.Errorf("serve: unknown load policy %q", s.Load)
	}
	switch s.MemDep {
	case "", "storewait":
		cfg.MemDep = pipeline.MemDepStoreWait
	case "blind":
		cfg.MemDep = pipeline.MemDepBlind
	case "conservative":
		cfg.MemDep = pipeline.MemDepConservative
	default:
		return pipeline.Config{}, fmt.Errorf("serve: unknown memdep policy %q", s.MemDep)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Warmup != nil {
		cfg.WarmupInstructions = *s.Warmup
	}
	if s.Inst != 0 {
		cfg.MeasureInstructions = s.Inst
	}
	cfg.CycleBudget = s.CycleBudget
	return cfg, nil
}

// Job is one accepted submission and its lifecycle. All exported methods
// are safe for concurrent use.
//
// No finished job holds its spec, and a single simulation holds its result
// only as the store's encoding. A cache hit is born finished: it has no
// spec, context or spans, just the fields Status reports and a reference
// to the stored bytes.
type Job struct {
	id  string
	key string // content address
	srv *Server

	// inQueue marks the job as present in the queue's FIFO. Guarded by
	// the jobQueue mutex, not j.mu.
	inQueue bool

	// ctx scopes the job's run and cancel aborts it; both are nil for a
	// cache hit, which has nothing to abort.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// span is the job's whole-lifecycle span; queueSpan covers
	// enqueue-to-pickup. Both are set before the job is shared and only
	// ever ended after that (End and the setters are idempotent and
	// internally locked), so no path — cancel while queued, client
	// disconnect, cache fast path, worker completion — can leak or race
	// an open span.
	span      *trace.ActiveSpan
	queueSpan *trace.ActiveSpan

	// mu is a leaf lock (see Server.mu): finishQueued drops it before
	// taking the queue's.
	mu sync.Mutex
	// spec is the submission, held only while the job is queued: the
	// worker takes it at pickup and a cancel while queued drops it, so a
	// finished job never pins its config or its checkpoint.
	spec   *JobSpec
	state  JobState
	cached bool
	errMsg string
	// enc is the job's result as the store holds it: the bytes the job
	// put, or got on a hit. Responses splice it in as is; Status decodes
	// it afresh on every call.
	enc     []byte
	hostSec float64
	kips    float64
}

// finished is the Done channel of every cache hit: a hit is born
// finished, so it shares this closed channel rather than making its own.
var finished = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative abort. A job that is still queued is
// finalized immediately — its state becomes cancelled and Done closes
// without waiting for a worker to reach it, so a client that drops while
// its job sits behind a long queue (the disconnect-while-queued case)
// observes the cancellation right away. A running job's machine stops
// within a few thousand simulated cycles. Cancelling a finished job is a
// no-op.
func (j *Job) Cancel() {
	if j.cancel == nil {
		return // a cache hit, born finished
	}
	j.cancel()
	j.finishQueued()
}

// finishQueued moves a still-queued job straight to cancelled; the worker
// that eventually dequeues it sees the terminal state and skips it.
func (j *Job) finishQueued() {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateCancelled
	j.errMsg = context.Canceled.Error()
	j.spec = nil
	j.closeSpans(StateCancelled)
	// Closed under j.mu so the terminal transition and the close are one
	// atomic step: the state check above is what makes a second close
	// impossible, and holding the lock keeps that locally checkable.
	close(j.done)
	j.mu.Unlock()
	// The tombstone fix: return the job's queue slot immediately instead
	// of leaving a corpse occupying it until a worker drains down to it.
	// remove is a no-op if a worker won the race and already dequeued the
	// job (setRunning then skips it). Called after j.mu is dropped — the
	// queue lock never nests inside a job lock.
	j.srv.q.remove(j)
	j.srv.cancelled.Add(1)
}

// closeSpans ends whatever lifecycle spans the job still holds open. Called
// under j.mu just before done closes, so a waiter that observes the
// terminal state is guaranteed every span has reached the sink; the span
// methods are idempotent, so a queue span already ended at worker pickup
// (or never opened, on the cache fast path) is untouched.
func (j *Job) closeSpans(state JobState) {
	j.queueSpan.SetStatus(string(state))
	j.queueSpan.End()
	j.span.SetStatus(string(state))
	j.span.End()
}

// Status is the JSON snapshot of a job. The HTTP API writes a job's
// Result as the bytes the store holds, which are exactly the encoding of
// the Result that Job.Status decodes from them.
type Status struct {
	ID          string           `json:"id"`
	State       JobState         `json:"state"`
	Key         string           `json:"key,omitempty"`
	Cached      bool             `json:"cached,omitempty"`
	Error       string           `json:"error,omitempty"`
	HostSeconds float64          `json:"host_seconds,omitempty"`
	KIPS        float64          `json:"kips,omitempty"`
	Result      *pipeline.Result `json:"result,omitempty"`
}

// Status returns a snapshot of the job. Its Result is decoded from the
// job's stored encoding on every call, so each caller owns the Result it
// gets: modifying it changes neither the job, nor the cache, nor what any
// other caller or response sees.
func (j *Job) Status() Status {
	st, enc := j.snapshot()
	if enc != nil {
		res, err := decodeResult(enc)
		if err != nil {
			st.Error = fmt.Sprintf("serve: decoding result: %v", err)
		}
		st.Result = res
	}
	return st
}

// snapshot returns the job's status without its Result, and the result's
// encoding (nil when the job has none).
func (j *Job) snapshot() (Status, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.id,
		State:       j.state,
		Key:         j.key,
		Cached:      j.cached,
		Error:       j.errMsg,
		HostSeconds: j.hostSec,
		KIPS:        j.kips,
	}, j.enc
}

// setRunning marks the job picked up by a worker and hands the worker the
// job's spec, which the job itself no longer holds. It returns nil when
// the job already reached a terminal state (cancelled while queued), in
// which case the worker must skip it.
func (j *Job) setRunning() *JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil
	}
	spec := j.spec
	j.spec = nil
	j.state = StateRunning
	// The queue wait ends at pickup; terminal paths that never reach a
	// worker close it via closeSpans instead.
	j.queueSpan.SetStatus("ok")
	j.queueSpan.End()
	return spec
}

// finish moves the job to a terminal state and releases waiters. A job
// that is already terminal (finalized by Cancel while queued) is left
// untouched.
func (j *Job) finish(state JobState, err error) {
	j.mu.Lock()
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		j.mu.Unlock()
		return
	case StateQueued, StateRunning:
	}
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	j.closeSpans(state)
	// Closed under j.mu, paired with finishQueued: whichever transition
	// wins the lock closes; the loser sees a terminal state and returns.
	close(j.done)
	j.mu.Unlock()
}

// Server owns the worker pool, the job registry, the result cache, and the
// aggregate metrics. Create with New; stop with Drain or Close.
type Server struct {
	opts  Options
	store Store

	ctx       context.Context // base context; cancelled to force-abort everything
	cancelAll context.CancelFunc

	q  *jobQueue
	wg sync.WaitGroup

	// Lock order: mu may be held while taking the queue's lock (Submit's
	// tryEnqueue, beginDrain's close) or the store's (the cache lookups of
	// Submit and of an indexed request), never the other way round. Every
	// other serve lock — the queue's, the MemStore's, Job.mu and obsMu — is
	// a leaf: nothing takes a second serve lock while holding one. No
	// analyzer or test checks this order; keep it when adding a nested
	// acquisition.
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order (detmap: no map iteration)
	nextID   int
	draining bool
	// requests, guarded by mu like the fields above, maps the sha256 of a
	// request body that decoded to a cacheable job to that job's content
	// key (see submitBody). At most requestIndexCap entries; cleared when
	// full.
	requests map[[sha256.Size]byte]string

	running atomic.Int64

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64

	cstats CacheStats

	// Aggregate observability, fed by finished jobs (KIPS) and by
	// events-enabled jobs' sinks (loop delays). obsMu is a leaf lock
	// (see mu).
	obsMu    sync.Mutex
	kipsHist *stats.Histogram
	kipsSum  float64
	kipsN    uint64
	lastKIPS float64
	delays   *obs.LoopDelays
}

// kipsHistBound caps the per-job KIPS histogram (unit-width buckets); jobs
// faster than this land in the overflow bucket, which Quantile handles.
const kipsHistBound = 1 << 14

// New starts a server: the worker pool is live on return.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		store:     opts.Store,
		ctx:       ctx,
		cancelAll: cancel,
		q:         newJobQueue(opts.QueueDepth),
		jobs:      make(map[string]*Job),
		requests:  make(map[[sha256.Size]byte]string),
		kipsHist:  stats.NewHistogram(kipsHistBound),
		delays:    obs.NewLoopDelays(0),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job. A job that hits the cache completes
// immediately without occupying a worker. Validation failures happen
// before any span opens — rejected specs never become jobs, so they never
// appear in traces either.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	key, err := spec.key()
	if err != nil {
		return nil, err
	}
	return s.admit(spec, key, trace.SpanContext{})
}

// key validates a spec and returns its content address.
func (s JobSpec) key() (string, error) {
	if (s.Bench != "") == (s.Config != nil) {
		return "", errors.New("serve: a job needs exactly one of bench or config")
	}
	if s.Checkpoint != nil && s.Config == nil {
		return "", errors.New("serve: a checkpoint job needs a raw config")
	}
	cfg, err := s.config()
	if err != nil {
		return "", err
	}
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	key, err := ConfigKey(cfg)
	if err != nil {
		return "", err
	}
	if s.Checkpoint != nil {
		// Prefix with the checkpoint's content address: same config,
		// different starting state, different result.
		key = snap.Digest(s.Checkpoint)[:16] + key
	}
	return key, nil
}

// serveSpan opens a job's serve span. It continues the coordinator's trace
// when the submission carried one; otherwise it roots a fresh trace keyed
// by the job's content address, so repeated runs of the same sweep produce
// the same trace IDs.
func (s *Server) serveSpan(parent trace.SpanContext, key string) *trace.ActiveSpan {
	if parent.Trace != "" {
		return s.opts.Tracer.Continue(parent, "serve")
	}
	return s.opts.Tracer.Root(key, "serve")
}

// nextJobID assigns the next job ID. Called with s.mu held.
func (s *Server) nextJobID() string {
	s.nextID++
	return "job-" + strconv.Itoa(s.nextID)
}

// admit turns a validated spec, whose content address is key, into a job:
// a cache hit born finished, or a queued job. When parent is non-zero
// (decoded from a Traceparent header), the job's spans join the
// coordinator's trace instead of starting a fresh one.
func (s *Server) admit(spec JobSpec, key string, parent trace.SpanContext) (*Job, error) {
	jsp := s.serveSpan(parent, key)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		jsp.SetStatus("rejected")
		jsp.SetDetail(ErrDraining.Error())
		jsp.End()
		return nil, ErrDraining
	}

	if !spec.NoCache {
		csp := jsp.Child("cache")
		if enc, ok, err := s.store.Get(key); err == nil && ok {
			return s.hitLocked(key, enc, jsp, csp), nil
		}
		csp.SetStatus("miss")
		csp.End()
	}

	job := &Job{
		id:    s.nextJobID(),
		spec:  new(JobSpec),
		key:   key,
		srv:   s,
		span:  jsp,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	*job.spec = spec // not &spec, which would move every submission's spec, hits too, to the heap
	if spec.TimeoutMS > 0 {
		job.ctx, job.cancel = context.WithTimeout(s.ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		job.ctx, job.cancel = context.WithCancel(s.ctx)
	}

	job.queueSpan = jsp.Child("queue")
	if s.q.tryEnqueue(job) {
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		s.mu.Unlock()
		s.submitted.Add(1)
		return job, nil
	}
	s.mu.Unlock()
	job.cancel()
	job.queueSpan.SetStatus("rejected")
	job.queueSpan.End()
	jsp.SetStatus("rejected")
	jsp.SetDetail(ErrQueueFull.Error())
	jsp.End()
	// A refused submission still counts as offered load: the conservation
	// law is submitted == completed + failed + cancelled + rejected once
	// the queue drains.
	s.submitted.Add(1)
	s.rejected.Add(1)
	return nil, ErrQueueFull
}

// hitLocked is the cache fast path, shared by decoded and indexed
// submissions: a hit needs no worker, no queue slot, and no construction —
// the whole point of content addressing. Its job is born finished and
// holds enc, the stored bytes, undecoded. Called with s.mu held and the
// job's serve and cache spans open; it releases s.mu and ends both spans.
func (s *Server) hitLocked(key string, enc []byte, jsp, csp *trace.ActiveSpan) *Job {
	job := &Job{id: s.nextJobID(), key: key, state: StateDone, cached: true, enc: enc, done: finished}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()
	csp.SetStatus("hit")
	csp.End()
	s.cstats.hits.Add(1)
	s.submitted.Add(1)
	s.completed.Add(1)
	jsp.SetStatus(string(StateDone))
	jsp.End()
	return job
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns status snapshots for every job, in submission order.
func (s *Server) Jobs() []Status {
	jobs := s.jobList()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// jobList returns every job, in submission order.
func (s *Server) jobList() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// worker drains the queue in submission order. One machine is live
// per worker at a time, so the pool's peak memory is Options.Workers
// machines regardless of how deep the queue gets.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.q.dequeue()
		if job == nil {
			return // queue closed and drained
		}
		s.runJob(job)
	}
}

// runJob executes one dequeued job end to end, including metrics. The
// job's host time and KIPS, and the server's outcome counter, are recorded
// before its terminal transition, so a waiter woken by Done (a ?wait=1
// response) always sees them.
func (s *Server) runJob(job *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	defer job.cancel() // releases the timeout timer, if any

	spec := job.setRunning()
	if spec == nil {
		return // cancelled while queued; already finalized
	}
	var start time.Time
	if s.opts.Now != nil {
		start = s.opts.Now()
	}
	retired, err := s.runSim(job, spec)
	if s.opts.Now != nil {
		s.recordHostTime(job, s.opts.Now().Sub(start).Seconds(), retired)
	}
	switch {
	case err == nil:
		s.completed.Add(1)
		job.finish(StateDone, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		job.finish(StateCancelled, err)
	default: // ErrCycleBudget, bad configs, and anything else a run reports
		s.failed.Add(1)
		job.finish(StateFailed, err)
	}
}

// recordHostTime stores a job's host time and KIPS and folds a positive
// KIPS into the server-wide aggregate.
func (s *Server) recordHostTime(job *Job, sec float64, retired uint64) {
	kips := 0.0
	if sec > 0 && retired > 0 {
		kips = float64(retired) / sec / 1000
	}
	job.mu.Lock()
	job.hostSec = sec
	job.kips = kips
	job.mu.Unlock()
	if kips > 0 {
		s.obsMu.Lock()
		s.kipsHist.Add(int(kips))
		s.kipsSum += kips
		s.kipsN++
		s.lastKIPS = kips
		s.obsMu.Unlock()
	}
}

// runSim executes a job's simulation and returns the retired
// instruction count (0 when no simulation completed) and the error that
// ended the job, if any. The job keeps its result as the encoding it puts
// in the store; a result that cannot be encoded fails the job.
func (s *Server) runSim(job *Job, spec *JobSpec) (uint64, error) {
	if err := job.ctx.Err(); err != nil {
		return 0, err
	}
	cfg, err := spec.config() // validated at submit; rebuilt here, it's cheap
	if err != nil {
		return 0, err
	}
	if !spec.NoCache {
		// Second cache lookup, spanned like the first: a sibling job may
		// have populated the key while this one sat in the queue.
		csp := job.span.Child("cache")
		if enc, ok, err := s.store.Get(job.key); err == nil && ok {
			csp.SetStatus("hit")
			csp.End()
			s.cstats.hits.Add(1)
			job.mu.Lock()
			job.cached = true
			job.enc = enc
			job.mu.Unlock()
			return 0, nil // no simulation ran; keep KIPS honest
		}
		csp.SetStatus("miss")
		csp.End()
		s.cstats.misses.Add(1)
	}
	if spec.Events {
		cfg.Events = &jobEventSink{server: s}
	}
	rsp := job.span.Child("run")
	var m *pipeline.Machine
	if spec.Checkpoint != nil {
		m, err = pipeline.Restore(cfg, spec.Checkpoint)
	} else {
		m, err = pipeline.New(cfg)
	}
	var res *pipeline.Result
	if err == nil {
		res, err = m.RunContext(job.ctx)
	}
	endRunSpan(rsp, err)
	if err != nil {
		return 0, err
	}
	enc, err := encodeResult(res)
	if err != nil {
		return 0, fmt.Errorf("serve: encoding result: %w", err)
	}
	if !spec.NoCache {
		if err := s.store.Put(job.key, enc); err != nil {
			s.cstats.putErrors.Add(1)
		}
	}
	job.mu.Lock()
	job.enc = enc
	job.mu.Unlock()
	return res.TotalRetired, nil
}

// endRunSpan closes a job's run span with the status its outcome maps to.
func endRunSpan(rsp *trace.ActiveSpan, err error) {
	switch {
	case err == nil:
		rsp.SetStatus("ok")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rsp.SetStatus("cancelled")
	default:
		rsp.SetError(err)
	}
	rsp.End()
}

// jobEventSink fans one running job's loop events into the server-wide
// aggregate. Event is the serve layer's only per-cycle-path code — it runs
// once per loose-loop traversal of every events-enabled job — so it stays
// allocation-free (it is a simlint hot-path root): one mutex and two
// histogram updates.
type jobEventSink struct {
	server *Server
}

// Event implements obs.EventSink.
func (k *jobEventSink) Event(e obs.Event) {
	s := k.server
	s.obsMu.Lock()
	s.delays.Event(e)
	s.obsMu.Unlock()
}

// Drain stops accepting submissions, lets the workers finish every queued
// job, and returns once the pool is idle. If ctx expires first, running
// simulations are cancelled cooperatively and Drain still waits for the
// workers to observe it before returning ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-idle
		return ctx.Err()
	}
}

// Close is Drain with no grace: everything in flight is cancelled and
// Close returns once the workers exit. Queued jobs are marked cancelled.
func (s *Server) Close() {
	s.beginDrain()
	s.cancelAll()
	s.wg.Wait()
}

// beginDrain flips the server into draining mode exactly once.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.q.close()
	}
	s.mu.Unlock()
}

// Metrics is the /metrics payload.
type Metrics struct {
	Workers    int   `json:"workers"`
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
	Draining   bool  `json:"draining"`

	Jobs struct {
		Submitted uint64 `json:"submitted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Cancelled uint64 `json:"cancelled"`
		Rejected  uint64 `json:"rejected"`
	} `json:"jobs"`

	Cache struct {
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		PutErrors uint64  `json:"put_errors"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`

	// KIPS is per-job simulation throughput (thousands of simulated
	// instructions retired per host second); all zero when the server
	// has no clock (Options.Now nil).
	KIPS struct {
		Jobs uint64  `json:"jobs"`
		Last float64 `json:"last"`
		Mean float64 `json:"mean"`
		P50  int     `json:"p50"`
		P99  int     `json:"p99"`
	} `json:"kips"`

	// Loops aggregates loop-event delays across events-enabled jobs.
	Loops []LoopMetric `json:"loops,omitempty"`
}

// LoopMetric is one loose loop's aggregate delay summary.
type LoopMetric struct {
	Loop       string  `json:"loop"`
	Events     uint64  `json:"events"`
	MeanDelay  float64 `json:"mean_delay"`
	P99Delay   int     `json:"p99_delay"`
	CyclesLost uint64  `json:"cycles_lost"`
}

// Metrics snapshots the server's aggregate state.
func (s *Server) Metrics() Metrics {
	var m Metrics
	m.Workers = s.opts.Workers
	m.QueueDepth = int64(s.q.depth())
	m.Running = s.running.Load()
	s.mu.Lock()
	m.Draining = s.draining
	s.mu.Unlock()
	m.Jobs.Submitted = s.submitted.Load()
	m.Jobs.Completed = s.completed.Load()
	m.Jobs.Failed = s.failed.Load()
	m.Jobs.Cancelled = s.cancelled.Load()
	m.Jobs.Rejected = s.rejected.Load()
	m.Cache.Hits = s.cstats.Hits()
	m.Cache.Misses = s.cstats.Misses()
	m.Cache.PutErrors = s.cstats.PutErrors()
	m.Cache.HitRate = s.cstats.HitRate()
	s.obsMu.Lock()
	m.KIPS.Jobs = s.kipsN
	m.KIPS.Last = s.lastKIPS
	if s.kipsN > 0 {
		m.KIPS.Mean = s.kipsSum / float64(s.kipsN)
	}
	m.KIPS.P50 = s.kipsHist.Quantile(0.5)
	m.KIPS.P99 = s.kipsHist.Quantile(0.99)
	for k := obs.EventKind(0); k < obs.NumEventKinds; k++ {
		n := s.delays.Count(k)
		if n == 0 {
			continue
		}
		m.Loops = append(m.Loops, LoopMetric{
			Loop:       k.String(),
			Events:     n,
			MeanDelay:  s.delays.MeanDelay(k),
			P99Delay:   s.delays.P99(k),
			CyclesLost: s.delays.CyclesLost(k),
		})
	}
	s.obsMu.Unlock()
	return m
}
