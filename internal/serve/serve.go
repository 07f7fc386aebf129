// Package serve is the simulation service layer behind cmd/loosimd: an
// HTTP JSON API that accepts simulation and figure jobs, runs them on a
// bounded worker pool (machines constructed lazily, one live per worker),
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
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loosesim/internal/experiments"
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
	// ClientCap bounds the queued jobs of any single named client
	// (JobSpec.Client); <= 0 disables the fairness cap. Submissions over
	// the cap are shed (ErrShed), not rejected, so one client's sweep
	// cannot occupy the whole queue.
	ClientCap int
	// ShedThresholds overrides the per-class occupancy fractions above
	// which a class is shed under load; zero entries select
	// DefaultShedThresholds (interactive 1.0, standard 0.75, batch 0.5).
	ShedThresholds [NumClasses]float64
	// RetryAfter is the backoff hint carried on 429 responses (both
	// queue-full rejections and class sheds) in the Retry-After header;
	// <= 0 selects DefaultRetryAfter. Open-loop clients and the dispatch
	// coordinator honor it instead of their own schedules.
	RetryAfter time.Duration
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

// DefaultRetryAfter is the 429 backoff hint when Options.RetryAfter is
// not set.
const DefaultRetryAfter = time.Second

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
	// ErrShed is load shedding: the queue still has room, but the
	// submission's SLO class is over its shed threshold (or its client
	// over the fairness cap). Like ErrQueueFull it maps to 429 with a
	// Retry-After hint.
	ErrShed = errors.New("serve: shed to protect higher SLO classes")
)

// JobSpec is the JSON body of a submission: exactly one of Bench (a single
// simulation), Figure (a whole paper figure regenerated through the
// cache), or Config (a complete raw configuration) must be set.
type JobSpec struct {
	// Single-simulation jobs. Zero values select the paper's base
	// machine defaults, mirroring cmd/loosim's flags.
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

	// Figure jobs.
	Figure string `json:"figure,omitempty"` // 4|5|6|8|9
	Quick  bool   `json:"quick,omitempty"`  // short runs (experiments.QuickOptions)

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

	// Admission control. Client names the submitter for fairness
	// accounting and the per-client metrics; SLO is the admission class
	// ("interactive", "standard", or "batch"; empty = interactive).
	// Neither feeds the simulation, so neither is part of the content
	// address.
	Client string `json:"client,omitempty"`
	SLO    string `json:"slo,omitempty"`
}

// config builds the pipeline configuration for a single-simulation spec
// (a named bench or a raw config).
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

// figure maps a spec's figure name to its experiment.
func figure(name string) func(experiments.Options) (*experiments.Table, error) {
	switch name {
	case "4":
		return experiments.Fig4
	case "5":
		return experiments.Fig5
	case "6":
		return experiments.Fig6
	case "8":
		return experiments.Fig8
	case "9":
		return experiments.Fig9
	}
	return nil
}

// Job is one accepted submission and its lifecycle. All exported methods
// are safe for concurrent use.
type Job struct {
	id     string
	spec   JobSpec
	key    string // content address; single-simulation jobs only
	srv    *Server
	class  Class
	client string

	// inQueue marks the job as charged against the admission state and
	// present in a class FIFO. Guarded by the jobQueue mutex, not j.mu.
	inQueue bool

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

	mu      sync.Mutex
	state   JobState
	cached  bool
	errMsg  string
	result  *pipeline.Result
	table   *experiments.Table
	hostSec float64
	kips    float64
}

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
	j.closeSpans(StateCancelled)
	// Closed under j.mu so the terminal transition and the close are one
	// atomic step: the state check above is what makes a second close
	// impossible, and holding the lock keeps that locally checkable.
	close(j.done)
	j.mu.Unlock()
	// The tombstone fix: return the job's queue capacity immediately
	// instead of leaving a corpse occupying an admission slot until a
	// worker drains down to it. remove is a no-op if a worker won the
	// race and already dequeued the job (setRunning then skips it), so
	// the charge is released exactly once either way. Called after j.mu
	// is dropped — the queue lock never nests inside a job lock.
	j.srv.q.remove(j)
	j.srv.countCancelled(j)
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

// Status is the JSON snapshot of a job.
type Status struct {
	ID          string             `json:"id"`
	State       JobState           `json:"state"`
	Key         string             `json:"key,omitempty"`
	Cached      bool               `json:"cached,omitempty"`
	Error       string             `json:"error,omitempty"`
	HostSeconds float64            `json:"host_seconds,omitempty"`
	KIPS        float64            `json:"kips,omitempty"`
	Result      *pipeline.Result   `json:"result,omitempty"`
	Table       *experiments.Table `json:"table,omitempty"`
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
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
		Result:      j.result,
		Table:       j.table,
	}
}

// setRunning marks the job picked up by a worker; it reports false when
// the job already reached a terminal state (cancelled while queued), in
// which case the worker must skip it.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	// The queue wait ends at pickup; terminal paths that never reach a
	// worker close it via closeSpans instead.
	j.queueSpan.SetStatus("ok")
	j.queueSpan.End()
	return true
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

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order (detmap: no map iteration)
	nextID   int
	draining bool

	running atomic.Int64

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64
	shed      atomic.Uint64

	// Per-client fairness accounting, keyed by JobSpec.Client; unnamed
	// submissions are not tracked.
	clientMu sync.Mutex
	clients  map[string]*clientStat

	cstats CacheStats

	// Aggregate observability, fed by finished jobs (KIPS) and by
	// events-enabled jobs' sinks (loop delays).
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
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		store:     opts.Store,
		ctx:       ctx,
		cancelAll: cancel,
		q: newJobQueue(AdmissionConfig{
			QueueDepth: opts.QueueDepth,
			ClientCap:  opts.ClientCap,
			Thresholds: opts.ShedThresholds,
		}),
		jobs:     make(map[string]*Job),
		clients:  make(map[string]*clientStat),
		kipsHist: stats.NewHistogram(kipsHistBound),
		delays:   obs.NewLoopDelays(0),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job. Single-simulation jobs that hit the
// cache complete immediately without occupying a worker.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitTraced(spec, trace.SpanContext{})
}

// SubmitTraced is Submit continuing a caller-supplied trace: when parent is
// non-zero (decoded from a Traceparent header), the job's spans join the
// coordinator's trace instead of starting a fresh one. Validation failures
// happen before any span opens — rejected specs never become jobs, so they
// never appear in traces either.
func (s *Server) SubmitTraced(spec JobSpec, parent trace.SpanContext) (*Job, error) {
	kinds := 0
	if spec.Bench != "" {
		kinds++
	}
	if spec.Figure != "" {
		kinds++
	}
	if spec.Config != nil {
		kinds++
	}
	if kinds != 1 {
		return nil, errors.New("serve: a job needs exactly one of bench, figure, or config")
	}
	if spec.Checkpoint != nil && spec.Config == nil {
		return nil, errors.New("serve: a checkpoint job needs a raw config")
	}
	class, err := ParseClass(spec.SLO)
	if err != nil {
		return nil, err
	}
	var key string
	if spec.Figure != "" {
		if figure(spec.Figure) == nil {
			return nil, fmt.Errorf("serve: unknown figure %q", spec.Figure)
		}
	} else {
		cfg, err := spec.config()
		if err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		key, err = ConfigKey(cfg)
		if err != nil {
			return nil, err
		}
		if spec.Checkpoint != nil {
			// Prefix with the checkpoint's content address: same config,
			// different starting state, different result.
			key = snap.Digest(spec.Checkpoint)[:16] + key
		}
	}

	// The serve span continues the coordinator's trace when the submission
	// carried one; otherwise it roots a fresh trace keyed by the job's
	// content address (or figure name), so repeated runs of the same sweep
	// produce the same trace IDs.
	var jsp *trace.ActiveSpan
	if parent.Trace != "" {
		jsp = s.opts.Tracer.Continue(parent, "serve")
	} else if key != "" {
		jsp = s.opts.Tracer.Root(key, "serve")
	} else {
		jsp = s.opts.Tracer.Root("figure:"+spec.Figure, "serve")
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		jsp.SetStatus("rejected")
		jsp.SetDetail(ErrDraining.Error())
		jsp.End()
		return nil, ErrDraining
	}
	s.nextID++
	job := &Job{
		id:     "job-" + strconv.Itoa(s.nextID),
		spec:   spec,
		key:    key,
		srv:    s,
		class:  class,
		client: spec.Client,
		span:   jsp,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	if spec.TimeoutMS > 0 {
		job.ctx, job.cancel = context.WithTimeout(s.ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		job.ctx, job.cancel = context.WithCancel(s.ctx)
	}

	// Cache fast path: a hit needs no worker, no queue slot, and no
	// construction — the whole point of content addressing.
	if key != "" && !spec.NoCache {
		csp := jsp.Child("cache")
		if res, ok, err := s.store.Get(key); err == nil && ok {
			csp.SetStatus("hit")
			csp.End()
			s.jobs[job.id] = job
			s.order = append(s.order, job.id)
			s.mu.Unlock()
			s.cstats.hits.Add(1)
			s.submitted.Add(1)
			s.completed.Add(1)
			s.bumpClient(job.client, func(c *clientStat) { c.submitted++; c.completed++ })
			job.mu.Lock()
			job.cached = true
			job.result = res
			job.mu.Unlock()
			job.cancel()
			job.finish(StateDone, nil)
			return job, nil
		}
		csp.SetStatus("miss")
		csp.End()
	}

	job.queueSpan = jsp.Child("queue")
	switch s.q.tryEnqueue(job) {
	case Admit:
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		s.mu.Unlock()
		s.submitted.Add(1)
		s.bumpClient(job.client, func(c *clientStat) { c.submitted++ })
		return job, nil
	case Shed:
		s.mu.Unlock()
		job.cancel()
		job.queueSpan.SetStatus("shed")
		job.queueSpan.End()
		jsp.SetStatus("shed")
		jsp.SetDetail(ErrShed.Error())
		jsp.End()
		// Refused submissions still count as offered load: the overload
		// conservation law is submitted == completed + failed +
		// cancelled + rejected + shed once the queue drains.
		s.submitted.Add(1)
		s.shed.Add(1)
		s.bumpClient(job.client, func(c *clientStat) { c.submitted++; c.shed++ })
		return nil, ErrShed
	default: // Reject
		s.mu.Unlock()
		job.cancel()
		job.queueSpan.SetStatus("rejected")
		job.queueSpan.End()
		jsp.SetStatus("rejected")
		jsp.SetDetail(ErrQueueFull.Error())
		jsp.End()
		s.submitted.Add(1)
		s.rejected.Add(1)
		s.bumpClient(job.client, func(c *clientStat) { c.submitted++; c.rejected++ })
		return nil, ErrQueueFull
	}
}

// clientStat is one named client's fairness accounting.
type clientStat struct {
	submitted, completed, failed, cancelled, rejected, shed uint64
}

// bumpClient applies one counter update to a named client's stats;
// unnamed submissions (client == "") are not tracked.
func (s *Server) bumpClient(name string, f func(*clientStat)) {
	if name == "" {
		return
	}
	s.clientMu.Lock()
	cs := s.clients[name]
	if cs == nil {
		cs = &clientStat{}
		s.clients[name] = cs
	}
	f(cs)
	s.clientMu.Unlock()
}

// countCompleted/countFailed/countCancelled bump the server-wide and
// per-client terminal counters for one job. Every worker-side terminal
// transition goes through exactly one of these, which is what keeps the
// overload conservation law (submitted == completed + failed + cancelled +
// rejected + shed) checkable.
func (s *Server) countCompleted(j *Job) {
	s.completed.Add(1)
	s.bumpClient(j.client, func(c *clientStat) { c.completed++ })
}

func (s *Server) countFailed(j *Job) {
	s.failed.Add(1)
	s.bumpClient(j.client, func(c *clientStat) { c.failed++ })
}

func (s *Server) countCancelled(j *Job) {
	s.cancelled.Add(1)
	s.bumpClient(j.client, func(c *clientStat) { c.cancelled++ })
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
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// worker drains the queue in class-priority order. One machine is live
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
// job's host time and KIPS are recorded before its terminal transition, so
// a waiter woken by Done (a ?wait=1 response) always sees them.
func (s *Server) runJob(job *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	defer job.cancel() // releases the timeout timer, if any

	if !job.setRunning() {
		return // cancelled while queued; already finalized
	}
	var start time.Time
	if s.opts.Now != nil {
		start = s.opts.Now()
	}
	var retired uint64
	var err error
	if job.spec.Figure != "" {
		retired, err = s.runFigure(job)
	} else {
		retired, err = s.runSim(job)
	}
	if s.opts.Now != nil {
		s.recordHostTime(job, s.opts.Now().Sub(start).Seconds(), retired)
	}
	switch {
	case err == nil:
		job.finish(StateDone, nil)
		s.countCompleted(job)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.finish(StateCancelled, err)
		s.countCancelled(job)
	default: // ErrCycleBudget, bad configs, and anything else a run reports
		job.finish(StateFailed, err)
		s.countFailed(job)
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

// runSim executes a single-simulation job and returns the retired
// instruction count (0 when no simulation completed) and the error that
// ended the job, if any.
func (s *Server) runSim(job *Job) (uint64, error) {
	if err := job.ctx.Err(); err != nil {
		return 0, err
	}
	cfg, err := job.spec.config() // validated at submit; rebuilt here, it's cheap
	if err != nil {
		return 0, err
	}
	if !job.spec.NoCache {
		// Second cache lookup, spanned like the first: a sibling job may
		// have populated the key while this one sat in the queue.
		csp := job.span.Child("cache")
		if res, ok, err := s.store.Get(job.key); err == nil && ok {
			csp.SetStatus("hit")
			csp.End()
			s.cstats.hits.Add(1)
			job.mu.Lock()
			job.cached = true
			job.result = res
			job.mu.Unlock()
			return 0, nil // no simulation ran; keep KIPS honest
		}
		csp.SetStatus("miss")
		csp.End()
		s.cstats.misses.Add(1)
	}
	if job.spec.Events {
		cfg.Events = &jobEventSink{server: s}
	}
	rsp := job.span.Child("run")
	var m *pipeline.Machine
	if job.spec.Checkpoint != nil {
		m, err = pipeline.Restore(cfg, job.spec.Checkpoint)
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
	if !job.spec.NoCache {
		if err := s.store.Put(job.key, res); err != nil {
			s.cstats.putErrors.Add(1)
		}
	}
	job.mu.Lock()
	job.result = res
	job.mu.Unlock()
	return res.TotalRetired, nil
}

// runFigure regenerates one paper figure through the cache and returns the
// total retired instructions across its cache-missing simulations and the
// error that ended the job, if any.
func (s *Server) runFigure(job *Job) (uint64, error) {
	if err := job.ctx.Err(); err != nil {
		return 0, err
	}
	fig := figure(job.spec.Figure)
	opt := experiments.DefaultOptions()
	if job.spec.Quick {
		opt = experiments.QuickOptions()
	}
	var retired atomic.Uint64
	store := s.store
	if job.spec.NoCache {
		store = nil
	}
	opt.Runner = func(cfgs []pipeline.Config) ([]*pipeline.Result, error) {
		results, err := RunAllCached(job.ctx, store, &s.cstats, cfgs)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			retired.Add(r.TotalRetired)
		}
		return results, nil
	}
	rsp := job.span.Child("run")
	table, err := fig(opt)
	endRunSpan(rsp, err)
	if err != nil {
		return 0, err
	}
	job.mu.Lock()
	job.table = table
	job.mu.Unlock()
	return retired.Load(), nil
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

	// QueueByClass reports admitted-but-unstarted occupancy per SLO class,
	// always all classes in priority order so the layout is deterministic.
	QueueByClass []ClassDepth `json:"queue_by_class"`

	Jobs struct {
		Submitted uint64 `json:"submitted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Cancelled uint64 `json:"cancelled"`
		Rejected  uint64 `json:"rejected"`
		Shed      uint64 `json:"shed"`
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

	// Clients is the per-client fairness accounting, sorted by client
	// name; absent until a named client submits.
	Clients []ClientMetric `json:"clients,omitempty"`
}

// ClassDepth is one SLO class's queue occupancy.
type ClassDepth struct {
	Class string `json:"class"`
	Depth int    `json:"depth"`
}

// ClientMetric is one named client's lifecycle counters plus its current
// queue occupancy.
type ClientMetric struct {
	Client    string `json:"client"`
	Queued    int    `json:"queued"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
	Shed      uint64 `json:"shed"`
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
	byClass := s.q.depthByClass()
	m.QueueByClass = make([]ClassDepth, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		m.QueueByClass[c] = ClassDepth{Class: c.String(), Depth: byClass[c]}
	}
	m.Running = s.running.Load()
	s.mu.Lock()
	m.Draining = s.draining
	s.mu.Unlock()
	m.Jobs.Submitted = s.submitted.Load()
	m.Jobs.Completed = s.completed.Load()
	m.Jobs.Failed = s.failed.Load()
	m.Jobs.Cancelled = s.cancelled.Load()
	m.Jobs.Rejected = s.rejected.Load()
	m.Jobs.Shed = s.shed.Load()
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
	queued := s.q.clientDepths()
	s.clientMu.Lock()
	for _, name := range stats.SortedKeys(s.clients) {
		cs := s.clients[name]
		m.Clients = append(m.Clients, ClientMetric{
			Client:    name,
			Queued:    queued[name],
			Submitted: cs.submitted,
			Completed: cs.completed,
			Failed:    cs.failed,
			Cancelled: cs.cancelled,
			Rejected:  cs.rejected,
			Shed:      cs.shed,
		})
	}
	s.clientMu.Unlock()
	return m
}
