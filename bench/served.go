package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loosesim/internal/dispatch"
	"loosesim/internal/experiments"
	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
	"loosesim/internal/trace"
)

// The served workload is the traffic the repository's sweep client
// produces: `loosweep -fig 8 -quick` posts every Figure-8 cell through the
// dispatch coordinator to a serve backend, which simulates each cell the
// first time and answers every repeat from its content-addressed cache.
// The backend is an in-process serve.Server with loosimd's defaults (a
// worker per CPU, an in-memory store) behind a loopback HTTP listener,
// and the coordinator runs with loosweep's defaults. The timed phase
// sweeps cold once and then repeats the same sweep every repeatEvery
// until the run's time is up. One op is one job submission.

// repeatEvery paces the repeat sweeps: a repeat is due every 100 ms from
// the start of the timed phase, and one that falls due while the
// previous sweep runs starts as soon as it ends. A repeat takes about
// 20 ms on a 2-CPU host. The pace fixes the number of submissions a run
// makes, whatever the host's speed; the server keeps a record of every
// job, so its memory grows with that number.
const repeatEvery = 100 * time.Millisecond

// fig8Options are the sweep's sizes: loosweep's -quick sizes, or smaller
// for a smoke test.
func fig8Options(o options) experiments.Options {
	opt := experiments.QuickOptions()
	if o.quick {
		opt.Measure, opt.Warmup = 2_000, 2_000
	}
	opt.Seed = o.seed
	return opt
}

// spanSink feeds the server's own spans (queue wait, run) into the span
// log once the timed phase starts.
type spanSink struct {
	on   atomic.Bool
	logs *spanLog
}

func (k *spanSink) Span(s trace.Span) {
	if k.on.Load() {
		k.logs.add(s.Name, s.Duration())
	}
}

// timedTransport times every job submission (a POST) from the request
// until the client has closed the response body, and keeps the response
// bodies while capturing. It times nothing until switched on.
type timedTransport struct {
	next *http.Transport

	mu          sync.Mutex
	on, capture bool
	latencies   []float64 // ms
	bodies      [][]byte
}

func (t *timedTransport) set(on, capture bool) {
	t.mu.Lock()
	t.on, t.capture = on, capture
	t.mu.Unlock()
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	on, capture := t.on, t.capture
	t.mu.Unlock()
	if !on || req.Method != http.MethodPost {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b := &timedBody{ReadCloser: resp.Body, t: t, start: start}
	if capture {
		b.buf = &bytes.Buffer{}
	}
	resp.Body = b
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t      *timedTransport
	start  time.Time
	buf    *bytes.Buffer
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		ms := float64(time.Since(b.start)) / 1e6
		b.t.mu.Lock()
		b.t.latencies = append(b.t.latencies, ms)
		if b.buf != nil {
			b.t.bodies = append(b.t.bodies, b.buf.Bytes())
		}
		b.t.mu.Unlock()
	}
	return err
}

func prepareServed(ctx context.Context, e *env) (runFunc, error) {
	opts := serve.Options{Store: serve.NewMemStore(), Now: time.Now}
	var sink *spanSink
	if e.spans != nil {
		sink = &spanSink{logs: e.spans}
		opts.Tracer = trace.New(trace.Options{Seed: e.o.seed, Now: time.Now, Sink: sink})
	}
	b := servetest.StartBackend(opts)
	tr := &timedTransport{next: http.DefaultTransport.(*http.Transport).Clone()}
	coord, err := dispatch.New(dispatch.Options{Backends: []string{b.URL}, Client: &http.Client{Transport: tr}})
	if err != nil {
		b.Close()
		return nil, err
	}
	closeAll := func() {
		coord.Close()
		tr.next.CloseIdleConnections()
		b.Close()
	}
	// Warm-up: the same sweep with tiny cells, whose cache keys the timed
	// sweep never uses, so connections are open and the code paged in.
	warm := experiments.Options{Measure: 1_000, Warmup: 1_000, Seed: e.o.seed, Runner: coord.Runner(ctx)}
	if _, err := experiments.Fig8(warm); err != nil {
		closeAll()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return func(ctx context.Context, e *env) (*phase, error) {
		defer closeAll()
		if sink != nil {
			sink.on.Store(true)
		}
		// The runner is the coordinator, as in loosweep; it keeps each
		// sweep's batch for the checks.
		var cfgs []pipeline.Config
		var results []*pipeline.Result
		opt := fig8Options(e.o)
		opt.Runner = func(batch []pipeline.Config) ([]*pipeline.Result, error) {
			res, err := coord.RunAll(ctx, batch)
			cfgs, results = batch, res
			return res, err
		}
		ph := newPhase(runtime.GOMAXPROCS(0))
		before := coord.Metrics()
		var cold []string // each cell's digest from the cold sweep
		seen := map[string]bool{}
		repeats := int(e.o.seconds / repeatEvery.Seconds())
		if e.o.rounds > 0 {
			repeats = e.o.rounds
		}
		tr.set(true, true)
		start := time.Now()
		for pass := 0; pass <= repeats; pass++ {
			if err := sleepUntil(ctx, start.Add(time.Duration(pass)*repeatEvery)); err != nil {
				return nil, err
			}
			if _, err := experiments.Fig8(opt); err != nil {
				return nil, err
			}
			if pass == 0 {
				tr.set(true, false)
				cold = make([]string, len(results))
			}
			for i, r := range results {
				key := runLabel(e.o, "served-fig8", i, cfgs[i].Workload.Name, cfgs[i].Seed)
				ph.attempted++
				if pass > 0 {
					// A repeat must return the cold sweep's result byte for byte.
					if !e.chk.match(key, r, cold[i]) {
						ph.failed++
					}
					continue
				}
				if !e.chk.result(key, cfgs[i], r) {
					ph.failed++
					continue
				}
				d, err := digest(r)
				if err != nil {
					return nil, err
				}
				cold[i] = d
				ph.kinst += float64(r.TotalRetired) / 1000
				ph.results = append(ph.results, r)
				e.spans.count("cycles", r.TotalCycles)
				if bench := cfgs[i].Workload.Name; !seen[bench] {
					// One machine per benchmark for the per-layer probes.
					seen[bench] = true
					ph.configs = append(ph.configs, cfgs[i])
				}
			}
		}
		ph.wall = time.Since(start)
		tr.set(false, false)
		ph.latencies = tr.latencies
		if err := tallyServed(e, ph, b.Server, tr.bodies, len(cold), repeats+1, before, coord.Metrics()); err != nil {
			return nil, err
		}
		return ph, nil
	}, nil
}

// tallyServed checks the fleet's accounting and the cold sweep's
// responses, off the timed path, and reduces them to the phase's numbers:
// every cold response a miss that the server simulated, every repeat a
// cache hit, nothing retried, refused or run outside the server.
func tallyServed(e *env, ph *phase, srv *serve.Server, bodies [][]byte, cells, passes int, before, after dispatch.Metrics) error {
	requests := after.Requests - before.Requests
	hits := after.CacheHits - before.CacheHits
	refused := after.Backpressure - before.Backpressure
	switch {
	case len(ph.latencies) != cells*passes || requests != uint64(cells*passes):
		ph.failed++
		e.chk.fail("served-fig8: %d requests, %d timed, want %d", requests, len(ph.latencies), cells*passes)
	case hits != uint64(cells*(passes-1)):
		ph.failed++
		e.chk.fail("served-fig8: %d cache hits, want %d", hits, cells*(passes-1))
	case refused > 0 || after.Retries > before.Retries || after.LocalFallbacks > before.LocalFallbacks:
		ph.failed++
		e.chk.fail("served-fig8: %d refused, %d retried, %d run locally", refused, after.Retries-before.Retries, after.LocalFallbacks-before.LocalFallbacks)
	}
	// Each cold job is a different cell, so each is its own speed group
	// and kips is their geometric mean. The server records a job's KIPS
	// only after the job is done, so a ?wait=1 response can carry 0; the
	// job's record, read after the sweep, always has it.
	for _, body := range bodies {
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("cold response: %w", err)
		}
		var kips float64
		if j, ok := srv.Job(st.ID); ok {
			kips = j.Status().KIPS
		}
		if st.Cached || kips <= 0 {
			ph.failed++
			e.chk.fail("served-fig8: cold job %s: cached %v, KIPS %v", st.ID, st.Cached, kips)
			continue
		}
		ph.speeds[st.Key] = []float64{kips}
	}
	if requests > 0 {
		ph.layer["serve.hit_ratio"] = float64(hits) / float64(requests)
	}
	ph.layer["serve.refused"] = float64(refused)
	var latSum float64
	for _, l := range ph.latencies {
		latSum += l
	}
	if latSum > 0 && e.spans != nil {
		queue := 100 * float64(e.spans.sum("queue")) / 1e6 / latSum
		run := 100 * float64(e.spans.sum("run")) / 1e6 / latSum
		ph.layer["serve.queue_wait_share"] = queue
		ph.layer["serve.run_share"] = run
		ph.layer["serve.http_share"] = 100 - queue - run
	}
	return nil
}

// sleepUntil waits until t or until ctx is done.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
