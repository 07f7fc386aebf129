package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"loosesim"
	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// occupyWorker submits a job long enough to pin a worker for the duration
// of a test and waits until it is actually running.
func occupyWorker(t *testing.T, srv *Server, seed int64) *Job {
	t.Helper()
	job, err := srv.Submit(JobSpec{Bench: "gcc", Seed: seed, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && job.Status().State == StateQueued; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if st := job.Status().State; st != StateRunning {
		t.Fatalf("blocker state = %q, want running", st)
	}
	return job
}

// TestCancelWhileQueuedFinalizesImmediately is the regression test for
// the disconnect-while-queued bug: cancelling a job that no worker has
// picked up yet must finalize it right away — previously it stayed
// "queued" with Done open until a worker drained the queue down to it.
func TestCancelWhileQueuedFinalizesImmediately(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()

	blocker := occupyWorker(t, srv, 1)
	queued, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 2, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("second job state = %q, want queued behind the busy worker", st)
	}

	queued.Cancel()
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job did not finalize until a worker reached it")
	}
	st := queued.Status()
	if st.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
	// The blocker must still be running: the cancellation cannot have
	// gone through the worker.
	if bst := blocker.Status().State; bst != StateRunning {
		t.Fatalf("blocker state = %q, want still running", bst)
	}
	if got := srv.Metrics().Jobs.Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}

	// Cancelling again (or racing the worker later) must not double-count
	// or re-open anything.
	queued.Cancel()
	if got := srv.Metrics().Jobs.Cancelled; got != 1 {
		t.Fatalf("cancelled counter after second Cancel = %d, want 1", got)
	}
	blocker.Cancel()
}

// TestDisconnectWhileQueuedCancelsJob drives the same bug end to end over
// HTTP: a ?wait=1 client that disconnects while its job is still queued
// must cancel the job immediately, not leave it for a worker.
func TestDisconnectWhileQueuedCancelsJob(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	blocker := occupyWorker(t, srv, 1)
	defer blocker.Cancel()

	spec, err := json.Marshal(JobSpec{Bench: "gcc", Seed: 2, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/jobs?wait=1", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			derr = resp.Body.Close()
		}
		errc <- derr
	}()

	// Wait until the submission landed (two jobs registered), then drop
	// the client.
	var queued *Job
	for i := 0; i < 500 && queued == nil; i++ {
		for _, st := range srv.Jobs() {
			if st.ID != blocker.ID() {
				j, ok := srv.Job(st.ID)
				if !ok {
					t.Fatalf("job %s listed but not found", st.ID)
				}
				queued = j
			}
		}
		if queued == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if queued == nil {
		t.Fatal("queued job never appeared")
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("job state before disconnect = %q, want queued", st)
	}

	cancel()
	if derr := <-errc; derr == nil {
		t.Fatal("disconnected request reported success")
	}
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job of a disconnected queued client was not cancelled promptly")
	}
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
	// The worker never touched it: the blocker is still going.
	if bst := blocker.Status().State; bst != StateRunning {
		t.Fatalf("blocker state = %q, want still running", bst)
	}
}

// TestRawConfigJob covers the coordinator's wire format: a complete
// pipeline.Config submitted as-is must produce a result byte-identical to
// a local run, land in the content-addressed cache, and enforce the
// exactly-one-kind rule.
func TestRawConfigJob(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()

	cfg := simCfg(t, "swim", 9)
	job, err := srv.Submit(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("raw-config job state = %q (%s)", st.State, st.Error)
	}
	if st.Key == "" {
		t.Fatal("raw-config job has no content key")
	}

	want, err := loosesim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("raw-config result differs from local run:\nserve: %s\nlocal: %s", gotJSON, wantJSON)
	}

	// The same config again is a cache fast-path hit.
	again, err := srv.Submit(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	<-again.Done()
	if ast := again.Status(); ast.State != StateDone || !ast.Cached {
		t.Fatalf("repeat raw-config job = %+v, want done and cached", ast)
	}

	// A bench job for the same point shares the address space: Key must
	// match what ConfigKey computes.
	key, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Key != key {
		t.Fatalf("job key %q != ConfigKey %q", st.Key, key)
	}

	// Kind exclusivity and validation still hold.
	if _, err := srv.Submit(JobSpec{Bench: "gcc", Config: &cfg}); err == nil {
		t.Fatal("bench+config spec must fail")
	}
	bad := cfg
	bad.FwdDepth = -1
	if _, err := srv.Submit(JobSpec{Config: &bad}); err == nil {
		t.Fatal("invalid raw config must fail at submit")
	}

	// The server-side budget override applies to raw configs too.
	budget, err := srv.Submit(JobSpec{Config: &cfg, CycleBudget: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-budget.Done()
	if bst := budget.Status(); bst.State != StateFailed {
		t.Fatalf("budgeted raw-config job state = %q, want failed", bst.State)
	}
}

// TestDirStoreCorruptEntryRecomputes: a torn or corrupted cache file must
// surface as a Get error, which RunAllCached treats as a miss — the entry
// is recomputed and rewritten, never served.
func TestDirStoreCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simCfg(t, "gcc", 4)
	key, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var cs CacheStats
	first, err := RunAllCached(context.Background(), store, &cs, []pipeline.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Misses() != 1 {
		t.Fatalf("misses after first run = %d, want 1", cs.Misses())
	}

	// Tear the entry in half mid-file.
	path := filepath.Join(dir, key+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not where expected: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, gerr := store.Get(key); gerr == nil {
		t.Fatalf("Get on corrupt entry = (ok=%v, err=nil), want error", ok)
	}

	second, err := RunAllCached(context.Background(), store, &cs, []pipeline.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Misses() != 2 {
		t.Fatalf("misses after corrupt entry = %d, want 2 (corrupt reads are misses)", cs.Misses())
	}
	a, err := json.Marshal(first[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("recomputed result differs from the original")
	}

	// The recompute rewrote the entry: it must round-trip again.
	res, ok, err := store.Get(key)
	if err != nil || !ok || res == nil {
		t.Fatalf("Get after recompute = (%v, %v, %v), want a healthy entry", res, ok, err)
	}

	// Through a server: a request body indexed under key, whose entry has
	// since been torn, falls back to the decode path and recomputes.
	srv := New(Options{Workers: 1, Store: store})
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(wantCached bool) {
		t.Helper()
		var st Status
		if err := json.Unmarshal(postWait(t, h, body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Cached != wantCached {
			t.Fatalf("cached = %v, want %v", st.Cached, wantCached)
		}
		got, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, a) {
			t.Fatal("served result differs from the original")
		}
	}
	submit(true)
	if !indexed(srv, body) {
		t.Fatal("a cacheable body was not indexed")
	}
	if err := os.WriteFile(path, []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	submit(false)
	submit(true)
	if m := srv.Metrics(); m.Cache.Misses != 1 || m.Cache.Hits != 2 {
		t.Fatalf("server cache misses %d, hits %d; want 1 and 2", m.Cache.Misses, m.Cache.Hits)
	}
}

// TestMetricsGolden pins the /metrics JSON shape byte for byte. The
// response is part of the wire contract (loosweep and dashboards parse
// it); run `go test -run TestMetricsGolden -update` after a
// deliberate schema change.
func TestMetricsGolden(t *testing.T) {
	srv := New(Options{Workers: 3})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Feed the loop aggregator two events so the loops section renders.
	sink := &jobEventSink{server: srv}
	sink.Event(obs.Event{Kind: obs.EvBranchMispredict, Delay: 7, Cycle: 1})
	sink.Event(obs.Event{Kind: obs.EvBranchMispredict, Delay: 9, Cycle: 2})
	sink.Event(obs.Event{Kind: obs.EvLoadMisspec, Delay: 3, Cycle: 3})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics content-type = %q", ct)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("/metrics shape drifted from golden:\ngot:  %s\nwant: %s", body, want)
	}

	// The Prometheus view of the same snapshot must parse as exposition
	// text under the exposition content type.
	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics?format=prom content-type = %q", ct)
	}
	if err := CheckPromText(prom); err != nil {
		t.Fatalf("/metrics?format=prom: %v", err)
	}
}

// TestWaitResponseCarriesKIPS is the regression test for KIPS recorded
// after the terminal transition: a ?wait=1 response is written as soon as
// the job is done, so host time and KIPS must be stored before that. The
// clock stalls on every read and advances one second per read, which
// holds the worker between the end of the run and the KIPS record for
// long enough that a late record is always observed.
func TestWaitResponseCarriesKIPS(t *testing.T) {
	var reads atomic.Int64
	srv := New(Options{Workers: 1, Now: func() time.Time {
		time.Sleep(50 * time.Millisecond)
		return time.Unix(reads.Add(1), 0)
	}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bench := range []string{"gcc", "swim", "comp"} {
		st := submitWait(t, ts.URL, JobSpec{Bench: bench, Warmup: new(uint64), Inst: 2000})
		if st.State != StateDone || st.Cached {
			t.Fatalf("%s: state = %q cached = %v, want a cold run", bench, st.State, st.Cached)
		}
		if st.KIPS <= 0 || st.HostSeconds <= 0 {
			t.Fatalf("%s: ?wait=1 response kips = %v host_seconds = %v, want both > 0", bench, st.KIPS, st.HostSeconds)
		}
	}
}
