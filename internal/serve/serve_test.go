package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"loosesim"
	"loosesim/internal/pipeline"
)

func simCfg(t testing.TB, bench string, seed int64) pipeline.Config {
	t.Helper()
	cfg, err := loosesim.DefaultMachine(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 5000
	return cfg
}

func TestConfigKeyCanonical(t *testing.T) {
	a := simCfg(t, "gcc", 1)
	b := simCfg(t, "gcc", 1)
	ka, err := ConfigKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ConfigKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("equal configs must hash equal")
	}

	// Observability hooks and the budget guard rail cannot change a
	// completed result, so they must not change the key.
	b.Events = &jobEventSink{}
	b.Intervals = loosesim.IntervalFunc(func(loosesim.Interval) {})
	b.SampleInterval = 777
	b.CycleBudget = 123456
	if kb, _ = ConfigKey(b); ka != kb {
		t.Fatal("observability and budget fields must be excluded from the key")
	}

	// Anything that feeds the simulation must change it.
	b.Seed = 2
	if kb, _ = ConfigKey(b); ka == kb {
		t.Fatal("different seeds must hash differently")
	}
	c := simCfg(t, "swim", 1)
	if kc, _ := ConfigKey(c); ka == kc {
		t.Fatal("different workloads must hash differently")
	}
}

func runForStore(t *testing.T) *pipeline.Result {
	t.Helper()
	res, err := loosesim.Run(simCfg(t, "turb3d", 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testStoreRoundTrip(t *testing.T, store Store) {
	t.Helper()
	want := runForStore(t)
	key, err := ConfigKey(simCfg(t, "turb3d", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(key); ok || err != nil {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	enc, err := encodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, enc); err != nil {
		t.Fatal(err)
	}
	b, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = %v, %v", ok, err)
	}
	got, err := decodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != want.Counters || got.Benchmark != want.Benchmark ||
		got.TotalCycles != want.TotalCycles {
		t.Fatal("cached result lost counter state")
	}
	// The operand-gap histogram must survive the trip (Fig6 reads it
	// from cached results).
	if got.OperandGap.Count() != want.OperandGap.Count() ||
		got.OperandGap.Quantile(0.5) != want.OperandGap.Quantile(0.5) {
		t.Fatal("cached result lost histogram state")
	}
}

func TestMemStoreRoundTrip(t *testing.T) { testStoreRoundTrip(t, NewMemStore()) }

func TestDirStoreRoundTrip(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreRoundTrip(t, store)
}

func TestDirStoreRejectsBadKeys(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "ABCDEF", "0123/45"} {
		if err := store.Put(key, []byte("{}")); err == nil {
			t.Errorf("Put(%q) must be rejected", key)
		}
		if _, _, err := store.Get(key); err == nil {
			t.Errorf("Get(%q) must be rejected", key)
		}
	}
}

func TestRunAllCached(t *testing.T) {
	store := NewMemStore()
	var cs CacheStats
	// Batch with an intra-batch duplicate: 3 entries, 2 distinct.
	cfgs := []pipeline.Config{simCfg(t, "gcc", 1), simCfg(t, "swim", 1), simCfg(t, "gcc", 1)}
	first, err := RunAllCached(context.Background(), store, &cs, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Misses() != 2 {
		t.Fatalf("first pass misses = %d, want 2 (duplicate coalesced)", cs.Misses())
	}
	if first[0].Counters != first[2].Counters {
		t.Fatal("coalesced duplicate must share its twin's result")
	}
	second, err := RunAllCached(context.Background(), store, &cs, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Misses() != 2 || cs.Hits() < 3 {
		t.Fatalf("second pass must be all hits: hits=%d misses=%d", cs.Hits(), cs.Misses())
	}
	for i := range first {
		if second[i].Counters != first[i].Counters {
			t.Fatalf("result %d differs between passes", i)
		}
	}
	if cs.HitRate() <= 0.5 {
		t.Fatalf("hit rate = %v, want > 0.5", cs.HitRate())
	}
}

// submitWait submits a spec over real HTTP with ?wait=1 and returns the
// decoded terminal status.
func submitWait(t *testing.T, url string, spec JobSpec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServerSweepHitsCacheSecondPass is the acceptance case: the same
// sweep submitted twice must be served from the cache on the second pass,
// with the hit rate visible in /metrics. One job records loop events, so
// /metrics must also carry loop aggregates.
func TestServerSweepHitsCacheSecondPass(t *testing.T) {
	srv := New(Options{Workers: 2, Now: time.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sweep := []JobSpec{
		{Bench: "gcc", Warmup: new(uint64), Inst: 3000},
		{Bench: "gcc", Warmup: new(uint64), Inst: 3000, Seed: 2},
		{Bench: "swim", Warmup: new(uint64), Inst: 3000, Events: true},
	}
	for pass := 0; pass < 2; pass++ {
		for i, spec := range sweep {
			st := submitWait(t, ts.URL, spec)
			if st.State != StateDone {
				t.Fatalf("pass %d job %d state = %q (%s)", pass, i, st.State, st.Error)
			}
			if wantCached := pass == 1; st.Cached != wantCached {
				t.Fatalf("pass %d job %d cached = %v, want %v", pass, i, st.Cached, wantCached)
			}
			if st.Result == nil || st.Result.Counters.Retired == 0 {
				t.Fatalf("pass %d job %d has no result", pass, i)
			}
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Cache.Hits != 3 || m.Cache.Misses != 3 {
		t.Fatalf("cache hits=%d misses=%d, want 3/3", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", m.Cache.HitRate)
	}
	if m.Jobs.Completed != 6 || m.Jobs.Submitted != 6 {
		t.Fatalf("jobs completed=%d submitted=%d, want 6/6", m.Jobs.Completed, m.Jobs.Submitted)
	}
	if m.KIPS.Jobs == 0 || m.KIPS.Last <= 0 {
		t.Fatalf("per-job KIPS missing from metrics: %+v", m.KIPS)
	}
	if len(m.Loops) == 0 {
		t.Fatal("metrics has no loop aggregates despite an events-enabled job")
	}
}

// TestServerCycleBudgetAbort is the acceptance case for prompt abort: a
// job with a 1-cycle budget must fail quickly and must not leak its
// goroutine.
func TestServerCycleBudgetAbort(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Options{Workers: 1})
	job, err := srv.Submit(JobSpec{
		Bench: "gcc", Warmup: new(uint64), Inst: 1 << 40, CycleBudget: 1, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("budget-limited job never reached a terminal state")
	}
	st := job.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %q, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatal("budget abort must carry an error")
	}
	srv.Close()
	// After Close the worker pool has exited; the aborted job must not
	// have left a goroutine behind.
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after Close", before, after)
	}
}

func TestServerTimeoutCancelsJob(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	job, err := srv.Submit(JobSpec{
		Bench: "gcc", Warmup: new(uint64), Inst: 1 << 40, TimeoutMS: 30, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("timed-out job never reached a terminal state")
	}
	if st := job.Status(); st.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
}

func TestServerCancelEndpoint(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := srv.Submit(JobSpec{Bench: "gcc", Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+job.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job never reached a terminal state")
	}
	if st := job.Status(); st.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
}

func TestServerDrain(t *testing.T) {
	srv := New(Options{Workers: 1})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := srv.Submit(JobSpec{Bench: "gcc", Seed: int64(i + 1), Warmup: new(uint64), Inst: 2000})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %d state after drain = %q, want done", i, st.State)
		}
	}
	if _, err := srv.Submit(JobSpec{Bench: "gcc"}); err != ErrDraining {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if !srv.Metrics().Draining {
		t.Error("metrics must report draining")
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	cfg := simCfg(t, "gcc", 1)
	cases := []JobSpec{
		{},                              // neither bench nor config
		{Bench: "gcc", Config: &cfg},    // both
		{Bench: "no-such-bench"},        // unknown workload
		{Bench: "gcc", Load: "wat"},     // unknown policy
		{Bench: "gcc", CycleBudget: -1}, // invalid config
	}
	for i, spec := range cases {
		if _, err := srv.Submit(spec); err == nil {
			t.Errorf("case %d (%+v) must fail", i, spec)
		}
	}
}

// TestSubmitRejectsPastEventHorizon: a job the kernel cannot run is a 400
// at submission, not a worker panic that takes the daemon down, and the
// same server then completes an ordinary job. The inputs are a bench job
// whose IQ-EX latency puts the machine's event horizon past what the
// kernel can schedule, and a raw config whose register file is too small
// to back its thread's architectural state.
func TestSubmitRejectsPastEventHorizon(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	small := simCfg(t, "gcc", 1)
	small.NumPhysRegs, small.MaxInFlight = 64, 64
	smallBody, err := json.Marshal(JobSpec{Config: &small})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ body, want string }{
		{`{"bench":"gcc","iqex":1100}`, "event horizon"},
		{string(smallBody), "physical registers"},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs?wait=1", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Fatalf("status %d, body %s; want 400 naming %q", resp.StatusCode, body, c.want)
		}
	}
	st := submitWait(t, ts.URL, JobSpec{Bench: "gcc", Warmup: new(uint64), Inst: 3000})
	if st.State != StateDone || st.Result == nil || st.Result.Counters.Retired == 0 {
		t.Fatalf("ordinary job after the rejections: state %q (%s)", st.State, st.Error)
	}
}

func TestQueueFull(t *testing.T) {
	srv := New(Options{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	// One long job occupies the worker; one fills the queue; the next
	// must be rejected. NoCache keeps all three out of the fast path.
	first, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 1, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued the first job so the queue
	// slot is genuinely free for the second.
	for i := 0; i < 500 && first.Status().State == StateQueued; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if first.Status().State != StateRunning {
		t.Fatalf("first job state = %q, want running", first.Status().State)
	}
	if _, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 2, Warmup: new(uint64), Inst: 1 << 40, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 99, Warmup: new(uint64), Inst: 1 << 40, NoCache: true}); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}
