package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
)

func testCfg(t *testing.T, bench string, seed int64) pipeline.Config {
	t.Helper()
	cfg, err := loosesim.DefaultMachine(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 2000
	return cfg
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func localBaseline(t *testing.T, cfgs []pipeline.Config) []*pipeline.Result {
	t.Helper()
	results := make([]*pipeline.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := loosesim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("local baseline config %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

func assertByteIdentical(t *testing.T, got, want []*pipeline.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := mustJSON(t, got[i]), mustJSON(t, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("result %d differs from local baseline:\nfleet: %s\nlocal: %s", i, g, w)
		}
	}
}

func TestBackoffSchedule(t *testing.T) {
	tests := []struct {
		name    string
		attempt int
		jitter  float64
		want    time.Duration
	}{
		{"attempt0-low", 0, 0, 25 * time.Millisecond},
		{"attempt1-low", 1, 0, 50 * time.Millisecond},
		{"attempt2-low", 2, 0, 100 * time.Millisecond},
		{"attempt3-low", 3, 0, 200 * time.Millisecond},
		{"attempt0-high", 0, 1, 50 * time.Millisecond},
		{"attempt2-mid", 2, 0.5, 150 * time.Millisecond},
		{"capped", 10, 0, time.Second},
		{"capped-high", 10, 1, 2 * time.Second},
		{"overflow-proof", 80, 0, time.Second},
		{"negative-attempt", -3, 0, 25 * time.Millisecond},
	}
	for _, tc := range tests {
		if got := backoff(tc.attempt, tc.jitter); got != tc.want {
			t.Errorf("%s: backoff(%d, jitter=%v) = %v, want %v", tc.name, tc.attempt, tc.jitter, got, tc.want)
		}
	}
}

func fleetURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = "http://backend-" + strconv.Itoa(i) + ":8080"
	}
	return urls
}

// TestRingWalkVisitsEveryBackend: a job's attempts 0..n-1 go to n distinct
// backends and attempt n wraps to the owner again; a one-backend ring
// retries its only backend and an empty ring has no owner.
func TestRingWalkVisitsEveryBackend(t *testing.T) {
	urls := fleetURLs(5)
	r := newRing(urls)
	n := len(urls)
	for i := 0; i < 200; i++ {
		key := "key-" + strconv.Itoa(i)
		seen := make(map[int]bool, n)
		for a := 0; a < n; a++ {
			b := r.owner(key, a)
			if b < 0 || b >= n || seen[b] {
				t.Fatalf("key %q attempt %d: backend %d (seen %v)", key, a, b, seen)
			}
			seen[b] = true
			if wrap := r.owner(key, a+n); wrap != b {
				t.Fatalf("key %q: attempt %d goes to %d, attempt %d to %d; want a wrap", key, a+n, wrap, a, b)
			}
		}
	}
	one := newRing(urls[:1])
	for a := 0; a < attempts; a++ {
		if got := one.owner("k", a); got != 0 {
			t.Fatalf("one-backend ring, attempt %d: backend %d, want 0", a, got)
		}
	}
	if got := newRing(nil).owner("k", 0); got != -1 {
		t.Fatalf("empty ring: owner %d, want -1", got)
	}
}

// TestRingStableWithoutBackend is the shard-stability property: a ring
// built without one URL keeps every key that URL did not own on the same
// URL, and each key it did own moves to the backend the full ring tries
// on the key's second attempt.
func TestRingStableWithoutBackend(t *testing.T) {
	urls := fleetURLs(5)
	full := newRing(urls)
	const gone = 2
	rest := slices.Delete(slices.Clone(urls), gone, gone+1)
	less := newRing(rest)
	moved := 0
	for i := 0; i < 1000; i++ {
		key := "key-" + strconv.Itoa(i)
		before, after := urls[full.owner(key, 0)], rest[less.owner(key, 0)]
		if before == urls[gone] {
			moved++
			if want := urls[full.owner(key, 1)]; after != want {
				t.Fatalf("key %q: owner without %s is %s, want its successor %s", key, urls[gone], after, want)
			}
			continue
		}
		if after != before {
			t.Fatalf("key %q moved from %s to %s though %s stayed", key, before, after, before)
		}
	}
	if moved == 0 {
		t.Fatal("the removed backend owned no keys; property vacuous (raise the key count)")
	}
}

// instantClock fires every timer immediately and records the requested
// durations.
type instantClock struct {
	mu    sync.Mutex
	fired []time.Duration
}

func (c *instantClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.fired = append(c.fired, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

func (c *instantClock) delays() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.fired...)
}

// TestRetrySchedule drives one job through two scripted transport
// failures and checks the exact jittered backoff sequence the coordinator
// slept, plus the resulting counters.
func TestRetrySchedule(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	tr := &servetest.Tripper{}
	tr.Script(
		servetest.FaultSpec{Fault: servetest.DropConn},
		servetest.FaultSpec{Fault: servetest.DropConn},
	)
	clock := &instantClock{}
	c, err := New(Options{
		Backends: []string{b.URL},
		Client:   &http.Client{Transport: tr},
		Jitter:   func() float64 { return 0 },
		After:    clock.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := []pipeline.Config{testCfg(t, "gcc", 7)}
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	wantDelays := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond}
	if gotDelays := clock.delays(); fmt.Sprint(gotDelays) != fmt.Sprint(wantDelays) {
		t.Fatalf("backoff delays = %v, want %v", gotDelays, wantDelays)
	}

	m := c.Metrics()
	if m.Requests != 3 || m.Retries != 2 {
		t.Fatalf("requests = %d retries = %d, want 3 and 2", m.Requests, m.Retries)
	}
	if m.Backends[0].Failures != 2 {
		t.Fatalf("backend metrics = %+v, want 2 failures", m.Backends[0])
	}
	if tr.Remaining() != 0 {
		t.Fatalf("unconsumed faults: %d", tr.Remaining())
	}
}

// TestSuccessorServesRefusedOwner: when the backend owning a job's key
// refuses connections, attempt 1 goes to the next backend clockwise on the
// ring, which serves the job; nothing runs locally.
func TestSuccessorServesRefusedOwner(t *testing.T) {
	backends, closeAll := servetest.StartBackends(3, serve.Options{Workers: 1})
	defer closeAll()
	c, err := New(Options{
		Backends: servetest.URLs(backends),
		Jitter:   func() float64 { return 0 },
		After:    (&instantClock{}).After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := []pipeline.Config{testCfg(t, "swim", 3)}
	key, err := serve.ConfigKey(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	owner, successor := c.ring.owner(key, 0), c.ring.owner(key, 1)
	backends[owner].Close() // its port now refuses connections

	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	m := c.Metrics()
	if m.Requests != 2 || m.Retries != 1 || m.LocalFallbacks != 0 {
		t.Fatalf("requests=%d retries=%d fallbacks=%d, want 2/1/0", m.Requests, m.Retries, m.LocalFallbacks)
	}
	if o := m.Backends[owner]; o.Requests != 1 || o.Failures != 1 {
		t.Fatalf("owner backend = %+v, want 1 request, 1 failure", o)
	}
	if s := m.Backends[successor]; s.Requests != 1 || s.Failures != 0 {
		t.Fatalf("successor backend = %+v, want 1 request, 0 failures", s)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestCancelAbandonsHungBackend: a backend that never answers holds its
// job until the caller's context ends. Cancelling it makes RunAll return
// context.Canceled, with no local run and no failure charged to the
// backend, and once the coordinator and backend are closed the abandoned
// exchange has left no goroutine behind.
func TestCancelAbandonsHungBackend(t *testing.T) {
	before := runtime.NumGoroutine()
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()
	tr := &servetest.Tripper{}
	tr.Script(servetest.FaultSpec{Fault: servetest.Hang})
	sent := make(chan struct{}, 1) // the one request's arrival
	c, err := New(Options{
		Backends: []string{b.URL},
		Client: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			sent <- struct{}{}
			return tr.RoundTrip(req)
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgs := []pipeline.Config{testCfg(t, "gcc", 4)}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunAll(ctx, cfgs)
		done <- err
	}()
	<-sent
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunAll = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll still running 10s after its context was cancelled")
	}
	m := c.Metrics()
	if m.Requests != 1 || m.Retries != 0 || m.LocalFallbacks != 0 || m.Backends[0].Failures != 0 {
		t.Fatalf("metrics after cancel = %+v, want 1 request and nothing else", m)
	}

	c.Close()
	b.Close()
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after Close", before, after)
	}
}

// TestEmptyFleetRunsLocally: a coordinator with no backends is legal and
// is simply the local engine.
func TestEmptyFleetRunsLocally(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfgs := []pipeline.Config{testCfg(t, "go", 5)}
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))
	if m := c.Metrics(); m.LocalFallbacks != 1 {
		t.Fatalf("local fallbacks = %d, want 1", m.LocalFallbacks)
	}
}

// TestLocalFallbackThroughLocal: a job the dead fleet did not serve runs
// through Options.Local as a batch of one, and a failing job's error
// names its own position once, as a local batch's error does.
func TestLocalFallbackThroughLocal(t *testing.T) {
	var mu sync.Mutex
	var batches []int
	c, err := New(Options{
		Backends: []string{"http://127.0.0.1:9"},
		After:    (&instantClock{}).After,
		Local: func(ctx context.Context, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
			mu.Lock()
			batches = append(batches, len(cfgs))
			mu.Unlock()
			return loosesim.RunAllContext(ctx, cfgs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := []pipeline.Config{testCfg(t, "gcc", 3), testCfg(t, "swim", 4)}
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))
	if !slices.Equal(batches, []int{1, 1}) {
		t.Fatalf("Local ran batches of %v, want one batch of one per job", batches)
	}

	bad := testCfg(t, "gcc", 1)
	bad.CycleBudget = 1
	_, err = c.RunAll(context.Background(), []pipeline.Config{testCfg(t, "gcc", 3), bad})
	if !errors.Is(err, pipeline.ErrCycleBudget) || !strings.HasPrefix(err.Error(), "config 1: pipeline: ") {
		t.Fatalf("fallback error = %v, want config 1's cycle-budget error named once", err)
	}
}

// TestRunAllFirstErrorPosition checks the RunAllContext-compatible error
// contract: validation errors fail fast with the config's position, and
// the first error in input order wins.
func TestRunAllFirstErrorPosition(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := testCfg(t, "gcc", 1)
	bad.FwdDepth = -1
	cfgs := []pipeline.Config{testCfg(t, "gcc", 1), bad, testCfg(t, "gcc", 2)}
	if _, err := c.RunAll(context.Background(), cfgs); err == nil || !strings.Contains(err.Error(), "config 1") {
		t.Fatalf("validation error = %v, want position config 1", err)
	}

	// Matching loosesim.RunAllContext: the same batch must produce an
	// error naming the same position.
	if _, lerr := loosesim.RunAllContext(context.Background(), cfgs); lerr == nil || !strings.Contains(lerr.Error(), "config 1") {
		t.Fatalf("RunAllContext baseline error = %v, want position config 1", lerr)
	}
}

// TestSimErrorIsPermanent: a failure reported by a healthy backend (here
// an exhausted cycle budget) must surface immediately — no retries, no
// local fallback, and no failure charged to the backend.
func TestSimErrorIsPermanent(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	c, err := New(Options{
		Backends: []string{b.URL},
		After:    (&instantClock{}).After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := testCfg(t, "gcc", 1)
	cfg.CycleBudget = 1
	_, err = c.RunAll(context.Background(), []pipeline.Config{cfg})
	if err == nil || !strings.Contains(err.Error(), "config 0") {
		t.Fatalf("cycle-budget error = %v, want config 0 position", err)
	}
	m := c.Metrics()
	if m.Requests != 1 || m.Retries != 0 || m.LocalFallbacks != 0 {
		t.Fatalf("requests=%d retries=%d fallbacks=%d, want 1/0/0", m.Requests, m.Retries, m.LocalFallbacks)
	}
	if m.Backends[0].Failures != 0 {
		t.Fatalf("backend charged for a simulation failure: %+v", m.Backends[0])
	}
}

// TestBackpressureHonorsRetryAfter drives one job through two injected
// 429s and checks the coordinator sleeps exactly the Retry-After hints
// (capped at the 2s backoff cap) instead of the jittered schedule, counts
// them as backpressure rather than retries, and never charges the
// shedding backend with a failure.
func TestBackpressureHonorsRetryAfter(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	tr := &servetest.Tripper{}
	tr.Script(
		servetest.FaultSpec{Fault: servetest.Status429, RetryAfter: 5}, // over the cap
		servetest.FaultSpec{Fault: servetest.Status429, RetryAfter: 1},
	)
	clock := &instantClock{}
	c, err := New(Options{
		Backends: []string{b.URL},
		Client:   &http.Client{Transport: tr},
		Jitter:   func() float64 { return 0 },
		After:    clock.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := []pipeline.Config{testCfg(t, "gcc", 11)}
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	// 5s hint capped at the 2s backoff cap, then the 1s hint verbatim —
	// and neither is the jittered 25ms/50ms schedule TestRetrySchedule
	// pins for transport failures.
	wantDelays := []time.Duration{2 * time.Second, time.Second}
	if gotDelays := clock.delays(); fmt.Sprint(gotDelays) != fmt.Sprint(wantDelays) {
		t.Fatalf("backpressure delays = %v, want %v", gotDelays, wantDelays)
	}

	m := c.Metrics()
	if m.Requests != 3 || m.Backpressure != 2 || m.Retries != 0 {
		t.Fatalf("requests=%d backpressure=%d retries=%d, want 3/2/0", m.Requests, m.Backpressure, m.Retries)
	}
	if m.Backends[0].Failures != 0 {
		t.Fatalf("backend charged for shedding load: %+v", m.Backends[0])
	}
	if tr.Remaining() != 0 {
		t.Fatalf("unconsumed faults: %d", tr.Remaining())
	}
}
