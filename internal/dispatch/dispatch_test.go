package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
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
	base, ceil := 50*time.Millisecond, 2*time.Second
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
		if got := backoff(tc.attempt, base, ceil, tc.jitter); got != tc.want {
			t.Errorf("%s: backoff(%d, jitter=%v) = %v, want %v", tc.name, tc.attempt, tc.jitter, got, tc.want)
		}
	}
}

// TestRingStableUnderEjection is the shard-stability property: ejecting a
// backend moves only the keys it owned, and readmitting it restores the
// original assignment exactly.
func TestRingStableUnderEjection(t *testing.T) {
	urls := make([]string, 5)
	for i := range urls {
		urls[i] = "http://backend-" + strconv.Itoa(i) + ":8080"
	}
	r := newRing(urls)
	all := func(int) bool { return true }

	const nkeys = 1000
	keys := make([]string, nkeys)
	before := make([]int, nkeys)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		before[i] = r.owner(keys[i], all, -1)
		if before[i] < 0 || before[i] >= len(urls) {
			t.Fatalf("key %d: owner %d out of range", i, before[i])
		}
	}

	const ejected = 2
	without := func(b int) bool { return b != ejected }
	moved := 0
	for i := range keys {
		after := r.owner(keys[i], without, -1)
		if after == ejected {
			t.Fatalf("key %d assigned to ejected backend", i)
		}
		switch {
		case before[i] == ejected:
			moved++
		case after != before[i]:
			t.Fatalf("key %d moved from %d to %d though its owner %d stayed admitted",
				i, before[i], after, before[i])
		}
	}
	if moved == 0 {
		t.Fatal("ejected backend owned no keys; property vacuous (raise nkeys)")
	}

	for i := range keys {
		if got := r.owner(keys[i], all, -1); got != before[i] {
			t.Fatalf("key %d: assignment after readmission = %d, want %d", i, got, before[i])
		}
	}
}

func TestRingExclude(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(urls)
	all := func(int) bool { return true }
	for i := 0; i < 100; i++ {
		key := "k" + strconv.Itoa(i)
		primary := r.owner(key, all, -1)
		secondary := r.owner(key, all, primary)
		if secondary == primary {
			t.Fatalf("key %q: secondary = primary = %d", key, primary)
		}
		if secondary < 0 {
			t.Fatalf("key %q: no secondary in a 3-backend fleet", key)
		}
	}
	one := newRing(urls[:1])
	if got := one.owner("k", all, 0); got != -1 {
		t.Fatalf("single-backend ring with owner excluded: got %d, want -1", got)
	}
}

// instantClock fires every timer immediately and records the requested
// durations — except durations equal to park, whose channels never fire
// (used to idle the probe loop out of the way).
type instantClock struct {
	park time.Duration

	mu    sync.Mutex
	fired []time.Duration
}

func (c *instantClock) After(d time.Duration) <-chan time.Time {
	if d == c.park {
		return make(chan time.Time)
	}
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

const parkProbes = 12345 * time.Hour

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
	clock := &instantClock{park: parkProbes}
	c, err := New(Options{
		Backends:      []string{b.URL},
		Client:        &http.Client{Transport: tr},
		Attempts:      4,
		BackoffBase:   50 * time.Millisecond,
		BackoffCap:    2 * time.Second,
		ProbeInterval: parkProbes,
		Jitter:        func() float64 { return 0 },
		After:         clock.After,
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
	if m.Backends[0].Failures != 2 || m.Backends[0].Down {
		t.Fatalf("backend metrics = %+v, want 2 failures and not down", m.Backends[0])
	}
	if tr.Remaining() != 0 {
		t.Fatalf("unconsumed faults: %d", tr.Remaining())
	}
}

// TestHedgeRescuesHungPrimary aims a black-hole fault at the key's owner
// and checks the hedge fires, wins, and the hung request is not charged
// against the primary's health.
func TestHedgeRescuesHungPrimary(t *testing.T) {
	before := runtime.NumGoroutine()
	backends, closeAll := servetest.StartBackends(2, serve.Options{Workers: 1})
	defer closeAll()
	urls := servetest.URLs(backends)

	cfgs := []pipeline.Config{testCfg(t, "swim", 3)}
	key, err := serve.ConfigKey(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}

	clock := &instantClock{park: parkProbes}
	tr := &servetest.Tripper{}
	c, err := New(Options{
		Backends:      urls,
		Client:        &http.Client{Transport: tr},
		HedgeDelay:    77 * time.Millisecond,
		ProbeInterval: parkProbes,
		Jitter:        func() float64 { return 0 },
		After:         clock.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	primary := c.pick(key, -1)
	if primary < 0 {
		t.Fatal("no primary")
	}
	primaryHost := strings.TrimPrefix(urls[primary], "http://")
	tr.Match = func(r *http.Request) bool { return r.URL.Host == primaryHost }
	tr.Script(servetest.FaultSpec{Fault: servetest.Hang})

	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	m := c.Metrics()
	if m.Hedges != 1 || m.HedgesWon != 1 {
		t.Fatalf("hedges = %d won = %d, want 1 and 1", m.Hedges, m.HedgesWon)
	}
	if m.Requests != 2 || m.Retries != 0 {
		t.Fatalf("requests = %d retries = %d, want 2 and 0", m.Requests, m.Retries)
	}
	// The hung request ended by our own cancellation; the primary's
	// health must be untouched.
	if m.Backends[primary].Failures != 0 || m.Backends[primary].Down {
		t.Fatalf("primary charged for a hedge-cancelled request: %+v", m.Backends[primary])
	}

	// The abandoned primary is the one request dispatch gives up on by
	// design; once the coordinator and backends are down, neither it nor
	// the hedge may have left a goroutine behind.
	c.Close()
	closeAll()
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after Close", before, after)
	}
}

// TestBatchLocalDegradeWhenAllDown covers the batch-level degrade: with
// every backend ejected before the batch starts, RunAll runs the whole
// batch through the local engine in one shot.
func TestBatchLocalDegradeWhenAllDown(t *testing.T) {
	c, err := New(Options{
		Backends:      []string{"http://127.0.0.1:9", "http://127.0.0.1:10"},
		ProbeInterval: parkProbes,
		After:         (&instantClock{park: parkProbes}).After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bk := range c.backends {
		bk.down.Store(true)
	}

	cfgs := []pipeline.Config{testCfg(t, "gcc", 1), testCfg(t, "comp", 2)}
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	m := c.Metrics()
	if m.LocalFallbacks != 1 {
		t.Fatalf("local fallbacks = %d, want exactly 1 (one batch degrade)", m.LocalFallbacks)
	}
	if m.Requests != 0 {
		t.Fatalf("requests = %d, want 0 (nothing should touch the fleet)", m.Requests)
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
// local fallback, and no health penalty for the backend.
func TestSimErrorIsPermanent(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	clock := &instantClock{park: parkProbes}
	c, err := New(Options{
		Backends:      []string{b.URL},
		ProbeInterval: parkProbes,
		After:         clock.After,
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
// (capped at BackoffCap) instead of the jittered schedule, counts them as
// backpressure rather than retries, and never charges the shedding
// backend's health.
func TestBackpressureHonorsRetryAfter(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	tr := &servetest.Tripper{}
	tr.Script(
		servetest.FaultSpec{Fault: servetest.Status429, RetryAfter: 5}, // over the cap
		servetest.FaultSpec{Fault: servetest.Status429, RetryAfter: 1},
	)
	clock := &instantClock{park: parkProbes}
	c, err := New(Options{
		Backends:      []string{b.URL},
		Client:        &http.Client{Transport: tr},
		Attempts:      4,
		BackoffBase:   50 * time.Millisecond,
		BackoffCap:    2 * time.Second,
		ProbeInterval: parkProbes,
		Jitter:        func() float64 { return 0 },
		After:         clock.After,
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

	// 5s hint capped at the 2s BackoffCap, then the 1s hint verbatim —
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
	if m.Backends[0].Failures != 0 || m.Backends[0].Down {
		t.Fatalf("backend charged for shedding load: %+v", m.Backends[0])
	}
	if tr.Remaining() != 0 {
		t.Fatalf("unconsumed faults: %d", tr.Remaining())
	}
}
