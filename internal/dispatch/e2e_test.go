package dispatch

import (
	"context"
	"net/http"
	"testing"
	"time"

	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
)

// sweep24 is the e2e batch: 8 workloads × 3 seeds, the shape of a small
// figure grid.
func sweep24(t *testing.T) []pipeline.Config {
	t.Helper()
	benches := []string{"comp", "gcc", "go", "m88", "apsi", "hydro", "mgrid", "swim"}
	cfgs := make([]pipeline.Config, 0, 24)
	for seed := int64(1); seed <= 3; seed++ {
		for _, bench := range benches {
			cfgs = append(cfgs, testCfg(t, bench, seed))
		}
	}
	return cfgs
}

// TestFleetSweepDeterminism is the headline end-to-end property: a
// 24-config sweep sharded over 3 in-process backends — with a fault
// script (a drop, a 500, a torn body, latency) chewing on the traffic —
// produces results byte-identical to a serial local run.
func TestFleetSweepDeterminism(t *testing.T) {
	backends, closeAll := servetest.StartBackends(3, serve.Options{Workers: 2})
	defer closeAll()

	tr := &servetest.Tripper{}
	// Three failing faults against four attempts per job: even a job that
	// draws all three reaches a backend on its last attempt, so every
	// config must come back from the fleet, not from local fallback.
	const failing = 3
	tr.Script(
		servetest.FaultSpec{Fault: servetest.DropConn},
		servetest.FaultSpec{Fault: servetest.Status500},
		servetest.FaultSpec{Fault: servetest.Latency, Delay: time.Millisecond},
		servetest.FaultSpec{Fault: servetest.TruncateBody},
	)
	c, err := New(Options{
		Backends: servetest.URLs(backends),
		Client:   &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := sweep24(t)
	want := localBaseline(t, cfgs)

	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, want)

	m := c.Metrics()
	if tr.Remaining() != 0 {
		t.Fatalf("unconsumed faults: %d (metrics %+v)", tr.Remaining(), m)
	}
	var failures uint64
	for _, bm := range m.Backends {
		failures += bm.Failures
	}
	if failures != failing || m.Retries != failing {
		t.Fatalf("failures = %d retries = %d, want %d each (metrics %+v)", failures, m.Retries, failing, m)
	}
	if m.LocalFallbacks != 0 {
		t.Fatalf("local fallbacks = %d, want 0 (attempts outnumber faults)", m.LocalFallbacks)
	}

	// Second pass, fleet now healthy: same bytes again, and the
	// shard-by-content-key design must convert repeats into backend
	// cache hits.
	again, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, again, want)
	if m2 := c.Metrics(); m2.CacheHits == 0 {
		t.Fatalf("second identical sweep produced no cache hits: %+v", m2)
	}
}

// TestForcedLocalFallbackDeterminism points the coordinator at a fleet of
// closed ports: every job must degrade to local simulation and the sweep
// must still match the serial baseline byte for byte.
func TestForcedLocalFallbackDeterminism(t *testing.T) {
	c, err := New(Options{
		// TCP port 9 (discard) is closed in any sane test environment;
		// dialing it fails fast.
		Backends: []string{"http://127.0.0.1:9", "http://127.0.0.1:10"},
		After:    (&instantClock{}).After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := sweep24(t)[:8]
	got, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got, localBaseline(t, cfgs))

	m := c.Metrics()
	if m.LocalFallbacks != uint64(len(cfgs)) || m.Requests != attempts*uint64(len(cfgs)) {
		t.Fatalf("against a dead fleet every job must try %d times and run locally: %+v", attempts, m)
	}
}
