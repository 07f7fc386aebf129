package dispatch

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"loosesim/internal/sample"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
	"loosesim/internal/trace"
)

// TestRunSampledMatchesLocal is the fleet-sampling acceptance case: a
// sampled run sharded window-by-window over in-process backends must
// merge to an estimate byte-identical to sample.Run executing serially in
// this process — and resubmitting the same run must hit the backend cache
// through the checkpoint-digest keys.
func TestRunSampledMatchesLocal(t *testing.T) {
	backends, closeAll := servetest.StartBackends(2, serve.Options{Workers: 2})
	defer closeAll()

	c, err := New(Options{Backends: servetest.URLs(backends)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := testCfg(t, "gcc", 3)
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 6_000
	opt := sample.Options{Windows: 4, WindowInstructions: 1_000, DetailedWarmup: 500}

	want, err := sample.Run(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunSampled(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("fleet estimate differs from local sampler:\nfleet: %s\nlocal: %s", g, w)
	}

	again, err := c.RunSampled(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, again), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatal("second sampled run diverged")
	}
	if m := c.Metrics(); m.CacheHits == 0 {
		t.Fatalf("repeat sampled run produced no cache hits: %+v", m)
	}
}

// TestRunSampledShardKeysMatchBackend: the key a window job is sharded by
// is the key the backend files its result under, so a repeat run of a
// window lands on the node whose cache holds it.
func TestRunSampledShardKeysMatchBackend(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 2})
	defer b.Close()
	var sink trace.Collector
	c, err := New(Options{Backends: []string{b.URL}, Tracer: trace.New(trace.Options{Seed: 1, Sink: &sink})})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := testCfg(t, "swim", 2)
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 3_000
	opt := sample.Options{Windows: 3, WindowInstructions: 500, DetailedWarmup: 200}
	if _, err := c.RunSampled(context.Background(), cfg, opt); err != nil {
		t.Fatal(err)
	}
	var shard, filed []string
	for _, s := range sink.Spans() {
		if s.Name == "job" {
			shard = append(shard, s.Key)
		}
	}
	for _, st := range b.Server.Jobs() {
		filed = append(filed, st.Key)
	}
	slices.Sort(shard)
	slices.Sort(filed)
	if len(shard) != opt.Windows || !slices.Equal(shard, filed) {
		t.Fatalf("window shard keys %q, backend job keys %q", shard, filed)
	}
}

// TestRunSampledLocalFallback points the coordinator at dead ports: every
// window must degrade to a local restore-and-run and the merged estimate
// must still match the serial sampler byte for byte.
func TestRunSampledLocalFallback(t *testing.T) {
	c, err := New(Options{
		Backends: []string{"http://127.0.0.1:9"},
		After:    (&instantClock{}).After,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := testCfg(t, "m88", 1)
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 3_000
	opt := sample.Options{Windows: 3, WindowInstructions: 800, DetailedWarmup: 400}

	want, err := sample.Run(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunSampled(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("fallback estimate differs from local sampler:\nfleet: %s\nlocal: %s", g, w)
	}
	if m := c.Metrics(); m.LocalFallbacks == 0 {
		t.Fatalf("expected local fallbacks against a dead fleet: %+v", m)
	}
}

// TestRunSampledRejectsZeroPeriod: more windows than measured
// instructions fails in the warming chain before any window is
// dispatched.
func TestRunSampledRejectsZeroPeriod(t *testing.T) {
	c, err := New(Options{Backends: []string{"http://127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := testCfg(t, "gcc", 1)
	cfg.MeasureInstructions = 5
	opt := sample.Options{Windows: 8, WindowInstructions: 800, DetailedWarmup: 400}
	if _, err := c.RunSampled(context.Background(), cfg, opt); err == nil || !strings.Contains(err.Error(), "zero sampling period") {
		t.Fatalf("RunSampled = %v, want a zero-sampling-period error", err)
	}
	if m := c.Metrics(); m.Requests != 0 || m.LocalFallbacks != 0 {
		t.Fatalf("a window was dispatched: %+v", m)
	}
}
