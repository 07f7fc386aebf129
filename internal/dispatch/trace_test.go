package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
	"loosesim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTraceRetrySiblingSpans drives one job through two scripted transport
// failures and checks the span tree: one trace, one root, three sibling
// post attempts of which only the last is the winner, and a backoff span
// per retry wait.
func TestTraceRetrySiblingSpans(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1})
	defer b.Close()

	tr := &servetest.Tripper{}
	tr.Script(
		servetest.FaultSpec{Fault: servetest.DropConn},
		servetest.FaultSpec{Fault: servetest.DropConn},
	)
	var sink trace.Collector
	tracer := trace.New(trace.Options{Seed: 1, Sink: &sink})
	c, err := New(Options{
		Backends: []string{b.URL},
		Client:   &http.Client{Transport: tr},
		Jitter:   func() float64 { return 0 },
		After:    (&instantClock{}).After,
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfgs := []pipeline.Config{testCfg(t, "gcc", 7)}
	if _, err := c.RunAll(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	if n := tracer.Open(); n != 0 {
		t.Fatalf("open spans after RunAll = %d, want 0", n)
	}

	spans := sink.Spans()
	traceID := spans[0].Trace
	var posts, backoffs, winners int
	var root trace.Span
	for _, s := range spans {
		if s.Trace != traceID {
			t.Fatalf("second trace ID %s in a one-job run (first %s)", s.Trace, traceID)
		}
		switch s.Name {
		case "job":
			root = s
		case "post":
			posts++
			if s.Parent != root.Span {
				t.Fatalf("post span parent = %d, want root %d", s.Parent, root.Span)
			}
			if s.Winner {
				winners++
				if s.Status != "ok" {
					t.Fatalf("winning post status = %q, want ok", s.Status)
				}
			} else if s.Status != "error" {
				t.Fatalf("failed post status = %q, want error", s.Status)
			}
		case "backoff":
			backoffs++
		}
	}
	if root.Span != 1 || root.Status != "ok" {
		t.Fatalf("root span = %+v, want span 1 status ok", root)
	}
	if posts != 3 || backoffs != 2 || winners != 1 {
		t.Fatalf("posts = %d backoffs = %d winners = %d, want 3, 2, 1", posts, backoffs, winners)
	}
}

// TestTraceStreamByteIdentical runs the same faulted single-job scenario
// twice — fresh backend, coordinator, and writer each time, with a
// constant injected clock — and demands byte-identical span streams.
func TestTraceStreamByteIdentical(t *testing.T) {
	run := func() []byte {
		b := servetest.StartBackend(serve.Options{Workers: 1})
		defer b.Close()
		tr := &servetest.Tripper{}
		tr.Script(servetest.FaultSpec{Fault: servetest.Status500})
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		tracer := trace.New(trace.Options{
			Seed: 9,
			Now:  func() time.Time { return time.Unix(0, 424242) },
			Sink: w,
		})
		c, err := New(Options{
			Backends: []string{b.URL},
			Client:   &http.Client{Transport: tr},
			Jitter:   func() float64 { return 0 },
			After:    (&instantClock{}).After,
			Tracer:   tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cfgs := []pipeline.Config{testCfg(t, "comp", 5)}
		if _, err := c.RunAll(context.Background(), cfgs); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("span streams differ across identical runs:\n%s\nvs\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty span stream")
	}
}

// TestTraceOffCountersIdentical runs the same scenario with tracing on and
// off and demands identical coordinator metrics — tracing must observe,
// never steer.
func TestTraceOffCountersIdentical(t *testing.T) {
	run := func(tracer *trace.Tracer) Metrics {
		b := servetest.StartBackend(serve.Options{Workers: 1})
		defer b.Close()
		tr := &servetest.Tripper{}
		tr.Script(
			servetest.FaultSpec{Fault: servetest.DropConn},
			servetest.FaultSpec{Fault: servetest.Status500},
		)
		c, err := New(Options{
			Backends: []string{b.URL},
			Client:   &http.Client{Transport: tr},
			Jitter:   func() float64 { return 0 },
			After:    (&instantClock{}).After,
			Tracer:   tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cfgs := []pipeline.Config{testCfg(t, "gcc", 2), testCfg(t, "swim", 2)}
		if _, err := c.RunAll(context.Background(), cfgs); err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		// Loopback ports differ between the two fleets; the counters are
		// what must match.
		for i := range m.Backends {
			m.Backends[i].URL = ""
		}
		return m
	}

	var sink trace.Collector
	on := run(trace.New(trace.Options{Seed: 1, Sink: &sink}))
	off := run(nil)
	onJSON, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	offJSON, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onJSON, offJSON) {
		t.Fatalf("metrics diverge with tracing on:\non:  %s\noff: %s", onJSON, offJSON)
	}
	if len(sink.Spans()) == 0 {
		t.Fatal("tracing-on run recorded no spans")
	}
}

// TestTraceFleetGolden runs a 16-config grid through a two-backend traced
// fleet twice — every job runs on a worker the first time and hits the
// backend cache the second — and pins the whole span stream byte for byte
// to testdata/fleet_trace.jsonl. No clock is injected, so spans carry zero
// timestamps and the stream is pure structure. Run
// `go test -run TestTraceFleetGolden -update` after a deliberate change to
// the span model.
func TestTraceFleetGolden(t *testing.T) {
	var cfgs []pipeline.Config
	for seed := int64(1); seed <= 4; seed++ {
		for _, bench := range []string{"gcc", "comp", "swim", "m88-comp"} {
			cfgs = append(cfgs, testCfg(t, bench, seed))
		}
	}
	want := localBaseline(t, cfgs)

	// One tracer serves both sides: the coordinator roots job traces
	// (every key in the grid is distinct, so occurrence order cannot race)
	// and the backends only continue coordinator parents.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	tracer := trace.New(trace.Options{Seed: 1, Sink: w})
	backends, closeAll := servetest.StartBackends(2, serve.Options{Workers: 2, Tracer: tracer})
	defer closeAll()
	// The consistent-hash ring shards by backend URL and loopback servers
	// sit on ephemeral ports, so the coordinator gets stable names that
	// the transport rewrites to the real addresses: the same fleet
	// identity on every run is what makes shard assignment, and therefore
	// the span stream, byte-identical.
	stable := []string{"http://fleet-0.invalid", "http://fleet-1.invalid"}
	rt := rewriteTransport{}
	for i, u := range servetest.URLs(backends) {
		rt[strings.TrimPrefix(stable[i], "http://")] = strings.TrimPrefix(u, "http://")
	}
	c, err := New(Options{
		Backends: stable,
		Client:   &http.Client{Transport: rt},
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for pass := 1; pass <= 2; pass++ {
		got, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		assertByteIdentical(t, got, want)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	checkFleetSpans(t, stream, len(cfgs))

	golden := filepath.Join("testdata", "fleet_trace.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(stream, pinned) {
		t.Fatalf("fleet span stream drifted from %s (%d bytes, golden %d)", golden, len(stream), len(pinned))
	}
}

// rewriteTransport maps stable backend host names to loopback addresses.
type rewriteTransport map[string]string

func (rt rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if host, ok := rt[req.URL.Host]; ok {
		req = req.Clone(req.Context())
		req.URL.Host = host
	}
	return http.DefaultTransport.RoundTrip(req)
}

// checkFleetSpans checks that a two-pass stream reconstructs every job's
// path: one trace per submission, each rooted by a single coordinator job
// span, with a winning post and a backend serve span whose parent is in
// the trace; each config contributes one trace that ran on a worker and
// one that hit the backend cache.
func checkFleetSpans(t *testing.T, stream []byte, jobs int) {
	t.Helper()
	byTrace := make(map[string][]trace.Span)
	var order []string
	for i, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var s trace.Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %d: %v", i+1, err)
		}
		if _, seen := byTrace[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var ran, hits int
	for _, id := range order {
		spans := byTrace[id]
		ids := make(map[uint64]bool, len(spans))
		roots := 0
		for _, s := range spans {
			ids[s.Span] = true
			if s.Parent == 0 {
				roots++
				if s.Name != "job" {
					t.Fatalf("trace %s rooted by %q, want job", id, s.Name)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("trace %s has %d roots, want 1", id, roots)
		}
		var hasPost, hasServe, hasRun, hasHit bool
		for _, s := range spans {
			switch s.Name {
			case "post":
				hasPost = true
				if !s.Winner {
					t.Fatalf("trace %s: unfaulted post not marked winner", id)
				}
			case "serve":
				hasServe = true
				if !ids[s.Parent] {
					t.Fatalf("trace %s: serve span parent %d not in trace", id, s.Parent)
				}
			case "run":
				hasRun = true
			case "cache":
				hasHit = hasHit || s.Status == "hit"
			}
		}
		switch {
		case !hasPost || !hasServe:
			t.Fatalf("trace %s misses post/serve spans (post=%v serve=%v)", id, hasPost, hasServe)
		case hasRun:
			ran++
		case hasHit:
			hits++
		default:
			t.Fatalf("trace %s neither ran nor hit the cache", id)
		}
	}
	if len(order) != 2*jobs || ran != jobs || hits != jobs {
		t.Fatalf("%d job traces (%d ran, %d cache hits), want %d with %d of each", len(order), ran, hits, 2*jobs, jobs)
	}
}
