package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loosesim"
	"loosesim/internal/dispatch"
	"loosesim/internal/serve"
	"loosesim/internal/serve/servetest"
)

// TestTimedTransportWaitsForBody checks that a submission's latency runs
// until the client has the whole response, not just its headers, and
// that only POSTs made while switched on are timed.
func TestTimedTransportWaitsForBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(30 * time.Millisecond)
		_, _ = io.WriteString(w, `{"state":"done"}`)
	}))
	defer srv.Close()
	tr := &timedTransport{next: &http.Transport{}}
	defer tr.next.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	post := func() {
		resp, err := client.Post(srv.URL, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post() // off: not timed
	tr.set(true, true)
	post()
	resp, err := client.Get(srv.URL) // not a submission: not timed
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.latencies) != 1 || tr.latencies[0] < 30 {
		t.Fatalf("latencies %v ms, want one of at least 30", tr.latencies)
	}
	if len(tr.bodies) != 1 || string(tr.bodies[0]) != `{"state":"done"}` {
		t.Fatalf("captured %q", tr.bodies)
	}
}

// TestColdSpeedFromJobRecord checks that a cold job's speed comes from
// the server's job record: a ?wait=1 response can be written before the
// server records the job's KIPS, and then carries 0.
func TestColdSpeedFromJobRecord(t *testing.T) {
	b := servetest.StartBackend(serve.Options{Workers: 1, Now: time.Now})
	defer b.Close()
	warm := uint64(1_000)
	var jobs []*serve.Job
	for seed := int64(1); seed <= 2; seed++ {
		j, err := b.Server.Submit(serve.JobSpec{Bench: "gcc", Seed: seed, Warmup: &warm, Inst: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// One worker: it recorded the first job's speed before it took the second.
	<-jobs[1].Done()
	st := jobs[0].Status()
	body, err := json.Marshal(serve.Status{ID: st.ID, State: serve.StateDone, Key: st.Key})
	if err != nil {
		t.Fatal(err)
	}
	e := quickEnv(t, nil)
	ph := newPhase(1)
	ph.latencies = []float64{1}
	if err := tallyServed(e, ph, b.Server, [][]byte{body}, 1, 1, dispatch.Metrics{}, dispatch.Metrics{Requests: 1}); err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || len(ph.speeds[st.Key]) != 1 || ph.speeds[st.Key][0] != st.KIPS {
		t.Fatalf("failed %d, speeds %v, want the job's %v: %v", ph.failed, ph.speeds, st.KIPS, e.chk.problems)
	}
}

// TestServedSweepColdThenCached runs the quick sweep twice: the cold pass
// simulates every cell, the repeat answers every cell from the cache with
// the same bytes, and every submission is timed.
func TestServedSweepColdThenCached(t *testing.T) {
	e := quickEnv(t, nil)
	ctx := context.Background()
	run, err := prepareServed(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := run(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(ph.results)
	if cells == 0 || ph.attempted != 2*cells || ph.failed != 0 {
		t.Fatalf("%d cells, attempted %d, failed %d: %v", cells, ph.attempted, ph.failed, e.chk.problems)
	}
	if len(ph.latencies) != 2*cells || len(ph.speeds) != cells {
		t.Fatalf("%d latencies, %d cold-job speeds for %d cells", len(ph.latencies), len(ph.speeds), cells)
	}
	if got := ph.layer["serve.hit_ratio"]; got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
	if len(ph.configs) != len(loosesim.Benchmarks()) {
		t.Fatalf("%d probe configs, want one per benchmark", len(ph.configs))
	}
}
