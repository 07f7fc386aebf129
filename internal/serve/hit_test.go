package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"loosesim/internal/pipeline"
)

// post submits body through h with ?wait=1 and returns the status code and
// the response body.
func post(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs?wait=1", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// postWait is post failing unless the job finished.
func postWait(t testing.TB, h http.Handler, body []byte) []byte {
	t.Helper()
	code, got := post(h, body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, got)
	}
	return got
}

// getBody fetches path through h and returns the response body.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// encodeStatus is the response body json.Encoder writes for v.
func encodeStatus(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// indexed reports whether srv's request index holds body.
func indexed(srv *Server, body []byte) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	_, ok := srv.requests[sha256.Sum256(body)]
	return ok
}

// TestResponsesMatchStatusEncoding pins the HTTP bodies of a simulated
// job and of a cache hit, from both stores, to json.Encoder's encoding of
// the jobs' Status: serving a hit from the stored bytes must not change
// a byte of the wire format. The hit comes twice: first as a body the
// server has not seen (decoded), then as the same bytes again (answered
// from the request index), and the two bodies differ only in the job ID.
func TestResponsesMatchStatusEncoding(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		store Store
	}{{"mem", NewMemStore()}, {"dir", dir}} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(Options{Workers: 1, Store: c.store})
			defer srv.Close()
			h := srv.Handler()
			cfg := simCfg(t, "m88-comp", 3)
			spec := JobSpec{Config: &cfg}
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			// The same spec in other bytes: a digest the index has not seen.
			reworded, err := json.MarshalIndent(spec, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			var results, bodies [][]byte
			var ids []string
			for i, sub := range []struct {
				body       []byte
				wantCached bool
				wantIndex  bool // the index holds the body before it is posted
			}{{body, false, false}, {reworded, true, false}, {reworded, true, true}} {
				if got := indexed(srv, sub.body); got != sub.wantIndex {
					t.Fatalf("submission %d: indexed before posting = %v, want %v", i, got, sub.wantIndex)
				}
				got := postWait(t, h, sub.body)
				if !indexed(srv, sub.body) {
					t.Fatalf("submission %d: a cacheable body was not indexed", i)
				}
				var st Status
				if err := json.Unmarshal(got, &st); err != nil {
					t.Fatal(err)
				}
				if st.Cached != sub.wantCached || st.Result == nil {
					t.Fatalf("cached = %v, result %v; want cached %v and a result", st.Cached, st.Result != nil, sub.wantCached)
				}
				job, ok := srv.Job(st.ID)
				if !ok {
					t.Fatalf("no job %s", st.ID)
				}
				want := encodeStatus(t, job.Status())
				if !bytes.Equal(got, want) {
					t.Fatalf("?wait=1 body differs from the Status encoding:\n got %s\nwant %s", got, want)
				}
				if one := getBody(t, h, "/api/v1/jobs/"+st.ID); !bytes.Equal(one, want) {
					t.Fatalf("GET /jobs/%s body differs from the Status encoding:\n got %s\nwant %s", st.ID, one, want)
				}
				r, err := json.Marshal(st.Result)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
				bodies = append(bodies, got)
				ids = append(ids, st.ID)
			}
			for _, r := range results[1:] {
				if !bytes.Equal(results[0], r) {
					t.Fatalf("hit result differs from the simulated one:\n%s\n%s", r, results[0])
				}
			}
			idField := func(id string) []byte { return []byte(`"id":"` + id + `"`) }
			if got := bytes.Replace(bodies[2], idField(ids[2]), idField(ids[1]), 1); !bytes.Equal(got, bodies[1]) {
				t.Fatalf("indexed hit body differs from the decoded hit's beyond the job ID:\n got %s\nwant %s", bodies[2], bodies[1])
			}
			if got, want := getBody(t, h, "/api/v1/jobs"), encodeStatus(t, srv.Jobs()); !bytes.Equal(got, want) {
				t.Fatalf("GET /jobs body differs from the Jobs encoding:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStatusResultNotAliased mutates the Results that Status hands out
// and checks that neither the next Status nor the next hit's response
// sees the change.
func TestStatusResultNotAliased(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 5)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(postWait(t, h, body), &st); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := srv.Job(st.ID)
	scribble := func(s Status) {
		s.Result.Counters.Cycles = -1
		s.Result.Benchmark = "scribbled"
		s.Result.OperandGap.Add(3)
	}
	scribble(job.Status())
	got, err := json.Marshal(job.Status().Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mutating a simulated job's Status result changed the next Status:\n got %s\nwant %s", got, want)
	}

	var hit Status
	if err := json.Unmarshal(postWait(t, h, body), &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second submission was not a cache hit")
	}
	hj, _ := srv.Job(hit.ID)
	scribble(hj.Status())
	var next Status
	if err := json.Unmarshal(postWait(t, h, body), &next); err != nil {
		t.Fatal(err)
	}
	for _, res := range []*pipeline.Result{hit.Result, hj.Status().Result, next.Result} {
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hit result changed by a caller's mutation:\n got %s\nwant %s", got, want)
		}
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHitRetainedHeap bounds what the server keeps for each cache hit:
// the job record, not a decoded copy of the result or of the request.
func TestHitRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("5000 submissions")
	}
	const hits = 5000
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 6)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	postWait(t, h, body) // the cold run that warms the cache
	postWait(t, h, body)
	before := liveHeap()
	for i := 0; i < hits; i++ {
		postWait(t, h, body)
	}
	after := liveHeap()
	perHit := (float64(after) - float64(before)) / hits
	t.Logf("retained heap per hit: %.0f B", perHit)
	if perHit > 1024 {
		t.Fatalf("retained heap per hit = %.0f B, want <= 1024", perHit)
	}
	if n := srv.Metrics().Cache.Hits; n != hits+1 {
		t.Fatalf("cache hits = %d, want %d", n, hits+1)
	}
}

// TestFinishedJobsReleaseSpecs submits raw-config jobs, no-cache and
// cached alike, each with its own *pipeline.Config, drops every reference
// the submitter held, and checks that the finished jobs keep none of the
// configs alive: every config's finalizer must run.
func TestFinishedJobsReleaseSpecs(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	const jobs = 10
	var released atomic.Int32
	for i := 0; i < jobs; i++ {
		cfg := new(pipeline.Config)
		*cfg = simCfg(t, "gcc", 8)
		cfg.WarmupInstructions = 500
		cfg.MeasureInstructions = 1_000
		runtime.SetFinalizer(cfg, func(*pipeline.Config) { released.Add(1) })
		// The first cached job runs and the later ones hit.
		job, err := srv.Submit(JobSpec{Config: cfg, NoCache: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st := job.Status(); st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
	}
	// Finalizers run on their own goroutine after the collection that
	// finds their object unreachable.
	for try := 0; try < 100 && released.Load() < jobs; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := released.Load(); n != jobs {
		t.Fatalf("%d of %d submitted configs released after their jobs finished", n, jobs)
	}
}

// BenchmarkServeHit times one ?wait=1 cache hit through the HTTP handler
// on a warmed in-memory store, for a body the server has seen before:
// reading and hashing the body, the request-index and store lookups, the
// job record and the response. The request is not decoded.
func BenchmarkServeHit(b *testing.B) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(b, "gcc", 9)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	postWait(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postWait(b, h, body)
	}
}
