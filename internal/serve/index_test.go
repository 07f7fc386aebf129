package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
)

// resultOf returns the "result" member of a job's response body, which is
// always its last member.
func resultOf(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`,"result":`))
	if i < 0 {
		t.Fatalf("response has no result: %s", body)
	}
	return body[i:]
}

// indexCount returns the number of bodies srv's request index holds.
func indexCount(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.requests)
}

// TestRequestIndexSkipsNoCache: a no-cache body is never indexed, so its
// repeat simulates again instead of being answered from the store.
func TestRequestIndexSkipsNoCache(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 11)
	body, err := json.Marshal(JobSpec{Config: &cfg, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var st Status
		if err := json.Unmarshal(postWait(t, h, body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Cached || st.State != StateDone || st.Result == nil {
			t.Fatalf("submission %d: state %s, cached %v, result %v; want a simulated result", i, st.State, st.Cached, st.Result != nil)
		}
		if indexed(srv, body) {
			t.Fatalf("submission %d: a no-cache body was indexed", i)
		}
	}
	if m := srv.Metrics(); m.Cache.Hits != 0 || m.Jobs.Completed != 2 {
		t.Fatalf("cache hits %d, completed %d; want 0 and 2", m.Cache.Hits, m.Jobs.Completed)
	}
}

// TestRequestIndexRejectsBadBodies: a body that does not decode to a valid
// job is never indexed, so every submission of it is a 400 with the same
// error.
func TestRequestIndexRejectsBadBodies(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	for _, body := range []string{
		`{"config":`,
		`not json`,
		`{"bench":"gcc","inst":5000,"priority":1}`,
		`{"config":{"NoSuchField":1}}`,
		`{"bench":"gcc","figure":"4"}`,
		`{"bench":"gcc","warmup":0,"inst":500} trailing garbage`,
		`{"bench":"gcc","warmup":0,"inst":500} {}`,
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			code, got := post(h, []byte(body))
			if code != http.StatusBadRequest {
				t.Fatalf("%s: submission %d: status %d %s, want 400", body, i, code, got)
			}
			if i == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%s: submission %d answered %s, the first %s", body, i, got, first)
			}
		}
	}
	if n := indexCount(srv); n != 0 {
		t.Fatalf("request index holds %d bodies after only bad submissions", n)
	}
}

// TestRequestIndexDraining: an indexed body sent to a draining server is
// refused with a 503, like any other submission, not answered from the
// store.
func TestRequestIndexDraining(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 12)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	postWait(t, h, body)
	postWait(t, h, body)
	if !indexed(srv, body) {
		t.Fatal("a cacheable body was not indexed")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, got := post(h, body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("indexed body while draining: %d %s, want 503", code, got)
	}
	if want := encodeStatus(t, errorBody{Error: ErrDraining.Error()}); !bytes.Equal(got, want) {
		t.Fatalf("draining answer %s, want %s", got, want)
	}
	if m := srv.Metrics(); m.Cache.Hits != 1 || m.Jobs.Submitted != 2 {
		t.Fatalf("cache hits %d, submitted %d after the refusal; want 1 and 2", m.Cache.Hits, m.Jobs.Submitted)
	}
}

// whitespace returns a JSON whitespace prefix unique to i (for i < 4^7):
// i's base-4 digits, each written as one of the four whitespace bytes.
func whitespace(i int) []byte {
	const ws = " \t\n\r"
	b := make([]byte, 7)
	for d := range b {
		b[d] = ws[i%4]
		i /= 4
	}
	return b
}

// TestRequestIndexBounded submits more distinct encodings of one job than
// the index holds: the index never exceeds its cap, and every answer,
// indexed or decoded, is the same cache hit.
func TestRequestIndexBounded(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 13)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(resultOf(t, postWait(t, h, body)))
	const n = requestIndexCap + 10
	check := func(b []byte) {
		t.Helper()
		got := postWait(t, h, b)
		if !bytes.Contains(got, []byte(`"cached":true`)) {
			t.Fatalf("not a cache hit: %s", got)
		}
		if !bytes.Equal(resultOf(t, got), want) {
			t.Fatalf("result differs from the simulated one:\n got %s\nwant %s", resultOf(t, got), want)
		}
		if c := indexCount(srv); c > requestIndexCap {
			t.Fatalf("request index holds %d bodies, cap %d", c, requestIndexCap)
		}
	}
	for i := 0; i < n; i++ {
		check(append(whitespace(i), body...))
	}
	// The first encodings were cleared with the full index, the last are
	// still indexed: both kinds answer alike.
	if indexed(srv, append(whitespace(0), body...)) || !indexed(srv, append(whitespace(n-1), body...)) {
		t.Fatal("a full index was not cleared")
	}
	check(append(whitespace(0), body...))
	check(append(whitespace(n-1), body...))
	if m := srv.Metrics(); m.Cache.Misses != 1 || m.Cache.Hits != n+2 {
		t.Fatalf("cache misses %d, hits %d; want 1 and %d", m.Cache.Misses, m.Cache.Hits, n+2)
	}
}

// TestRequestIndexConcurrent posts a few encodings of one job from several
// goroutines at once, so index lookups and insertions race with each
// other (run it under -race): every answer is the same cache hit.
func TestRequestIndexConcurrent(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	cfg := simCfg(t, "gcc", 15)
	body, err := json.Marshal(JobSpec{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(resultOf(t, postWait(t, h, body)))
	const goroutines, posts = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				b := append(whitespace(i%5), body...)
				code, got := post(h, b)
				at := bytes.Index(got, []byte(`,"result":`))
				if code != http.StatusOK || at < 0 || !bytes.Equal(got[at:], want) {
					t.Errorf("concurrent post: %d %s", code, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := srv.Metrics(); m.Cache.Misses != 1 || m.Cache.Hits != goroutines*posts {
		t.Fatalf("cache misses %d, hits %d; want 1 and %d", m.Cache.Misses, m.Cache.Hits, goroutines*posts)
	}
}

// fuzzRunLimit bounds the run length of a job FuzzSubmitIndex submits.
const fuzzRunLimit = 10_000

// fuzzCfg is the raw config of FuzzSubmitIndex's seeds: a gcc machine with
// caches small enough to keep its checkpoint seed small.
func fuzzCfg(tb testing.TB) pipeline.Config {
	cfg := simCfg(tb, "gcc", 14)
	cfg.Mem.L1.SizeBytes = 8 << 10
	cfg.Mem.L2.SizeBytes = 32 << 10
	return cfg
}

// submitCorpus returns the seed bodies of FuzzSubmitIndex, by name: a raw
// config, a sampled window with its checkpoint, a named bench, a no-cache
// job, an unknown field and a truncated body.
func submitCorpus(tb testing.TB) map[string][]byte {
	cfg := fuzzCfg(tb)
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 2_000
	opt := sample.Options{Windows: 1, WindowInstructions: 500, DetailedWarmup: 200}
	ckpts, err := sample.Checkpoints(cfg, opt)
	if err != nil {
		tb.Fatal(err)
	}
	wcfg := sample.WindowConfig(cfg, opt)
	warmup := uint64(0)
	seeds := map[string][]byte{}
	for name, spec := range map[string]JobSpec{
		"config":     {Config: &cfg},
		"checkpoint": {Config: &wcfg, Checkpoint: ckpts[0]},
		"bench":      {Bench: "gcc", Seed: 3, Warmup: &warmup, Inst: 2_000},
		"nocache":    {Config: &cfg, NoCache: true},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			tb.Fatal(err)
		}
		seeds[name] = b
	}
	seeds["unknown-field"] = append([]byte(`{"priority":1,`), seeds["config"][1:]...)
	seeds["malformed"] = seeds["config"][:len(seeds["config"])/2]
	return seeds
}

// TestRegenSubmitCorpus rewrites FuzzSubmitIndex's committed seed corpus.
// It is a no-op unless LOOSIM_REGEN_CORPUS=1: run
//
//	LOOSIM_REGEN_CORPUS=1 go test ./internal/serve -run TestRegenSubmitCorpus
//
// after a change to the checkpoint format or the JobSpec encoding.
func TestRegenSubmitCorpus(t *testing.T) {
	if os.Getenv("LOOSIM_REGEN_CORPUS") != "1" {
		t.Skip("set LOOSIM_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSubmitIndex")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range submitCorpus(t) {
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(body)))
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// normalKey is the content key of cfg with its seed, run lengths and cycle
// budget zeroed: the machine a job runs, whatever it runs for.
func normalKey(tb testing.TB, cfg pipeline.Config) string {
	cfg.Seed, cfg.WarmupInstructions, cfg.MeasureInstructions, cfg.CycleBudget = 0, 0, 0, 0
	key, err := ConfigKey(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return key
}

// answer is what a submission's response says about the job: everything
// but the job ID, the cached flag and host timing.
type answer struct {
	Code   int
	State  JobState        `json:"state"`
	Key    string          `json:"key"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func submitAnswer(t *testing.T, h http.Handler, body []byte) answer {
	t.Helper()
	code, got := post(h, body)
	a := answer{Code: code}
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatalf("undecodable %d response %s: %v", code, got, err)
	}
	return a
}

// FuzzSubmitIndex posts a body twice to one server and once to a fresh
// one. The request index may change how a repeat is answered, never what:
// every answer must carry the fresh server's status code, job state, key,
// error and result bytes. A body that decodes to a costlier job than the
// corpus holds — a host timeout, another machine, a longer run —
// is skipped: the fuzzer explores encodings, not machine sizes.
func FuzzSubmitIndex(f *testing.F) {
	machines := map[string]bool{}
	bench, err := JobSpec{Bench: "gcc"}.config()
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []pipeline.Config{fuzzCfg(f), bench} {
		machines[normalKey(f, cfg)] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec JobSpec
		if dec.Decode(&spec) == nil {
			if _, err := spec.key(); err == nil {
				if spec.TimeoutMS != 0 {
					t.Skip("timed job")
				}
				cfg, _ := spec.config()
				if cfg.WarmupInstructions > fuzzRunLimit || cfg.MeasureInstructions > fuzzRunLimit ||
					!machines[normalKey(t, cfg)] {
					t.Skip("costlier job than the corpus holds")
				}
			}
		}
		fresh := New(Options{Workers: 1})
		defer fresh.Close()
		want := submitAnswer(t, fresh.Handler(), body)
		srv := New(Options{Workers: 1})
		defer srv.Close()
		h := srv.Handler()
		for i := 0; i < 2; i++ {
			if got := submitAnswer(t, h, body); !reflect.DeepEqual(got, want) {
				t.Fatalf("submission %d answered\n%+v\nwant (a fresh server's answer)\n%+v", i, got, want)
			}
		}
	})
}
