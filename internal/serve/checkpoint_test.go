package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"loosesim/internal/sample"
	"loosesim/internal/snap"
)

// TestCheckpointJobThroughServer is the acceptance case for sampled jobs:
// a window job carrying a checkpoint must be keyed by the checkpoint's
// content address, produce bytes identical to a local restore-and-run,
// and hit the cache on resubmission — while staying distinct from both
// the plain (cold-start) config job and other windows of the same run.
func TestCheckpointJobThroughServer(t *testing.T) {
	cfg := simCfg(t, "gcc", 7)
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 4_000
	opt := sample.Options{Windows: 2, WindowInstructions: 1_000, DetailedWarmup: 500}
	ckpts, err := sample.Checkpoints(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := sample.WindowConfig(cfg, opt)

	srv := New(Options{Workers: 1, Now: time.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := submitWait(t, ts.URL, JobSpec{Config: &wcfg, Checkpoint: ckpts[0]})
	if st.State != StateDone {
		t.Fatalf("state = %q (%s)", st.State, st.Error)
	}
	ck, err := ConfigKey(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Digest(ckpts[0])[:16] + ck; st.Key != want {
		t.Fatalf("job key = %q, want %q", st.Key, want)
	}

	// The server's result must be byte-identical to restoring the same
	// checkpoint locally: the checkpoint fully determines the window.
	local, err := sample.RunWindow(context.Background(), wcfg, ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("server window differs from local restore:\nserver: %s\nlocal:  %s", g, w)
	}

	// Same checkpoint again: cache hit. Different window: distinct key,
	// fresh run. No checkpoint at all: the plain config key.
	if again := submitWait(t, ts.URL, JobSpec{Config: &wcfg, Checkpoint: ckpts[0]}); !again.Cached {
		t.Fatalf("identical checkpoint job not served from cache: %+v", again)
	}
	other := submitWait(t, ts.URL, JobSpec{Config: &wcfg, Checkpoint: ckpts[1]})
	if other.Key == st.Key {
		t.Fatal("distinct checkpoints produced the same cache key")
	}
	if other.Cached {
		t.Fatal("second window must not alias the first window's cache entry")
	}
	plain := submitWait(t, ts.URL, JobSpec{Config: &wcfg})
	if plain.Key != ck {
		t.Fatalf("plain config job key = %q, want %q", plain.Key, ck)
	}
}

// TestCheckpointJobRequiresConfig: checkpoints carry opaque machine
// state, so they only make sense against the exact raw config they were
// taken under — a bench job, or a spec naming no job at all, must reject
// them.
func TestCheckpointJobRequiresConfig(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	for _, spec := range []JobSpec{
		{Bench: "gcc", Checkpoint: []byte{1, 2, 3}},
		{Checkpoint: []byte{1, 2, 3}},
	} {
		if _, err := srv.Submit(spec); err == nil {
			t.Errorf("spec %+v must fail", spec)
		}
	}
}
