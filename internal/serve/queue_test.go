package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobQueueFIFOAndRemove drives the queue directly: jobs dequeue in
// submission order, the queue refuses past its limit, and remove is
// idempotent and frees exactly one slot.
func TestJobQueueFIFOAndRemove(t *testing.T) {
	q := newJobQueue(4)
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = &Job{id: fmt.Sprintf("j%d", i)}
		if !q.tryEnqueue(jobs[i]) {
			t.Fatalf("enqueue %s refused below the limit", jobs[i].id)
		}
	}
	if q.tryEnqueue(&Job{id: "over"}) {
		t.Fatal("enqueue past the limit admitted")
	}
	if got := q.depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}

	if !q.remove(jobs[1]) {
		t.Fatal("remove(j1) = false, want true")
	}
	if q.remove(jobs[1]) {
		t.Fatal("second remove(j1) = true, want idempotent false")
	}
	if got := q.depth(); got != 3 {
		t.Fatalf("depth after remove = %d, want 3", got)
	}
	late := &Job{id: "late"}
	if !q.tryEnqueue(late) {
		t.Fatal("enqueue into the removed job's slot refused")
	}

	for _, want := range []*Job{jobs[0], jobs[2], jobs[3], late} {
		if j := q.dequeue(); j != want {
			t.Fatalf("dequeue = %v, want %s", j, want.id)
		}
	}
	if q.remove(jobs[0]) {
		t.Fatal("remove after dequeue = true, want false")
	}
	q.close()
	if j := q.dequeue(); j != nil {
		t.Fatalf("dequeue after close = %v, want nil", j)
	}
}

// TestSubmitCancelSubmitAtCapacity is the regression test for the queue
// tombstone bug: with the queue exactly full, cancelling the queued job
// must return its capacity immediately, so the next submission is admitted
// instead of bouncing off a queue that holds only a corpse.
func TestSubmitCancelSubmitAtCapacity(t *testing.T) {
	srv := New(Options{Workers: 1, QueueDepth: 1})
	defer srv.Close()

	blocker := occupyWorker(t, srv, 1)
	defer blocker.Cancel()

	queued, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 2, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// The queue is now exactly full: one more must bounce.
	if _, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 3, Warmup: new(uint64), Inst: 1 << 40, NoCache: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit against full queue = %v, want ErrQueueFull", err)
	}

	queued.Cancel()
	<-queued.Done()
	if got := srv.Metrics().QueueDepth; got != 0 {
		t.Fatalf("queue depth after cancelling the only queued job = %d, want 0", got)
	}

	// The bug: this submission used to fail with ErrQueueFull because the
	// cancelled job still occupied the queue slot until the worker drained
	// down to it.
	replacement, err := srv.Submit(JobSpec{Bench: "gcc", Seed: 4, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
	if err != nil {
		t.Fatalf("submit after cancel at exact capacity = %v, want admitted", err)
	}
	replacement.Cancel()
	<-replacement.Done()
	if bst := blocker.Status().State; bst != StateRunning {
		t.Fatalf("blocker state = %q, want still running", bst)
	}
}

// TestQueueFullOverHTTP: with a pinned worker and a full queue, a
// submission is a 429 carrying Retry-After: 1. A body that still names a
// client or an SLO class is a 400 and takes no queue slot.
func TestQueueFullOverHTTP(t *testing.T) {
	srv := New(Options{Workers: 1, QueueDepth: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	blocker := occupyWorker(t, srv, 1)
	defer blocker.Cancel()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	long := func(seed int64) string {
		b, err := json.Marshal(JobSpec{Bench: "gcc", Seed: seed, Warmup: new(uint64), Inst: 1 << 40, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, body := range []string{
		`{"bench":"gcc","no_cache":true,"slo":"batch"}`,
		`{"bench":"gcc","no_cache":true,"client":"sweep"}`,
	} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	for seed := int64(2); seed <= 3; seed++ {
		if resp := post(long(seed)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d status = %d, want 202", seed, resp.StatusCode)
		}
	}
	resp := post(long(4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("queue-full Retry-After = %q, want \"1\"", got)
	}
	if m := srv.Metrics(); m.Jobs.Rejected != 1 || m.QueueDepth != 2 {
		t.Fatalf("rejected/queue depth = %d/%d, want 1/2", m.Jobs.Rejected, m.QueueDepth)
	}
}

// TestOverloadConservation hammers a tiny server with a sustained
// above-capacity stream, with a fraction of the admitted jobs cancelled
// while queued, and checks the conservation law:
// every validated submission is accounted for exactly once, and the
// observed queue depth never exceeds QueueDepth. Run under -race.
func TestOverloadConservation(t *testing.T) {
	const queueDepth = 4
	srv := New(Options{Workers: 2, QueueDepth: queueDepth})
	defer srv.Close()

	var maxDepth atomic.Int64
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			if d := srv.Metrics().QueueDepth; d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var attempted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				spec := JobSpec{
					Bench:   "gcc",
					Seed:    int64(1 + g*1000 + i),
					Warmup:  new(uint64),
					Inst:    1,
					NoCache: true,
				}
				attempted.Add(1)
				job, err := srv.Submit(spec)
				switch {
				case err == nil:
					if i%3 == 0 {
						job.Cancel()
					}
				case errors.Is(err, ErrQueueFull):
					// Refused: still must appear in the accounting.
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(pollStop)
	<-pollDone

	m := srv.Metrics()
	sum := m.Jobs.Completed + m.Jobs.Failed + m.Jobs.Cancelled + m.Jobs.Rejected
	if m.Jobs.Submitted != sum {
		t.Fatalf("conservation violated: submitted %d != completed %d + failed %d + cancelled %d + rejected %d = %d",
			m.Jobs.Submitted, m.Jobs.Completed, m.Jobs.Failed, m.Jobs.Cancelled, m.Jobs.Rejected, sum)
	}
	if m.Jobs.Submitted != attempted.Load() {
		t.Fatalf("submitted = %d, want every attempted submission (%d)", m.Jobs.Submitted, attempted.Load())
	}
	if m.Jobs.Failed != 0 {
		t.Fatalf("failed = %d, want 0", m.Jobs.Failed)
	}
	if got := maxDepth.Load(); got > queueDepth {
		t.Fatalf("observed queue depth %d exceeds QueueDepth %d", got, queueDepth)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", m.QueueDepth)
	}
}
