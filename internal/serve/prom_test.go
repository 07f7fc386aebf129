package serve

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePromValidAndDeterministic renders a populated snapshot, checks
// it against the format validator, and pins byte-identical output across
// repeated encodings.
func TestWritePromValidAndDeterministic(t *testing.T) {
	var m Metrics
	m.Workers = 4
	m.QueueDepth = 2
	m.Running = 1
	m.Draining = true
	m.Jobs.Submitted = 10
	m.Jobs.Completed = 7
	m.Jobs.Failed = 1
	m.Jobs.Cancelled = 2
	m.Cache.Hits = 5
	m.Cache.Misses = 3
	m.Cache.HitRate = 0.625
	m.KIPS.Jobs = 7
	m.KIPS.Last = 123.5
	m.KIPS.Mean = 110.25
	m.KIPS.P50 = 100
	m.KIPS.P99 = 400
	m.Clients = []ClientMetric{
		{Client: "smoke", Queued: 1, Submitted: 5, Completed: 1, Cancelled: 3, Shed: 1},
	}
	m.Loops = []LoopMetric{
		{Loop: "issue-wakeup", Events: 42, MeanDelay: 3.5, P99Delay: 9, CyclesLost: 77},
		{Loop: "load-replay", Events: 6, MeanDelay: 12, P99Delay: 30, CyclesLost: 101},
	}

	var a, b bytes.Buffer
	if err := WriteProm(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteProm output differs across identical snapshots")
	}
	if err := CheckPromText(a.Bytes()); err != nil {
		t.Fatalf("encoder emitted invalid exposition text: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		"loosim_workers 4\n",
		"loosim_draining 1\n",
		`loosim_jobs_total{state="submitted"} 10`,
		"loosim_cache_hit_rate 0.625\n",
		`loosim_loop_delay_cycles{loop="issue-wakeup",stat="mean"} 3.5`,
		`loosim_loop_cycles_lost_total{loop="load-replay"} 101`,
		`loosim_client_queued{client="smoke"} 1`,
		`loosim_client_jobs_total{client="smoke",state="submitted"} 5`,
		`loosim_client_jobs_total{client="smoke",state="cancelled"} 3`,
		`loosim_client_jobs_total{client="smoke",state="shed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	if strings.Contains(out, "loosim_loop_events_total{loop=\"issue-wakeup\"} 42\n# TYPE") {
		t.Error("series interleaved with comments out of family order")
	}
}

// TestWritePromEmptySnapshot: a fresh server's snapshot (no loops, zero
// counters) must still validate.
func TestWritePromEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, Metrics{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("empty snapshot renders invalid text: %v", err)
	}
	if strings.Contains(buf.String(), "loosim_loop_") {
		t.Error("loop families emitted with no loop data")
	}
}

// TestCheckPromTextRejectsMalformed exercises the validator's failure
// modes so the tests that rely on it actually gate.
func TestCheckPromTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                                    // no samples at all
		"# BOGUS loosim_x y\nloosim_x 1\n",    // unknown comment keyword
		"# TYPE loosim_x widget\nloosim_x 1",  // unknown metric type
		"loosim_x\n",                          // no value
		"loosim_x one\n",                      // non-numeric value
		"0bad_name 1\n",                       // bad metric name
		"loosim_x{state=unquoted} 1\n",        // unquoted label value
		"loosim_x{state} 1\n",                 // label with no value
		"# TYPE loosim_x gauge extra-word\n1", // malformed TYPE arity
	}
	for _, text := range bad {
		if err := CheckPromText([]byte(text)); err == nil {
			t.Errorf("CheckPromText accepted %q", text)
		}
	}
	good := "# HELP loosim_x fine.\n# TYPE loosim_x gauge\nloosim_x{a=\"b\",c=\"d\"} 1.5e3\n"
	if err := CheckPromText([]byte(good)); err != nil {
		t.Errorf("CheckPromText rejected valid text: %v", err)
	}
}
