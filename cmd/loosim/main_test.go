package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
	"loosesim/internal/serve"
)

// failAfter fails every write after the first n, mirroring the obs test
// double: it simulates a destination that fills up mid-stream.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestVerifyStreamsFinalFlush is the end of the obs error-latching audit:
// an event-stream error that latches only during the final Flush — after
// the run, before reporting — must still surface from verifyStreams, which
// main turns into log.Fatal and therefore a nonzero exit.
func TestVerifyStreamsFinalFlush(t *testing.T) {
	evw := obs.NewRingWriter(&failAfter{n: 0})
	evw.Event(obs.Event{Cycle: 1}) // buffered; the write happens in Flush
	err := verifyStreams(evw, nil, nil)
	if err == nil {
		t.Fatal("final-flush event error must fail verification")
	}
	if !strings.Contains(err.Error(), "event stream truncated") {
		t.Errorf("error %q does not name the event stream", err)
	}
}

func TestVerifyStreamsIntervalError(t *testing.T) {
	ivw := obs.NewIntervalJSONL(&failAfter{n: 1}) // first record ok, second fails
	ivw.Interval(obs.Interval{Index: 0})
	ivw.Interval(obs.Interval{Index: 1})
	err := verifyStreams(nil, ivw, nil)
	if err == nil {
		t.Fatal("interval record error must fail verification")
	}
	if !strings.Contains(err.Error(), "interval stream truncated") {
		t.Errorf("error %q does not name the interval stream", err)
	}
}

func TestVerifyStreamsTracerError(t *testing.T) {
	tr := pipeline.NewTracer(&failAfter{n: 0}, 0) // header write fails
	err := verifyStreams(nil, nil, tr)
	if err == nil {
		t.Fatal("tracer error must fail verification")
	}
	if !strings.Contains(err.Error(), "trace truncated") {
		t.Errorf("error %q does not name the trace", err)
	}
}

func TestVerifyStreamsCleanAndNil(t *testing.T) {
	if err := verifyStreams(nil, nil, nil); err != nil {
		t.Fatalf("no streams attached must verify clean: %v", err)
	}
	var buf strings.Builder
	evw := obs.NewRingWriter(&buf)
	evw.Event(obs.Event{Cycle: 1})
	ivw := obs.NewIntervalJSONL(&buf)
	ivw.Interval(obs.Interval{Index: 0})
	if err := verifyStreams(evw, ivw, nil); err != nil {
		t.Fatalf("healthy streams must verify clean: %v", err)
	}
}

// TestFlagsMatchJobSpec: loosim's flags and a served job's bench fields
// go through one pipeline.Named, so the same knobs name the same run —
// equal serve.ConfigKeys — over a grid that crosses every knob, its zero
// value included.
func TestFlagsMatchJobSpec(t *testing.T) {
	warm := func(n uint64) *uint64 { return &n }
	cases := []struct {
		args []string
		spec serve.JobSpec
	}{
		{nil, serve.JobSpec{Bench: "gcc"}},
		{[]string{"-regread", "0", "-seed", "0", "-inst", "0", "-load", "", "-memdep", ""}, serve.JobSpec{Bench: "gcc"}},
		{[]string{"-bench", "swim", "-dra", "-regread", "5"}, serve.JobSpec{Bench: "swim", DRA: true, RegRead: 5}},
		{[]string{"-dra", "-regread", "7", "-warmup", "1000"}, serve.JobSpec{Bench: "gcc", DRA: true, RegRead: 7, Warmup: warm(1000)}},
		{
			[]string{"-bench", "apsi", "-deciq", "9", "-iqex", "4", "-load", "refetch", "-memdep", "blind"},
			serve.JobSpec{Bench: "apsi", DecIQ: 9, IQEx: 4, Load: "refetch", MemDep: "blind"},
		},
		{
			[]string{"-bench", "m88-comp", "-seed", "7", "-warmup", "0", "-inst", "2000", "-load", "stall", "-memdep", "conservative"},
			serve.JobSpec{Bench: "m88-comp", Seed: 7, Warmup: warm(0), Inst: 2000, Load: "stall", MemDep: "conservative"},
		},
	}
	srv := serve.New(serve.Options{Workers: 1})
	defer srv.Close()
	for _, tc := range cases {
		fs := flag.NewFlagSet("loosim", flag.ContinueOnError)
		var mf machineFlags
		mf.register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := mf.config()
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		want, err := serve.ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A one-cycle budget fails the job at once; the key is fixed at
		// submission and ignores the budget.
		tc.spec.CycleBudget = 1
		job, err := srv.Submit(tc.spec)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := job.Status().Key; got != want {
			t.Errorf("%q: flags key %.12s, job spec %+v key %.12s", tc.args, want, tc.spec, got)
		}
	}
}
