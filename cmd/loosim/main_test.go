package main

import (
	"errors"
	"strings"
	"testing"

	"loosesim/internal/obs"
	"loosesim/internal/pipeline"
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
