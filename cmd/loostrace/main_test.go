package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"loosesim/internal/obs"
	"loosesim/internal/trace"
)

// fleetTrace is the span stream pinned by internal/dispatch's
// TestTraceFleetGolden: 16 configs through a two-backend fleet, twice, so
// 16 traces that ran on a worker and 16 that hit the backend cache.
const fleetTrace = "../../internal/dispatch/testdata/fleet_trace.jsonl"

// readSpans reads the span records of one file.
func readSpans(name string) ([]trace.Span, error) {
	st, err := readStreams([]string{name})
	if err != nil {
		return nil, err
	}
	return st.spans, nil
}

// TestRenderFleetTrace reconstructs the pinned fleet stream into one tree
// per job and renders it both ways loostrace can: waterfalls plus the text
// summary, and the -json fleet summary.
func TestRenderFleetTrace(t *testing.T) {
	spans, err := readSpans(fleetTrace)
	if err != nil {
		t.Fatal(err)
	}
	traces := buildTraces(spans)
	if len(traces) != 32 {
		t.Fatalf("%d traces, want 32", len(traces))
	}
	nodes := 0
	for _, tt := range traces {
		if len(tt.roots) != 1 || tt.roots[0].span.Name != "job" {
			t.Fatalf("trace %s: %d roots, want a single job root", tt.id, len(tt.roots))
		}
		nodes += tt.nodes
	}
	if nodes != len(spans) {
		t.Fatalf("trees hold %d spans, stream has %d", nodes, len(spans))
	}

	fleet := summarize(traces)
	if fleet.Traces != 32 || fleet.Spans != len(spans) {
		t.Fatalf("summary = %d traces, %d spans; want 32, %d", fleet.Traces, fleet.Spans, len(spans))
	}
	counts := make(map[string]int)
	for _, s := range fleet.Stages {
		counts[s.Name] = s.Count
		if s.Errors != 0 {
			t.Errorf("stage %s: %d errors in a fault-free sweep", s.Name, s.Errors)
		}
	}
	want := map[string]int{"job": 32, "post": 32, "serve": 32, "cache": 48, "queue": 16, "run": 16}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("stage counts = %v, want %v", counts, want)
	}
	paths := 0
	for _, p := range fleet.CriticalPaths {
		paths += p.Count
	}
	if paths != 32 {
		t.Fatalf("critical paths cover %d traces, want 32", paths)
	}

	t.Run("text", func(t *testing.T) {
		var buf bytes.Buffer
		for _, tt := range traces {
			printWaterfall(&buf, tt)
		}
		printSummary(&buf, fleet)
		out := buf.String()
		for _, c := range []struct {
			text string
			n    int
		}{
			{"trace ", 32},
			{" (winner)", 32},
			{"(cache-hit)", 16},
			{"fleet: 32 traces, 176 spans\n", 1},
		} {
			if got := strings.Count(out, c.text); got != c.n {
				t.Errorf("text output has %d × %q, want %d", got, c.text, c.n)
			}
		}
	})

	t.Run("json", func(t *testing.T) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fleet); err != nil {
			t.Fatal(err)
		}
		var back Fleet
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, fleet) {
			t.Fatalf("JSON summary does not round-trip:\n%s", buf.Bytes())
		}
	})
}

// intervalSeries builds n intervals with every field set to a distinct
// non-zero value. Fields are filled by reflection so a field added to
// obs.Interval is covered without touching this test.
func intervalSeries(n int) []obs.Interval {
	series := make([]obs.Interval, n)
	for i := range series {
		v := reflect.ValueOf(&series[i]).Elem()
		for k := 0; k < v.NumField(); k++ {
			x := i*100 + k + 1
			f := v.Field(k)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(x))
			case reflect.Uint64:
				f.SetUint(uint64(x))
			case reflect.Float64:
				f.SetFloat(float64(x) / 4)
			default:
				panic("intervalSeries: unhandled field kind " + f.Kind().String())
			}
		}
	}
	return series
}

// eventSeries builds n loop events spread over every kind.
func eventSeries(n int) []obs.Event {
	events := make([]obs.Event, n)
	for i := range events {
		events[i] = obs.Event{
			Cycle:  int64(10 * i),
			Kind:   obs.EventKind(i % int(obs.NumEventKinds)),
			Thread: i % 2,
			Seq:    uint64(i),
			PC:     0x1000 + uint64(4*i),
			Delay:  int64(i % 7),
		}
	}
	return events
}

// writeIntervals encodes a series the way loosim -intervals does.
func writeIntervals(t *testing.T, series []obs.Interval) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewIntervalJSONL(&buf)
	for _, iv := range series {
		w.Interval(iv)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeEvents encodes events the way loosim -events does.
func writeEvents(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewRingWriter(&buf)
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIntervalRoundTrip writes a series through obs's interval writer and
// requires the reader to return every field unchanged.
func TestIntervalRoundTrip(t *testing.T) {
	want := intervalSeries(3)
	st := newStreams()
	if err := st.read("iv.jsonl", bytes.NewReader(writeIntervals(t, want))); err != nil {
		t.Fatal(err)
	}
	if len(st.spans) != 0 || st.events != 0 {
		t.Fatalf("interval stream read as %d spans, %d events", len(st.spans), st.events)
	}
	if !reflect.DeepEqual(st.intervals, want) {
		t.Fatalf("intervals differ\n got %+v\nwant %+v", st.intervals, want)
	}
}

// TestReadEventsRebuildsTable feeds the same events to a LoopDelays
// directly and through obs.RingWriter's JSONL, and requires the reader to
// rebuild an identical per-loop table.
func TestReadEventsRebuildsTable(t *testing.T) {
	events := eventSeries(30)
	direct := obs.NewLoopDelays(0)
	for _, e := range events {
		direct.Event(e)
	}
	st := newStreams()
	if err := st.read("ev.jsonl", bytes.NewReader(writeEvents(t, events))); err != nil {
		t.Fatal(err)
	}
	if st.events != len(events) {
		t.Fatalf("read %d events, want %d", st.events, len(events))
	}
	if got, want := st.delays.Table().String(), direct.Table().String(); got != want {
		t.Fatalf("rebuilt table differs\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRenderConcatenatedStreams reads an event stream and an interval
// stream from one input and requires both sections, in order, each the
// same text it renders alone.
func TestRenderConcatenatedStreams(t *testing.T) {
	ev := writeEvents(t, eventSeries(30))
	iv := writeIntervals(t, intervalSeries(3))
	renderOf := func(input []byte) string {
		t.Helper()
		st := newStreams()
		if err := st.read("input", bytes.NewReader(input)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := render(&buf, st, false, 0, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	events, intervals := renderOf(ev), renderOf(iv)
	if !strings.HasPrefix(events, "loop events      30\n") {
		t.Fatalf("event section:\n%s", events)
	}
	if !strings.HasPrefix(intervals, "intervals        3 ") {
		t.Fatalf("interval section:\n%s", intervals)
	}
	if got, want := renderOf(append(ev, iv...)), events+"\n"+intervals; got != want {
		t.Fatalf("concatenated render\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestReadRejectsUnknownRecord requires a record that is no span, loop
// event or interval to fail with its file and line.
func TestReadRejectsUnknownRecord(t *testing.T) {
	ev := writeEvents(t, eventSeries(2))
	for _, c := range []struct {
		name, bad, want string
	}{
		{"no known key", `{"cycle":5,"delay":3}`, "input: line 4: not a span, loop event or interval"},
		{"not JSON", `cycle=5`, "input: line 4: invalid character"},
		{"unknown loop", `{"kind":"no-such-loop"}`, "input: line 4: "},
		{"span without ID", `{"trace":"abc"}`, "input: line 4: span missing trace or span ID"},
	} {
		input := string(ev) + "\n" + c.bad + "\n"
		err := newStreams().read("input", strings.NewReader(input))
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want prefix %q", c.name, err, c.want)
		}
	}
}

// TestReadRejectsIncompleteInterval removes each field the interval
// summary sums from one record and requires the read to fail with the
// file, line and field, instead of summing the field as zero.
func TestReadRejectsIncompleteInterval(t *testing.T) {
	lines := strings.SplitAfter(string(writeIntervals(t, intervalSeries(3))), "\n")
	for _, name := range summedFields {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
			t.Fatal(err)
		}
		if _, ok := rec[name]; !ok {
			t.Fatalf("the interval writer writes no %q field", name)
		}
		delete(rec, name)
		cut, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		input := lines[0] + string(cut) + "\n" + lines[2]
		err = newStreams().read("iv.jsonl", strings.NewReader(input))
		want := fmt.Sprintf("iv.jsonl: line 2: interval record missing field %q", name)
		if err == nil || err.Error() != want {
			t.Errorf("record without %s: err = %v, want %q", name, err, want)
		}
	}
}
