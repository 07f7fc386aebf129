package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fleetTrace is the span stream pinned by internal/dispatch's
// TestTraceFleetGolden: 16 configs through a two-backend fleet, twice, so
// 16 traces that ran on a worker and 16 that hit the backend cache.
const fleetTrace = "../../internal/dispatch/testdata/fleet_trace.jsonl"

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
