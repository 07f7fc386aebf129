package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark's re-executed
// children, so the smoke test drives the same parent/child path.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: emits %s (%s), BENCHMARK.json lists %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	ws := workloads()
	if len(ws) != len(f.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(ws), len(f.Workloads))
	}
	for i, w := range ws {
		if w.name != f.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json lists %s", i, w.name, f.Workloads[i].Name)
		}
	}
}

// TestQuickSmoke measures every workload at quick sizes, end to end and
// traced, through re-executed children, and checks each run emits every
// metric with no failed op.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the benchmark for every workload")
	}
	// Traced runs write their profiles under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	for _, trace := range []bool{false, true} {
		for _, w := range workloads() {
			o := options{seed: 2, seconds: 0.5, quick: true, trace: trace}
			rep, err := measure(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct() || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, problems %v", w.name, trace, rep.Attempted, rep.Failed, rep.Problems)
			}
			for _, d := range defs(trace) {
				if _, ok := rep.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: no %s", w.name, trace, d.name)
				}
			}
			if !trace && (rep.Metrics["kips"] <= 0 || rep.Metrics["setup_s"] <= 0 || rep.Metrics["peak_rss_mb"] <= 0) {
				t.Errorf("%s: non-positive end-to-end metric in %v", w.name, rep.Metrics)
			}
			if trace && rep.Metrics["share.step"] <= 0 {
				t.Errorf("%s traced: no kernel CPU in the profile: %v", w.name, rep.Metrics)
			}
		}
	}
}
