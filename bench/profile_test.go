package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 6 {
		t.Fatalf("parsed %d stacks, want 6", len(stacks))
	}
	if stacks[1].cpu != 200*time.Millisecond || stacks[5].cpu != 100*time.Millisecond {
		t.Fatalf("sample times %v, %v", stacks[1].cpu, stacks[5].cpu)
	}
	if got := stacks[1].frames[1]; got != "math.Log" {
		t.Fatalf("inline frame parsed as %q, want the suffix dropped", got)
	}
	want := map[string]float64{
		"share.step":         75,
		"share.issue":        40,
		"share.fetch":        20,
		"share.rename":       0,
		"share.step_covered": 100 * 700.0 / 750,
		"iq.share":           50,
		"iq.select_share":    40,
		"iq.retained_share":  10,
		"workload.share":     20,
		"mem.share":          15,
		"mem.warm_share":     15,
		"core.share":         0,
	}
	got := shares(stacks)
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	_, err := parseTraces(strings.NewReader(separator + "\n     12parsecs   main.main\n"))
	if err == nil {
		t.Fatal("want an error for an unparseable sample time")
	}
}
