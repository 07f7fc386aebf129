package main

import (
	"context"
	"strings"
	"testing"

	"loosesim"
	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
)

func quickEnv(t *testing.T, g *goldens) *env {
	t.Helper()
	if g == nil {
		var err error
		if g, err = loadGoldens([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	return &env{o: options{seed: defaultSeed, seconds: 1, quick: true, rounds: 1}, chk: &checker{g: g}}
}

func TestGoldenMismatchFailsOp(t *testing.T) {
	g, err := loadGoldens([]byte(`{"digests": {"quick/full-int/gcc/base5_5/1": "0000000000000000"}}`))
	if err != nil {
		t.Fatal(err)
	}
	e := quickEnv(t, g)
	ctx := context.Background()
	run, err := fullInt.prepare(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := run(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted != 5 || ph.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 5 and 1", ph.attempted, ph.failed)
	}
	if len(e.chk.problems) != 1 || !strings.Contains(e.chk.problems[0], "gcc") {
		t.Fatalf("problems %q, want one naming gcc", e.chk.problems)
	}
	if e.chk.verified != 0 || e.chk.unverified != 4 {
		t.Fatalf("verified %d, unverified %d; want 0 and 4", e.chk.verified, e.chk.unverified)
	}
}

func TestTracedSampledMatchesRun(t *testing.T) {
	cells, err := sampledCells(true)
	if err != nil {
		t.Fatal(err)
	}
	o := sampleOptions(true)
	ctx := context.Background()
	for _, c := range cells[:2] {
		want, err := sample.Run(ctx, c.cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		spans := newSpanLog()
		got, windows, err := runSampled(ctx, spans, c.cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := digest(want)
		b, _ := digest(got)
		if a != b {
			t.Errorf("%s/%s: traced estimate %s, sample.Run %s", c.bench, c.tag, b, a)
		}
		if len(windows) != o.Windows || spans.sum("checkpoints") == 0 || spans.counted("cycles") == 0 {
			t.Errorf("%s/%s: %d windows, spans %v", c.bench, c.tag, len(windows), spans.total)
		}
	}
}

func TestInvariantsRejectShortRun(t *testing.T) {
	cfgs, err := fullInt.configs(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loosesim.RunContext(context.Background(), cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{g: &goldens{Digests: map[string]string{}}}
	if !chk.result("ok", cfgs[0], res) {
		t.Fatalf("a real result failed its invariants: %v", chk.problems)
	}
	bad := *res
	bad.Counters = pipeline.Counters{Retired: res.Counters.Retired / 2, Cycles: res.Counters.Cycles}
	if chk.result("short", cfgs[0], &bad) {
		t.Fatal("a result retiring half its measured instructions passed")
	}
}
