package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRegenFuzzCorpus rewrites the committed seed corpus for
// FuzzSnapshotRoundTrip. It is a no-op unless LOOSIM_REGEN_CORPUS=1: run
// it after any snapshot format change (bump of snapVersion, new
// payload fields) so the checked-in seeds decode under the new codec.
//
//	LOOSIM_REGEN_CORPUS=1 go test ./internal/pipeline -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("LOOSIM_REGEN_CORPUS") != "1" {
		t.Skip("set LOOSIM_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	cfg, err := fuzzCfg()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	snapAt := func(name string, retired uint64) {
		if err := m.RunUntilRetired(context.Background(), retired); err != nil {
			t.Fatal(err)
		}
		data, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = data
	}
	snapAt("fresh", 0)
	snapAt("warmup", 500)
	snapAt("measure", 2_500)
	snapAt("done", cfg.WarmupInstructions+cfg.MeasureInstructions)

	// Corrupt mutants keep the fuzzer's rejection paths in the corpus.
	mut := bytes.Clone(seeds["measure"])
	mut[len(mut)/2] ^= 0xff
	seeds["flipped"] = mut
	seeds["torn"] = seeds["measure"][:len(seeds["measure"])/3]
	seeds["header-only"] = []byte("LOOMACH\x00")

	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommittedSeedsReencode pins the checkpoint format through the
// committed fuzz corpus: each valid seed must restore and re-encode to
// exactly its own bytes. FuzzSnapshotRoundTrip returns quietly on a seed
// it rejects, so a format change would otherwise pass it unnoticed.
func TestCommittedSeedsReencode(t *testing.T) {
	cfg, err := fuzzCfg()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fresh", "warmup", "measure", "done"} {
		body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotRoundTrip", "seed-"+name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		if len(lines) != 2 || !ok || !ok2 {
			t.Fatalf("seed-%s: not a one-value []byte corpus file", name)
		}
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("seed-%s: %v", name, err)
		}
		m, err := Restore(cfg, []byte(data))
		if err != nil {
			t.Fatalf("seed-%s: %v", name, err)
		}
		again, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, []byte(data)) {
			t.Fatalf("seed-%s: re-encodes to %d bytes, differing from its %d", name, len(again), len(data))
		}
	}
}
