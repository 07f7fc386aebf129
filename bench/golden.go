package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"loosesim/internal/pipeline"
	"loosesim/internal/sample"
)

// defaultSeed is the seed whose outputs golden.json records. Runs at any
// other seed check invariants only.
const defaultSeed = 1

// goldenPath is where -update writes, relative to the bench directory.
const goldenPath = "testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens records, for the default seed, a digest of every simulated
// output the workloads produce, plus the full-run counters each sampled
// cell is scored against. The model is unvalidated against hardware:
// these digests pin self-consistency, not accuracy.
type goldens struct {
	Seed int64 `json:"seed"`
	// Digests maps an output label (see label) to digest(output).
	Digests map[string]string `json:"digests"`
	// Reference maps a sampled cell's label to its full cycle-accurate
	// run's measurement-window counters.
	Reference map[string]pipeline.Counters `json:"reference"`
}

func loadGoldens(data []byte) (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	if g.Reference == nil {
		g.Reference = map[string]pipeline.Counters{}
	}
	return &g, nil
}

// write stores g with sorted keys (encoding/json sorts map keys), so
// regenerating unchanged outputs leaves the file byte-identical.
func (g *goldens) write(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest is a short content hash of v's JSON encoding. Results and
// estimates encode deterministically (struct field order, sorted map
// keys, shortest round-trip floats), and a result decoded from the HTTP
// API re-encodes to the same bytes.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// label names an output in the golden file.
func label(parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return strings.Join(s, "/")
}

// checker verifies outputs and counts the outcome. A check that fails
// marks the op failed; an output with no golden entry is checked against
// invariants only and counted as unverified.
type checker struct {
	g          *goldens
	record     bool // -update: store digests instead of comparing
	verified   int
	unverified int
	problems   []string
}

// check compares v's digest with the golden entry for key.
func (c *checker) check(key string, v any) bool {
	if c.record {
		d, err := digest(v)
		if err != nil {
			return c.fail("%s: %v", key, err)
		}
		c.g.Digests[key] = d
		c.verified++
		return true
	}
	want, ok := c.g.Digests[key]
	if !ok {
		c.unverified++
		return true
	}
	return c.match(key, v, want)
}

// match checks that v has the digest want.
func (c *checker) match(key string, v any, want string) bool {
	d, err := digest(v)
	if err != nil {
		return c.fail("%s: %v", key, err)
	}
	if d != want {
		return c.fail("%s: digest %s, want %s", key, d, want)
	}
	c.verified++
	return true
}

// fail records a failed invariant.
func (c *checker) fail(format string, args ...any) bool {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	return false
}

// result checks a full or window result against the machine's
// conservation laws and, when one exists, its golden digest.
func (c *checker) result(key string, cfg pipeline.Config, r *pipeline.Result) bool {
	if r == nil {
		return c.fail("%s: no result", key)
	}
	k := r.Counters
	var perThread uint64
	for _, n := range r.RetiredPerThread {
		perThread += n
	}
	switch {
	case k.Retired < cfg.MeasureInstructions:
		return c.fail("%s: retired %d < measured %d", key, k.Retired, cfg.MeasureInstructions)
	case r.TotalRetired < cfg.WarmupInstructions+cfg.MeasureInstructions:
		return c.fail("%s: total retired %d < warmup+measured", key, r.TotalRetired)
	case k.Cycles <= 0 || r.Cycles.Total() != k.Cycles:
		return c.fail("%s: cycle stack %d != cycles %d", key, r.Cycles.Total(), k.Cycles)
	case k.Fetched < k.Retired:
		return c.fail("%s: fetched %d < retired %d", key, k.Fetched, k.Retired)
	case perThread != k.Retired:
		return c.fail("%s: per-thread retired %d != %d", key, perThread, k.Retired)
	case k.IPC() > float64(cfg.RetireWidth):
		return c.fail("%s: IPC %.3f above retire width", key, k.IPC())
	}
	return c.check(key, r)
}

// estimate checks a sampled estimate's shape and, when one exists, its
// golden digest.
func (c *checker) estimate(key string, o sample.Options, e *sample.Estimate) bool {
	if e == nil {
		return c.fail("%s: no estimate", key)
	}
	k := e.Counters
	switch {
	case e.Windows != o.Windows:
		return c.fail("%s: %d windows, want %d", key, e.Windows, o.Windows)
	case k.Retired < uint64(o.Windows)*o.WindowInstructions:
		return c.fail("%s: windows retired %d < %d", key, k.Retired, uint64(o.Windows)*o.WindowInstructions)
	case k.Cycles <= 0 || e.Stack.Total() != k.Cycles:
		return c.fail("%s: cycle stack %d != cycles %d", key, e.Stack.Total(), k.Cycles)
	case math.IsNaN(e.Metrics["ipc"].Mean) || e.Metrics["ipc"].Mean <= 0:
		return c.fail("%s: IPC estimate %v", key, e.Metrics["ipc"].Mean)
	}
	return c.check(key, e)
}

// sampleErrors scores an estimate against a full run's counters: the IPC
// relative error in percent, and the mean over the sampler's metrics of
// relative error divided by its declared bound.
func sampleErrors(est pipeline.Counters, full pipeline.Counters) (ipcErrPct, errRatio float64) {
	var sum float64
	ms := sample.Metrics()
	for _, m := range ms {
		fv, sv := m.Eval(full), m.Eval(est)
		rel := math.Abs(sv-fv) / math.Max(math.Abs(fv), m.Floor)
		if m.Name == "ipc" {
			ipcErrPct = 100 * rel
		}
		sum += rel / m.Bound
	}
	return ipcErrPct, sum / float64(len(ms))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
