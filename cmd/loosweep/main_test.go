package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestMain runs the command itself, instead of the tests, when
// LOOSWEEP_RUN_MAIN is set: the tests re-execute their own binary to
// drive loosweep end to end.
func TestMain(m *testing.M) {
	if os.Getenv("LOOSWEEP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// loosweep runs the command with args and returns its stdout and stderr.
func loosweep(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LOOSWEEP_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("loosweep %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// TestJSONStdoutIsJSON: with -json, stdout is a stream of JSON reports and
// nothing else, also when the run prints the cache line and the loop-delay
// text; those go to stderr. The second run is served from the cache.
func TestJSONStdoutIsJSON(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-fig", "6", "-ablation", "loops", "-quick", "-inst", "2000", "-json", "-cache", dir}
	for i, wantCache := range []string{"[cache: 0 hits, 1 misses]", "[cache: 1 hits, 0 misses]"} {
		stdout, stderr := loosweep(t, args...)
		dec := json.NewDecoder(bytes.NewReader(stdout))
		var names []string
		for {
			var report struct{ Name string }
			err := dec.Decode(&report)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("run %d: stdout is not a JSON stream: %v\n%s", i, err, stdout)
			}
			names = append(names, report.Name)
		}
		if !reflect.DeepEqual(names, []string{"fig6"}) {
			t.Fatalf("run %d: reports %v, want [fig6]", i, names)
		}
		for _, want := range []string{wantCache, "Loop delay arithmetic"} {
			if !bytes.Contains(stderr, []byte(want)) {
				t.Fatalf("run %d: stderr lacks %q:\n%s", i, want, stderr)
			}
		}
	}
}

// TestSelectSweeps resolves every -fig and -ablation name the driver
// accepts, and rejects unknown ones, without running a simulation.
func TestSelectSweeps(t *testing.T) {
	names := func(ss []sweep) []string {
		var out []string
		for _, s := range ss {
			out = append(out, s.name)
		}
		return out
	}
	for _, c := range []struct {
		table        []sweep
		kind, prefix string
		value        string
		want         []string
	}{
		{figures, "figure", "fig", "", nil},
		{figures, "figure", "fig", "4", []string{"fig4"}},
		{figures, "figure", "fig", "5", []string{"fig5"}},
		{figures, "figure", "fig", "6", []string{"fig6"}},
		{figures, "figure", "fig", "8", []string{"fig8"}},
		{figures, "figure", "fig", "9", []string{"fig9"}},
		{figures, "figure", "fig", "all", []string{"fig4", "fig5", "fig6", "fig8", "fig9"}},
		{ablations, "ablation", "", "", nil},
		{ablations, "ablation", "", "recovery", []string{"recovery"}},
		{ablations, "ablation", "", "crc", []string{"crc"}},
		{ablations, "ablation", "", "fwd", []string{"fwd"}},
		{ablations, "ablation", "", "iqpressure", []string{"iqpressure"}},
		{ablations, "ablation", "", "crcpolicy", []string{"crcpolicy"}},
		{ablations, "ablation", "", "monolithic", []string{"monolithic"}},
		{ablations, "ablation", "", "memdep", []string{"memdep"}},
		{ablations, "ablation", "", "predictor", []string{"predictor"}},
		{ablations, "ablation", "", "loops", []string{"loops"}},
		{ablations, "ablation", "", "all", []string{"recovery", "crc", "fwd", "iqpressure",
			"crcpolicy", "monolithic", "memdep", "predictor", "loops"}},
	} {
		got, err := selectSweeps(c.table, c.kind, c.prefix, c.value)
		if err != nil {
			t.Errorf("%s %q: %v", c.kind, c.value, err)
			continue
		}
		if !reflect.DeepEqual(names(got), c.want) {
			t.Errorf("%s %q selects %v, want %v", c.kind, c.value, names(got), c.want)
		}
		for _, s := range got {
			if (s.run == nil) != (s.name == "loops") {
				t.Errorf("%s %q: entry %s has run=nil %v; only loops has no table", c.kind, c.value, s.name, s.run == nil)
			}
		}
	}

	for _, c := range []struct {
		table        []sweep
		kind, prefix string
		value        string
	}{
		{figures, "figure", "fig", "7"},
		{figures, "figure", "fig", "fig4"},
		{ablations, "ablation", "", "nope"},
		{ablations, "ablation", "", "4"},
	} {
		if _, err := selectSweeps(c.table, c.kind, c.prefix, c.value); err == nil {
			t.Errorf("%s %q resolved; want an unknown-name error", c.kind, c.value)
		}
	}
}
