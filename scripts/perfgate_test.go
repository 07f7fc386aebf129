// Package scripts holds tests for the repo's shell scripts. The package
// is test-only: the build, the loader, and simlint all skip it.
package scripts

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fakeGo stands in for `go test -c -o OUT ./internal/pipeline`, run from
// a tree's root: the tree's marker file decides what the "test binary" it
// writes prints. "ns N" prints a BenchmarkMachine line of N ns/op,
// "garbled" prints one with no number, "silent" prints none, and
// "broken" fails the build.
const fakeGo = `#!/bin/sh
out=
while [ $# -gt 0 ]; do
	if [ "$1" = -o ]; then out=$2; shift; fi
	shift
done
read -r kind value <marker
case "$kind" in
broken)
	echo "marker: build failed" >&2
	exit 1
	;;
garbled)
	printf '#!/bin/sh\necho "BenchmarkMachine-8   1   oops ns/op"\n' >"$out"
	;;
silent)
	printf '#!/bin/sh\necho PASS\n' >"$out"
	;;
ns)
	printf '#!/bin/sh\necho "BenchmarkMachine-8   1   %s ns/op"\n' "$value" >"$out"
	;;
esac
chmod +x "$out"
`

// gateRepo is a throwaway git repository holding perfgate.sh, with a fake
// go first on PATH.
type gateRepo struct {
	t   *testing.T
	dir string
	env []string
}

func newGateRepo(t *testing.T) *gateRepo {
	t.Helper()
	script, err := os.ReadFile("perfgate.sh")
	if err != nil {
		t.Fatal(err)
	}
	// The fake go lives outside the repository: an untracked file there
	// would make the tree dirty.
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(fakeGo), 0o755); err != nil {
		t.Fatal(err)
	}
	r := &gateRepo{t: t, dir: t.TempDir(), env: append(os.Environ(),
		"PATH="+bin+string(os.PathListSeparator)+os.Getenv("PATH"),
		"GIT_CONFIG_GLOBAL="+os.DevNull, "GIT_CONFIG_NOSYSTEM=1",
		"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@example.com",
		"GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@example.com")}
	r.write("scripts/perfgate.sh", string(script))
	r.write("internal/pipeline/doc.txt", "the test binaries run from here\n")
	r.git("init", "-q")
	return r
}

func (r *gateRepo) write(name, data string) {
	r.t.Helper()
	path := filepath.Join(r.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		r.t.Fatal(err)
	}
}

func (r *gateRepo) git(args ...string) {
	r.t.Helper()
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Env = r.dir, r.env
	if out, err := cmd.CombinedOutput(); err != nil {
		r.t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// commit records marker as the tree's next commit.
func (r *gateRepo) commit(marker string) {
	r.t.Helper()
	r.write("marker", marker+"\n")
	r.git("add", "-A")
	r.git("commit", "-q", "-m", marker)
}

// gate runs perfgate.sh and returns its exit code and output.
func (r *gateRepo) gate() (int, string) {
	r.t.Helper()
	cmd := exec.Command("sh", "scripts/perfgate.sh")
	cmd.Dir, cmd.Env = r.dir, r.env
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		r.t.Fatalf("perfgate.sh did not run: %v\n%s", err, out)
	}
	return exit.ExitCode(), string(out)
}

// TestPerfGate drives perfgate.sh over fake test binaries: a tree 20%
// slower than its base fails, 5% slower passes, and a garbled or missing
// benchmark line, a side that does not build or a missing base commit
// fail closed. The base is HEAD for a dirty tree and HEAD^ for a clean
// one.
func TestPerfGate(t *testing.T) {
	for _, c := range []struct {
		name    string
		commits []string // markers committed in order
		tree    string   // the working tree's marker; "" leaves it clean
		want    int
		output  string
	}{
		{"dirty +20% fails", []string{"ns 1000000"}, "ns 1200000", 1, "median ratio 1.2000 > 1.15"},
		{"dirty +5% passes", []string{"ns 1000000"}, "ns 1050000", 0, "median ratio 1.0500 <= 1.15"},
		{"clean +20% against HEAD^ fails", []string{"ns 1000000", "ns 1200000"}, "", 1, "slower than HEAD^"},
		{"clean +5% against HEAD^ passes", []string{"ns 1000000", "ns 1050000"}, "", 0, "perfgate ok"},
		{"garbled benchmark line", []string{"ns 1000000"}, "garbled", 2, "no BenchmarkMachine ns/op in the tree side's output"},
		{"no benchmark line", []string{"silent"}, "ns 1000000", 2, "no BenchmarkMachine ns/op in the base side's output"},
		{"base does not build", []string{"broken"}, "ns 1000000", 2, "the base side ("},
		{"tree does not build", []string{"ns 1000000"}, "broken", 2, "the tree side (.) does not build"},
		{"missing base commit", []string{"ns 1000000"}, "", 2, "base commit HEAD^ is missing"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newGateRepo(t)
			for _, m := range c.commits {
				r.commit(m)
			}
			if c.tree != "" {
				r.write("marker", c.tree+"\n")
			}
			code, out := r.gate()
			if code != c.want || !strings.Contains(out, c.output) {
				t.Fatalf("perfgate.sh exit %d, want %d with %q:\n%s", code, c.want, c.output, out)
			}
		})
	}
}
