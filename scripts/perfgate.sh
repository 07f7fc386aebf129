#!/usr/bin/env sh
# Paired hot-path gate: run BenchmarkMachine from this tree and from a base
# tree, interleaved on the same host, and fail when this tree is more than
# 15% slower than the base.
#
#   scripts/perfgate.sh
#
# The base is worked out from git state: HEAD when `git status --porcelain`
# shows any change (untracked files included), HEAD^ when the tree is
# clean. A pre-commit run (dirty tree against HEAD) and CI's PR merge
# commit (clean tree against its first parent) thus compare the same pair
# of trees.
#
# Each run is one BenchmarkMachine iteration (-benchtime 1x, ~60 ms), so a
# pair's two runs share the host's load; the order inside a pair
# alternates so neither side always runs first. The statistic is the
# median of the 60 per-pair ratios tree/base: the median drops the pairs a
# burst of load hit on one side only. On a shared 2-vCPU host, where single
# runs of one binary spread from 49 to 98 ms, 200 pairs of one binary
# against itself gave medians of 60 consecutive pair ratios within
# 0.97-1.01, and 200 pairs against a copy with ~20% planted in
# Machine.step gave 1.17-1.21. The ratio of the two sides' fastest runs
# spread wider on the same pairs (0.96-1.03 and 1.15-1.24), and medians of
# 20 pairs wider still (0.91-1.05 and 1.09-1.28).
#
# The gate fails closed: exit 2, with a message, when either side does not
# build, when a run prints no usable BenchmarkMachine line, or when the
# base commit is missing (a clone needs the base's history: fetch-depth 2).
set -eu

cd "$(dirname "$0")/.."

pairs=60
limit=1.15

if [ -n "$(git status --porcelain --untracked-files=all)" ]; then
	base=HEAD
else
	base=HEAD^
fi
if ! rev=$(git rev-parse --verify --quiet "$base^{commit}"); then
	echo "perfgate.sh: base commit $base is missing" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# build <tree dir> <side>: compile internal/pipeline's test binary.
build() {
	if ! out=$(cd "$1" && go test -c -o "$tmp/$2.test" ./internal/pipeline 2>&1); then
		echo "perfgate.sh: the $2 side ($1) does not build:" >&2
		printf '%s\n' "$out" >&2
		exit 2
	fi
}
build . tree
build "$tmp/base" base

# bench <tree dir> <side>: one BenchmarkMachine run, printed as its ns/op.
bench() {
	if ! out=$(cd "$1/internal/pipeline" && "$tmp/$2.test" -test.run '^$' \
		-test.bench '^BenchmarkMachine$' -test.benchtime 1x -test.timeout 5m 2>&1); then
		echo "perfgate.sh: the $2 side's benchmark failed:" >&2
		printf '%s\n' "$out" >&2
		exit 2
	fi
	ns=$(printf '%s\n' "$out" | awk '$1 ~ /^BenchmarkMachine(-[0-9]+)?$/ && $4 == "ns/op" { print $3; exit }')
	case "$ns" in
	'' | *[!0-9.]* | *.*.* | .)
		echo "perfgate.sh: no BenchmarkMachine ns/op in the $2 side's output:" >&2
		printf '%s\n' "$out" >&2
		exit 2
		;;
	esac
	if ! awk -v ns="$ns" 'BEGIN { exit !(ns + 0 > 0) }'; then
		echo "perfgate.sh: the $2 side reports $ns ns/op" >&2
		exit 2
	fi
	echo "$ns"
}

echo "perfgate: this tree vs $base ($(git rev-parse --short "$rev")), $pairs interleaved pairs of BenchmarkMachine"
ratios=""
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		tree_ns=$(bench . tree) || exit 2
		base_ns=$(bench "$tmp/base" base) || exit 2
	else
		base_ns=$(bench "$tmp/base" base) || exit 2
		tree_ns=$(bench . tree) || exit 2
	fi
	ratio=$(awk -v t="$tree_ns" -v b="$base_ns" 'BEGIN { printf "%.4f", t / b }')
	echo "  pair $i: tree $tree_ns ns/op, base $base_ns ns/op, ratio $ratio"
	ratios="$ratios $ratio"
	i=$((i + 1))
done

median=$(printf '%s\n' $ratios | sort -n | awk '{ r[NR] = $1 } END {
	if (NR % 2) printf "%.4f", r[(NR + 1) / 2]; else printf "%.4f", (r[NR / 2] + r[NR / 2 + 1]) / 2 }')
if awk -v m="$median" -v l="$limit" 'BEGIN { exit !(m > l) }'; then
	echo "perfgate.sh: this tree is slower than $base: median ratio $median > $limit" >&2
	exit 1
fi
echo "perfgate ok: median ratio $median <= $limit"
