#!/usr/bin/env sh
# Full local check: build, vet, domain lints, race-enabled tests.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> simlint ./..."
go run ./cmd/simlint ./...

echo "==> simlint perf ratchet (hot-path escapes/inlining/bounds/dispatch vs PERF_baseline.json)"
if ! go run ./cmd/simlint -perfbaseline PERF_baseline.json ./...; then
	echo "check.sh: hot-path perf budget exceeded; the grown counts are listed above." >&2
	echo "check.sh: inspect the offending sites with:  go run ./cmd/simlint -perf ./..." >&2
	echo "check.sh: if the growth is intentional, ratchet deliberately with:" >&2
	echo "check.sh:   go run ./cmd/simlint -perfbaseline PERF_baseline.json -perfupdate ./..." >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark module (go -C bench vet + test -short)"
# bench/ is its own module, so ./... above never reaches it.
go -C bench vet ./...
go -C bench test -short ./...

echo "==> bench regression gate (BenchmarkMachine vs BENCH_machine.json)"
./scripts/bench.sh check

echo "==> snapshot fuzz smoke (FuzzSnapshotRoundTrip, 10s past the seed corpus)"
# The committed corpus replays as part of `go test` above; this additionally
# mutates for a short budget so codec regressions that need a fresh input to
# trip are caught before CI's longer run.
go test ./internal/pipeline -run '^FuzzSnapshotRoundTrip$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 10s >/dev/null

echo "==> observability smoke (loosim -intervals/-events | loopstat)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/loosim -bench apsi -dra -warmup 20000 -inst 60000 \
	-intervals "$tmp/iv.csv" -events "$tmp/ev.jsonl" >/dev/null
go run ./cmd/loopstat -events "$tmp/ev.jsonl" -intervals "$tmp/iv.csv" >/dev/null

echo "==> load replay byte-identity (two seeded replays must cmp equal)"
# TestModelConservationAndDeterminism byte-compares replays in-process; this
# repeats it across two separate processes so process-level nondeterminism
# (map iteration, ASLR'd pointers leaking into output) would be caught too.
go run ./cmd/looload -seed 42 -curve 0.5,1,2 >"$tmp/load1.txt"
go run ./cmd/looload -seed 42 -curve 0.5,1,2 >"$tmp/load2.txt"
cmp "$tmp/load1.txt" "$tmp/load2.txt"

echo "All checks passed."
