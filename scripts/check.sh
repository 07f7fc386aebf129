#!/usr/bin/env sh
# Full local check: build, vet, domain lints, race-enabled tests.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (testdata/ excluded: analyzer fixture positions are golden)"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "check.sh: not gofmt-clean (run gofmt -w on them):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> simlint ./..."
go run ./cmd/simlint ./...

echo "==> go test -race ./... (includes the perf ratchet TestRepoWithinPerfBudget, the result-digest golden TestResultDigestsGolden, the pipelined-sampler determinism test TestRunMatchesSerialWindows, the TLB reference-model check TestTLBMatchesLinearScan, the conservation laws and retired stream TestMachineInvariants, the one-buffer checkpoint check TestSnapshotBufferSizedOnce, the event-horizon bound TestValidateBoundsEventHorizon and TestSubmitRejectsPastEventHorizon, and the allocation and heap gates TestMachineAllocBudget and TestMachineHeapBudget)"
go test -race ./...
# The race detector allocates on its own account, so the allocation and
# heap gates skip themselves under -race; run them once more without.
go test -count=1 -run '^(TestMachineAllocBudget|TestMachineHeapBudget)$' ./internal/pipeline

echo "==> benchmark module (go -C bench vet + test -short)"
# bench/ is its own module, so ./... above never reaches it.
go -C bench vet ./...
go -C bench test -short ./...

echo "==> bench golden check (bash bench/run.sh --seed 1 --seconds 1 --trace 0: one round of every workload against bench/testdata/golden.json)"
# Exits non-zero when any output's digest differs from the golden, so a
# stale golden.json fails here rather than in the next benchmark run.
bash bench/run.sh --seed 1 --seconds 1 --trace 0

echo "==> paired hot-path gate (BenchmarkMachine, this tree vs its base, interleaved)"
./scripts/perfgate.sh

echo "==> snapshot fuzz smoke (FuzzSnapshotRoundTrip, 10s past the seed corpus)"
# The committed corpus replays as part of `go test` above; this additionally
# mutates for a short budget so codec regressions that need a fresh input to
# trip are caught before CI's longer run.
go test ./internal/pipeline -run '^FuzzSnapshotRoundTrip$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 10s >/dev/null

echo "==> TLB fuzz smoke (FuzzTLBMatchesLinearScan, 5s past the seed corpus)"
go test ./internal/mem -run '^FuzzTLBMatchesLinearScan$' -fuzz '^FuzzTLBMatchesLinearScan$' -fuzztime 5s >/dev/null

echo "==> config fuzz smoke (FuzzConfig, 5s past the seed corpus)"
# Any config Validate accepts must run to the end or stop on its cycle
# budget, with the machine's laws intact and no panic.
go test ./internal/pipeline -run '^FuzzConfig$' -fuzz '^FuzzConfig$' -fuzztime 5s >/dev/null

echo "==> request-index fuzz smoke (FuzzSubmitIndex, 5s past the seed corpus)"
# A body posted twice to one server must be answered as a fresh server
# answers it once: the request index changes how a repeat is served, never
# what. Minimization is capped at 20 runs: each candidate may run a
# simulation, and uncapped, minimizing the first new input found from a
# 1.6 KB config seed stalled a 30 s run for its last ~25 s.
go test ./internal/serve -run '^FuzzSubmitIndex$' -fuzz '^FuzzSubmitIndex$' -fuzztime 5s -fuzzminimizetime 20x >/dev/null

echo "==> observability smoke (loosim -intervals/-events | loostrace)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/loosim -bench apsi -dra -warmup 20000 -inst 60000 \
	-intervals "$tmp/iv.jsonl" -events "$tmp/ev.jsonl" >/dev/null
go run ./cmd/loostrace "$tmp/ev.jsonl" "$tmp/iv.jsonl" >/dev/null

echo "==> figure driver smoke (loosweep -quick -ablation fwd, locally and through a dead backend)"
go build -o "$tmp/loosweep" ./cmd/loosweep
"$tmp/loosweep" -quick -ablation fwd >"$tmp/local.txt"
# Port 9 (discard) is closed: every job walks the ring through its retries
# and then runs locally, so the tables must be the local run's. Only the
# "[name took Ns]" timing lines may differ.
"$tmp/loosweep" -quick -ablation fwd -backends http://127.0.0.1:9 >"$tmp/fleet.txt"
grep -v '^\[.* took .*s\]$' "$tmp/local.txt" >"$tmp/local.tables"
grep -v '^\[.* took .*s\]$' "$tmp/fleet.txt" >"$tmp/fleet.tables"
diff "$tmp/local.tables" "$tmp/fleet.tables"

echo "All checks passed."
