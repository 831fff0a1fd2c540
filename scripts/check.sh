#!/bin/sh
# check.sh — the repo's full verification gate, run by CI and `make check`:
#
#   1. go build      — everything compiles
#   2. go vet        — stdlib static analysis
#   3. tnlint        — the in-repo analyzer suite (see internal/lint):
#                      determinism invariants (detrand/maporder/floatcmp/
#                      ticksafe) plus hot-path allocation, lock-safety,
#                      goroutine-lifecycle, and channel-ownership checks,
#                      the whole-program concurrency gate (lockorder/
#                      chanflow/wgsafe/atomicmix) over the module call
#                      graph, and the static API-contract gate
#                      (apienvelope/wiretag/boundconv + the apisurface
#                      golden, DESIGN.md §14) over the serving surface;
#                      run with -json so CI logs are machine-readable. Set
#                      CHECK_REPORT_DIR to also keep the JSON — and the
#                      rendered lock-order hierarchy and extracted v1 API
#                      surface — as files. (go vet's copylocks overlaps
#                      locksafe's by-value checks; both run, vet as
#                      backstop.)
#   4. tnproof       — compiler-proof perf gate (see internal/perfproof):
#                      replays `go build -m -m -d=ssa/check_bce` over the
#                      kernel packages and diffs escape/bounds-check
#                      diagnostics in //perf:hot functions against the
#                      golden budgets in testdata/perfproof/
#   5. tnverify      — whole-model static verification (see
#                      internal/modelcheck) over a sample of the generated
#                      characterization networks: routability,
#                      reachability, potential intervals, NoC load bounds,
#                      stochastic-mode consistency
#   6. go test       — the full suite with -shuffle=on (test-order
#                      coupling is a bug), including chip<->Compass
#                      equivalence and the bitwise-reproducibility assay
#   7. go test -race — the parallel Compass engine, the cross-engine
#                      determinism tests, and the session-runtime/serving
#                      layers under the race detector
#   8. allocs gate   — per-tick heap-allocation budgets for both engines,
#                      ratcheted from both sides (the dynamic complement
#                      to tnlint's hotalloc and tnproof's goldens)
#   9. serve smoke   — boot tnserved, pause/resume and checkpoint/restore
#                      a live session, and require its output stream to be
#                      byte-identical to batch tnsim runs on both engines
#  10. bench smoke   — run tnbench's small configuration end to end: every
#                      operating point measures three arms (active-neuron
#                      chip, forced full scan, compass) whose event counts
#                      must agree exactly, and the JSON report must land
#  11. bench-serve smoke — run the serving sweep's small configuration:
#                      both session-servicer arms (pooled scheduler and
#                      goroutine-per-session) hold paced sessions at rate
#                      with the command-latency probe running, and the
#                      BENCH_SERVE JSON report must land
#  12. benchmark     — vet and smoke-test benchmark/, a module of its own
#                      that root `go build ./...` does not see: it compiles
#                      against the product's API, so this is where a
#                      refactor that breaks the frozen surface (ROADMAP,
#                      "How to land something") fails
set -eu
cd "$(dirname "$0")/.."

# When CHECK_REPORT_DIR is set (CI does this), machine-readable reports
# from tnlint and tnproof are written there for artifact upload.
report_dir=${CHECK_REPORT_DIR:-}
if [ -n "$report_dir" ]; then
	mkdir -p "$report_dir"
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> tnlint -json ./..."
lockorder_flag=""
apisurface_flag=""
if [ -n "$report_dir" ]; then
	lockorder_flag="-lockorder-out=$report_dir/lockorder.txt"
	apisurface_flag="-apisurface-out=$report_dir/apisurface.txt"
fi
if ! lint_out=$(go run ./cmd/tnlint -json $lockorder_flag $apisurface_flag ./...); then
	echo "$lint_out"
	[ -n "$report_dir" ] && printf '%s\n' "$lint_out" >"$report_dir/tnlint.json"
	echo "tnlint: unsuppressed findings (full suite; see internal/lint)" >&2
	exit 1
fi
[ -n "$report_dir" ] && printf '%s\n' "$lint_out" >"$report_dir/tnlint.json"
# The golden-diff belt-and-suspenders: the checked-in hierarchy must match
# what the linter just rendered (the golden test also enforces this; here
# the mismatch shows up in the artifact diff too).
if [ -n "$report_dir" ] && ! diff -u internal/lint/testdata/lockorder/hierarchy.golden "$report_dir/lockorder.txt" >"$report_dir/lockorder.diff" 2>&1; then
	echo "check.sh: lock-order hierarchy drifted from testdata/lockorder/hierarchy.golden (see lockorder.diff artifact)" >&2
	exit 1
fi
# Same belt-and-suspenders for the API surface: the checked-in v1 golden
# must match the spec the linter just extracted (TestAPISurfaceGolden
# enforces this with file:line diagnostics; the artifact diff makes the
# drift reviewable from CI too).
if [ -n "$report_dir" ] && ! diff -u internal/lint/testdata/apisurface/v1.golden "$report_dir/apisurface.txt" >"$report_dir/apisurface.diff" 2>&1; then
	echo "check.sh: v1 API surface drifted from testdata/apisurface/v1.golden (see apisurface.diff artifact; re-bless with make api-gate-update)" >&2
	exit 1
fi

echo "==> tnproof (escape/bounds-check budgets for //perf:hot functions)"
if [ -n "$report_dir" ]; then
	go run ./cmd/tnproof -json "$report_dir/tnproof.json"
else
	go run ./cmd/tnproof
fi

echo "==> tnverify (characterization sweep sample)"
go run ./cmd/tnverify -sweep-grid 4 -sweep-every 8 -assume-inputs=false -v

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race ./internal/compass/... ./internal/sim/... ./internal/runtime/... ./internal/serve/..."
go test -race ./internal/compass/... ./internal/sim/... ./internal/runtime/... ./internal/serve/...

echo "==> go test -race ./internal/runtime/... ./internal/sim/... (TN_RUNTIME_SCHED=1: pooled-scheduler servicer)"
TN_RUNTIME_SCHED=1 go test -race ./internal/runtime/... ./internal/sim/...

echo "==> allocs gate (per-tick heap budgets)"
./scripts/allocs_gate.sh

echo "==> serve smoke (tnserved end-to-end)"
./scripts/serve_smoke.sh

echo "==> bench smoke (tnbench small sweep)"
bench_out=$(mktemp)
serve_bench_out=$(mktemp)
trap 'rm -f "$bench_out" "$serve_bench_out"' EXIT
go run ./cmd/tnbench -smoke -q -o "$bench_out"

echo "==> bench-serve smoke (tnbench serving sweep, both servicer arms)"
go run ./cmd/tnbench -serve -smoke -q -o "$serve_bench_out"

echo "==> benchmark (go vet + smoke test of the benchmark module)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> all checks passed"
