#!/bin/sh
# check.sh — the repo's full verification gate, run by CI and `make check`:
#
#   1. go build      — everything compiles
#   2. go vet        — stdlib static analysis; its copylocks check is
#                      the repo's one owner of sync primitives copied by
#                      value
#   3. tnlint        — the in-repo analyzer suite (see internal/lint):
#                      determinism invariants (detrand/maporder/floatcmp/
#                      ticksafe) plus hot-path allocation and
#                      goroutine-lifecycle checks (hotalloc/goctx), the
#                      whole-program concurrency gate (lockorder/
#                      chanflow/wgsafe/atomicmix: lock order and leaks,
#                      blocking under locks, channel ownership) over the
#                      module call graph, and the static API-contract gate
#                      (apienvelope/wiretag/boundconv + the apisurface
#                      golden, DESIGN.md §14) over the serving surface;
#                      run with -json so CI logs are machine-readable. Set
#                      CHECK_REPORT_DIR to also keep the JSON — and the
#                      rendered lock-order hierarchy and extracted v1 API
#                      surface — as files.
#   4. tnproof       — compiler-proof perf gate (see internal/perfproof):
#                      replays `go build -m -m -d=ssa/check_bce` over the
#                      kernel packages and diffs escape/bounds-check
#                      diagnostics in //perf:hot functions against the
#                      golden budgets in testdata/perfproof/
#   5. tnverify      — whole-model static verification (see
#                      internal/modelcheck) over all 88 generated
#                      characterization networks at 4x4: routability,
#                      reachability, potential intervals, NoC load bounds,
#                      stochastic-mode consistency
#   6. go test       — the full suite with -shuffle=on (test-order
#                      coupling is a bug), including chip<->Compass
#                      equivalence and the bitwise-reproducibility assay
#   7. 386, s390x    — `GOARCH=386 go vet ./...`, then the tests of the
#                      determinism packages (the kernel, the engines, the
#                      substrate, netgen, the session runtime and server,
#                      the two decoders) and three seconds of each decoder
#                      fuzzer on a 32-bit host, where int is 32 bits and a
#                      decoded uint32 converted to int can turn negative
#                      (an amd64 Linux host runs 386 test binaries
#                      natively); then `GOARCH=s390x` vet and test builds
#                      of the same packages on a big-endian target, which
#                      the host cannot run
#   8. go test -fuzz — ten seconds each of the model-file and checkpoint
#                      decoder fuzzers (FuzzReadModel, FuzzReadCheckpoint):
#                      hostile bytes never panic, and what they accept is
#                      in range and runs
#   9. go test -race — the parallel Compass engine, the cross-engine
#                      determinism tests, and the session-runtime/serving
#                      layers under the race detector
#  10. allocs gate   — per-tick heap-allocation budgets for both engines,
#                      ratcheted from both sides (the dynamic complement
#                      to tnlint's hotalloc and tnproof's goldens)
#  11. serve smoke   — boot tnserved, pause/resume and checkpoint/restore
#                      a live session, and require its output stream to be
#                      byte-identical to batch tnsim runs on both engines
#  12. tnexp         — the paper's tables from their one entry point:
#                      the Section VI-A chip<->Compass regression at a
#                      1,000-tick horizon and the Section VII projections
#  13. benchmark     — vet and smoke-test benchmark/, a module of its own
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

echo "==> tnverify (all 88 characterization sweep networks)"
go run ./cmd/tnverify -sweep-grid 4 -sweep-every 1 -assume-inputs=false -v

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

det_pkgs="./internal/core ./internal/neuron ./internal/prng ./internal/router ./internal/sim
	./internal/chip ./internal/compass ./internal/model ./internal/spikeio ./internal/netgen
	./internal/runtime ./internal/serve"

echo "==> GOARCH=386 go vet ./... && GOARCH=386 go test + fuzz (determinism packages)"
GOARCH=386 go vet ./...
GOARCH=386 go test $det_pkgs
for fuzz in FuzzReadModel FuzzReadCheckpoint; do
	GOARCH=386 go test -run '^$' -fuzz "^$fuzz\$" -fuzztime 3s ./internal/model
done

echo "==> GOARCH=s390x go vet && go test -c (determinism packages, build only)"
GOARCH=s390x go vet $det_pkgs
s390x_bin=$(mktemp -d)
trap 'rm -rf "$s390x_bin"' EXIT
GOARCH=s390x go test -c -o "$s390x_bin/" $det_pkgs

for fuzz in FuzzReadModel FuzzReadCheckpoint; do
	echo "==> go test -fuzz $fuzz -fuzztime 10s ./internal/model"
	go test -run '^$' -fuzz "^$fuzz\$" -fuzztime 10s ./internal/model
done

echo "==> go test -race ./internal/compass/... ./internal/sim/... ./internal/runtime/... ./internal/serve/..."
go test -race ./internal/compass/... ./internal/sim/... ./internal/runtime/... ./internal/serve/...

echo "==> allocs gate (per-tick heap budgets)"
./scripts/allocs_gate.sh

echo "==> serve smoke (tnserved end-to-end)"
./scripts/serve_smoke.sh

echo "==> tnexp -ticks 1000 regress future"
go run ./cmd/tnexp -ticks 1000 regress future

echo "==> benchmark (go vet + smoke test of the benchmark module)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> all checks passed"
