# Verification entry points; scripts/check.sh is the single source of truth
# for what "green" means (build + vet + tnlint + proof + verify-models +
# tests + race + allocs-gate + serve-smoke + the benchmark module's vet and
# smoke test). The benchmark itself is `bash benchmark/run.sh`.

.PHONY: check build test lint api-gate api-gate-update proof proof-update verify-models race race-stress allocs-gate serve-smoke

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

# Full analyzer suite (all thirteen analyzers; see internal/lint). Narrow a
# run with e.g. `go run ./cmd/tnlint -only lockorder,chanflow ./...`.
lint:
	go run ./cmd/tnlint ./...

# Static API-contract gate (DESIGN.md §14): the apienvelope/wiretag/
# boundconv analyzers over the serving surface, plus the two-sided
# apisurface golden — every route, wire shape, and reachable error code
# pinned in internal/lint/testdata/apisurface/v1.golden and rendered into
# README.md's generated tables. `api-gate-update` re-blesses both after a
# reviewed surface change.
api-gate:
	go run ./cmd/tnlint -only apienvelope,wiretag,boundconv ./...
	go test ./internal/lint -run TestAPISurfaceGolden

api-gate-update:
	go test ./internal/lint -run TestAPISurfaceGolden -update-apisurface

# Compiler-proof perf gate (see internal/perfproof): replay the compiler's
# escape-analysis and bounds-check-elimination diagnostics over the kernel
# packages and diff every //perf:hot function against the golden budgets
# in testdata/perfproof/. `proof-update` re-blesses the goldens after an
# intentional hot-set or budget change — review the diff before committing.
proof:
	go run ./cmd/tnproof

proof-update:
	go run ./cmd/tnproof -update

# Static model verification over the generated characterization suite:
# all 88 sweep networks, closed and recurrent on a 4x4 grid, must report
# zero findings with the full analysis enabled.
verify-models:
	go run ./cmd/tnverify -sweep-grid 4 -sweep-every 1 -assume-inputs=false -v

race:
	go test -race ./internal/compass/... ./internal/sim/... ./internal/runtime/... ./internal/serve/...

# The dynamic complement to the lockorder/chanflow/wgsafe analyzers: the
# four concurrency packages under -race, -count=3, at GOMAXPROCS 1, 2, and
# 8 — different schedules surface different interleavings. Runs as its own
# CI job so its cost never gates the main check loop.
race-stress:
	./scripts/race_stress.sh

# Per-tick heap-allocation budgets for both engines (the dynamic
# complement to tnlint's hotalloc analyzer).
allocs-gate:
	./scripts/allocs_gate.sh

# End-to-end serving smoke: boot tnserved, pause/resume and
# checkpoint/restore a session mid-run, and require its output stream to be
# byte-identical to batch tnsim runs on both engines.
serve-smoke:
	./scripts/serve_smoke.sh
