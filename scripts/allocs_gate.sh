#!/bin/sh
# allocs_gate.sh — per-tick heap-allocation budgets for both engines.
#
# BenchmarkPerTickAllocs steps each engine at the flagship operating point
# (8x8 grid, 20 Hz, 128 syn/neuron, settled past the delay-ring transient)
# and -benchmem reports steady-state allocs/op, where one op is one tick.
# This gate pins those numbers from both sides:
#
#   over budget  — FAIL: a buffer stopped being reused, or a closure or
#                  slice started escaping. Fix the regression.
#   more than RATCHET_SLACK below budget — FAIL: the engine got cheaper
#                  and the budget is now stale. Lower it so the headroom
#                  cannot silently erode back.
#
# Budgets:
#   chip    — 0, exactly: the sequential kernel must not touch the heap
#             per tick. tnproof statically proves the hot set is
#             escape-free; this pins the dynamic side to match.
#   compass — 0, exactly, at 4 workers: the worker pool is started once, at
#             construction, and each phase signals it through per-worker
#             channels and a reused WaitGroup, neither of which allocates.
#
# The budgets and the slack are constants, not environment overrides:
# the gate only changes by a reviewed edit here.
#
# The static complements are tnlint's hotalloc analyzer and tnproof's
# escape-diagnostic goldens; this script catches what escape analysis
# decides at build time, which no syntactic check can.
set -eu
cd "$(dirname "$0")/.."

CHIP_BUDGET=0
COMPASS_BUDGET=0
RATCHET_SLACK=2

out=$(go test -run '^$' -bench '^BenchmarkPerTickAllocs$' -benchmem -benchtime 2000x .)
echo "$out"

check() {
	name=$1
	budget=$2
	allocs=$(echo "$out" | awk -v n="^BenchmarkPerTickAllocs/$name" '$1 ~ n { print $(NF-1) }')
	if [ -z "$allocs" ]; then
		echo "allocs_gate: no benchmark result for $name" >&2
		exit 1
	fi
	if [ "$allocs" -gt "$budget" ]; then
		echo "allocs_gate: FAIL $name allocates $allocs/tick (budget $budget)" >&2
		exit 1
	fi
	if [ $((budget - allocs)) -gt "$RATCHET_SLACK" ]; then
		echo "allocs_gate: FAIL $name allocates only $allocs/tick but the budget is $budget;" >&2
		echo "allocs_gate: the budget is stale — ratchet it down in scripts/allocs_gate.sh" >&2
		exit 1
	fi
	echo "allocs_gate: $name $allocs allocs/tick (budget $budget)"
}

check chip "$CHIP_BUDGET"
check compass "$COMPASS_BUDGET"
