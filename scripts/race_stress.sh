#!/bin/sh
# race_stress.sh — the concurrency packages under the race detector at
# hostile schedules. `make race` (inside check.sh) runs each package once
# at the default GOMAXPROCS; this harness reruns the four goroutine-heavy
# packages (runtime, serve, compass, sim) -count times each at
# GOMAXPROCS=1, 2, and 8, because the bugs the static concurrency gate
# reasons about (lock-order inversions, send-on-closed races, WaitGroup
# Add/Wait races) surface at different schedules: GOMAXPROCS=1 serializes
# into starvation shapes, 8 maximizes genuine preemption on CI runners.
# -count=N (default 3) also defeats single-run scheduling luck and catches
# cross-iteration state leaks.
#
# Environment:
#   RACE_STRESS_COUNT  test -count value per (package, GOMAXPROCS) cell
#                      (default 3)
#   RACE_STRESS_LOG    when set, a directory to write one log file per
#                      GOMAXPROCS value (CI uploads these as artifacts)
set -eu
cd "$(dirname "$0")/.."

count=${RACE_STRESS_COUNT:-3}
log_dir=${RACE_STRESS_LOG:-}
[ -n "$log_dir" ] && mkdir -p "$log_dir"

pkgs="./internal/runtime/... ./internal/serve/... ./internal/compass/... ./internal/sim/..."

for procs in 1 2 8; do
	echo "==> go test -race -count=$count (GOMAXPROCS=$procs) $pkgs"
	if [ -n "$log_dir" ]; then
		# Log to a file (not a tee pipeline: POSIX sh would take tee's exit
		# status) and replay it on failure so the breakage is in the CI log
		# as well as the artifact.
		log="$log_dir/race-stress-p$procs.log"
		# shellcheck disable=SC2086 # pkgs is a deliberate word list
		if ! GOMAXPROCS=$procs go test -race -count="$count" $pkgs >"$log" 2>&1; then
			cat "$log"
			exit 1
		fi
		grep -c '^ok' "$log" | sed 's/$/ package results ok/'
	else
		# shellcheck disable=SC2086
		GOMAXPROCS=$procs go test -race -count="$count" $pkgs
	fi
done

echo "race-stress: all schedules clean"
