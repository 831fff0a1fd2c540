#!/bin/sh
# serve_smoke.sh — end-to-end proof that serving a model does not change
# what it computes. Boots tnserved, drives one session through an async
# paced run, a mid-flight pause/resume, and a checkpoint/overshoot/restore,
# and requires the session's drained output stream to be byte-identical to
# batch tnsim runs of the same model on BOTH engines. Run via
# `make serve-smoke` or scripts/check.sh.
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "==> build tnsim + tnserved"
go build -o "$work/tnsim" ./cmd/tnsim
go build -o "$work/tnserved" ./cmd/tnserved

# One model everywhere: the tapped 4x4 characterization network, seed 46.
gen_flags="-grid 4 -rate 90 -syn 64 -seed 46 -outputs 16 -warmup 0 -ticks 120"

echo "==> batch reference runs (chip and compass)"
"$work/tnsim" -engine chip $gen_flags -spikes-out "$work/chip.aer" >/dev/null
"$work/tnsim" -engine compass $gen_flags -spikes-out "$work/compass.aer" >/dev/null
cmp "$work/chip.aer" "$work/compass.aer"
[ -s "$work/chip.aer" ] || { echo "FAIL: reference stream is empty"; exit 1; }

echo "==> boot tnserved on an ephemeral port"
"$work/tnserved" -addr 127.0.0.1:0 >"$work/server.log" 2>&1 &
server_pid=$!
base=""
i=0
while [ $i -lt 100 ]; do
	base="$(sed -n 's#^tnserved listening on \(http://[^ ]*\)$#\1#p' "$work/server.log")"
	[ -n "$base" ] && break
	i=$((i + 1))
	sleep 0.1
done
[ -n "$base" ] || { echo "FAIL: server never announced its address"; cat "$work/server.log"; exit 1; }

post() { curl -sSf -X POST -H 'Content-Type: application/json' -d "$2" "$base$1"; }
get() { curl -sSf "$base$1"; }
# json_int RESPONSE FIELD — extract a top-level integer field.
json_int() { printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p"; }

echo "==> create a compass session of the same model, paced at 50 Hz"
create='{"engine":"compass","tick_rate_hz":50,"netgen":{"grid":4,"rate_hz":90,"syn_per_neuron":64,"seed":46,"output_every":16}}'
resp="$(post /v1/sessions "$create")"
sid="$(printf '%s' "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$sid" ] || { echo "FAIL: create: $resp"; exit 1; }
s="/v1/sessions/$sid"

echo "==> async run, pause mid-flight, resume free-running to tick 90"
post "$s/run" '{"until":2000}' >/dev/null
sleep 0.3
resp="$(post "$s/pause" '{}')"
t1="$(json_int "$resp" tick)"
[ -n "$t1" ] && [ "$t1" -ge 1 ] && [ "$t1" -lt 90 ] ||
	{ echo "FAIL: pause landed at tick '$t1', not mid-run in (0,90): $resp"; exit 1; }
echo "    paused at tick $t1"
curl -sSf -X PATCH -H 'Content-Type: application/json' -d '{"tick_rate_hz":0}' "$base$s" >/dev/null
post "$s/run" '{"until":90,"wait":true}' >/dev/null
get "$s/outputs?format=aer" >"$work/part1.aer"

echo "==> checkpoint at tick 90, overshoot 20 ticks, restore"
get "$s/checkpoint" >"$work/ckpt.bin"
[ -s "$work/ckpt.bin" ] || { echo "FAIL: empty checkpoint"; exit 1; }
post "$s/run" '{"ticks":20,"wait":true}' >/dev/null
resp="$(curl -sSf -X POST --data-binary @"$work/ckpt.bin" "$base$s/restore")"
t2="$(json_int "$resp" tick)"
[ "$t2" = "90" ] || { echo "FAIL: restore landed at tick '$t2', want 90: $resp"; exit 1; }

echo "==> finish to tick 120 and compare streams"
post "$s/run" '{"until":120,"wait":true}' >/dev/null
get "$s/outputs?format=aer" >"$work/part2.aer"
cat "$work/part1.aer" "$work/part2.aer" >"$work/session.aer"
cmp "$work/chip.aer" "$work/session.aer" ||
	{ echo "FAIL: served session stream diverged from the batch run"; exit 1; }

echo "==> metrics and teardown"
get /metrics | grep -q '^truenorth_sessions 1$' || { echo "FAIL: metrics"; exit 1; }
curl -sSf -X DELETE "$base$s" >/dev/null
get /healthz | grep -q '"sessions":0' || { echo "FAIL: healthz after delete"; exit 1; }

spikes="$(wc -l <"$work/session.aer")"
echo "==> serve smoke OK: $spikes spikes byte-identical across chip batch, compass batch, and the paused/restored session"
