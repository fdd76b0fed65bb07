#!/usr/bin/env bash
# Intervention-grid driver for cmd/reprod: sweeps the fig_interv policy
# axis cell-by-cell through the reproduce service, one restricted spec
# (stock versus one policy set) per POST, and collects the reports.
#
# Each POST is an independent cache entry (the policies field is part of
# the spec key), so a partially completed sweep resumes for free: cells
# that already ran come back as cache hits and only the missing ones
# execute. The driver verifies exactly that — a second pass over the
# same cells must be all hits with zero new executions.
#
# Usage:
#   ./scripts/interv_grid.sh                       # boot a service, sweep, tear down
#   REPROD_URL=http://host:8080 ./scripts/interv_grid.sh   # sweep an existing service
#
# Tunables (env): SEED (default 7), NETSIZE (default 40), OUT (report dir).
set -euo pipefail

SEED="${SEED:-7}"
NETSIZE="${NETSIZE:-40}"
OUT="${OUT:-interv_grid_out}"

# One cell per policy set: the service runs stock versus this set under
# both churn regimes and both population mixes. The stock cell itself is
# the "policies":"stock" spec (a 1-set grid).
SETS=(
  stock
  tried-only-addr
  horizon-17d
  priority-relay
  unreachable-tx-relay
  churn-resilient-peering
  tried-only-addr+horizon-17d+priority-relay
  ideal-broadcast
)

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

base="${REPROD_URL:-}"
if [ -z "$base" ]; then
  echo "--- build + start a local service"
  go build -o "$tmp/reprod" ./cmd/reprod
  "$tmp/reprod" -addr 127.0.0.1:0 -cache "$tmp/cache" \
    >"$tmp/stdout.log" 2>"$tmp/stderr.log" &
  pid=$!
  for _ in $(seq 1 100); do
    base=$(sed -n 's#^reprod listening on \(http://[^ ]*\).*#\1#p' "$tmp/stdout.log")
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server died at startup"; cat "$tmp/stderr.log"; exit 1; }
    sleep 0.1
  done
  [ -n "$base" ] || { echo "server never printed its ready line"; exit 1; }
fi
echo "sweeping against $base"
curl -fsS "$base/readyz" >/dev/null

mkdir -p "$OUT"
executions() {
  curl -fsS "$base/metrics" | awk '$1 == "reprod_runs_executed" {print $2}'
}
before=$(executions)

echo "--- pass 1: execute every cell"
for set in "${SETS[@]}"; do
  spec=$(printf '{"id":"fig_interv","quick":true,"seed":%s,"netsize":%s,"policies":"%s"}' \
    "$SEED" "$NETSIZE" "$set")
  out="$OUT/cell_${set//+/_}.txt"
  echo "cell: $set"
  curl -fsS -X POST "$base/run" -d "$spec" -o "$out"
  grep -q '^== fig_interv — ' "$out" || { echo "cell $set: malformed report"; exit 1; }
done
after=$(executions)
ran=$((after - before))
echo "pass 1 done: $ran execution(s) for ${#SETS[@]} cells"

echo "--- pass 2: every cell is a cache hit"
for set in "${SETS[@]}"; do
  spec=$(printf '{"id":"fig_interv","quick":true,"seed":%s,"netsize":%s,"policies":"%s"}' \
    "$SEED" "$NETSIZE" "$set")
  hit=$(curl -fsS -D - -X POST "$base/run" -d "$spec" -o "$tmp/repeat.txt" |
    tr -d '\r' | awk 'tolower($1) == "x-reprod-cache:" {print $2}')
  [ "$hit" = "hit" ] || { echo "cell $set: X-Reprod-Cache = '$hit', want hit"; exit 1; }
  cmp "$tmp/repeat.txt" "$OUT/cell_${set//+/_}.txt" ||
    { echo "cell $set: cached artifact differs from pass 1"; exit 1; }
done
[ "$(executions)" = "$after" ] || { echo "pass 2 triggered new executions"; exit 1; }

if [ -n "$pid" ]; then
  kill -TERM "$pid"
  wait "$pid" || true
  pid=""
fi
echo "grid sweep complete: reports in $OUT/"
