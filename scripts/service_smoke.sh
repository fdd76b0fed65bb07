#!/usr/bin/env bash
# Service smoke drill for cmd/reprod: boot the real binary, hit it over
# HTTP, and check the service contract end to end —
#
#   1. two concurrent identical specs produce byte-identical responses
#      and exactly ONE execution (singleflight + cache),
#   2. the served report is byte-identical to the reproduce CLI's stdout
#      for the same options,
#   3. a repeat request is a cache hit,
#   4. a forced selftest_crash run becomes a structured 500 (kind
#      "panic") and leaves a well-formed flight record on disk,
#   5. a cached run's manifest carries nonzero resource provenance and
#      the bundle HTML renders a Resources section,
#   6. SIGTERM drains cleanly (non-zero exit or a hung process fails
#      the drill) and flushes the cache index.
#
# Run from the repository root: ./scripts/service_smoke.sh
# On failure the flight-record directory is copied to ./smoke-flightrec
# so CI can upload it as a post-mortem artifact.
set -euo pipefail

SPEC='{"id":"fig7","quick":true,"seed":7}'

tmp=$(mktemp -d)
flight="$tmp/flightrec"
pid=""
cleanup() {
  status=$?
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  if [ "$status" -ne 0 ] && [ -d "$flight" ]; then
    mkdir -p smoke-flightrec
    cp "$flight"/flightrec-*.json smoke-flightrec/ 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "--- build"
go build -o "$tmp/reprod" ./cmd/reprod

echo "--- start"
"$tmp/reprod" -addr 127.0.0.1:0 -cache "$tmp/cache" -flightrec "$flight" \
  >"$tmp/stdout.log" 2>"$tmp/stderr.log" &
pid=$!

base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#^reprod listening on \(http://[^ ]*\).*#\1#p' "$tmp/stdout.log")
  [ -n "$base" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "server died at startup"; cat "$tmp/stderr.log"; exit 1; }
  sleep 0.1
done
[ -n "$base" ] || { echo "server never printed its ready line"; exit 1; }
echo "serving at $base"

curl -fsS "$base/healthz" >/dev/null
curl -fsS "$base/readyz" >/dev/null

echo "--- two concurrent identical specs"
curl -fsS -X POST "$base/run" -d "$SPEC" -o "$tmp/a.txt" &
ca=$!
curl -fsS -X POST "$base/run" -d "$SPEC" -o "$tmp/b.txt" &
cb=$!
wait "$ca" "$cb"
cmp "$tmp/a.txt" "$tmp/b.txt" || { echo "concurrent responses differ"; exit 1; }

executed=$(curl -fsS "$base/metrics" | awk '$1 == "reprod_runs_executed" {print $2}')
[ "$executed" = "1" ] || { echo "reprod_runs_executed = $executed, want 1"; exit 1; }
echo "one execution, byte-identical responses"

echo "--- byte-identity against the reproduce CLI"
go run ./cmd/reproduce -id fig7 -quick -seed 7 >"$tmp/cli.txt" 2>/dev/null
cmp "$tmp/a.txt" "$tmp/cli.txt" || { echo "service report differs from CLI stdout"; exit 1; }

echo "--- repeat request is a cache hit"
curl -fsS -D "$tmp/hit.hdr" -X POST "$base/run" -d "$SPEC" -o /dev/null
hit=$(tr -d '\r' <"$tmp/hit.hdr" | awk 'tolower($1) == "x-reprod-cache:" {print $2}')
[ "$hit" = "hit" ] || { echo "X-Reprod-Cache = '$hit', want hit"; exit 1; }
fig7_key=$(tr -d '\r' <"$tmp/hit.hdr" | awk 'tolower($1) == "x-reprod-key:" {print $2}')
[ -n "$fig7_key" ] || { echo "no X-Reprod-Key on the cache hit"; exit 1; }

echo "--- resource provenance in the manifest and bundle HTML"
curl -fsS "$base/runs/$fig7_key" -o "$tmp/manifest.json"
grep -q '"peak_heap_bytes":[1-9]' "$tmp/manifest.json" ||
  { echo "manifest lacks nonzero peak_heap_bytes"; cat "$tmp/manifest.json"; exit 1; }
curl -fsS "$base/runs/$fig7_key/report.html" | grep -q '<h2>Resources</h2>' ||
  { echo "bundle HTML lacks the Resources section"; exit 1; }
# The text report (the determinism surface shared with the CLI) must
# stay free of resource data — already pinned by the cmp against the
# CLI above, restated here for the reader.

echo "--- churn study: singleflight + cache"
CHURN_SPEC='{"id":"fig13","quick":true,"seed":7}'
curl -fsS -X POST "$base/run" -d "$CHURN_SPEC" -o "$tmp/ca.txt" &
ca=$!
curl -fsS -X POST "$base/run" -d "$CHURN_SPEC" -o "$tmp/cb.txt" &
cb=$!
wait "$ca" "$cb"
cmp "$tmp/ca.txt" "$tmp/cb.txt" || { echo "concurrent fig13 responses differ"; exit 1; }
executed=$(curl -fsS "$base/metrics" | awk '$1 == "reprod_runs_executed" {print $2}')
[ "$executed" = "2" ] || { echo "reprod_runs_executed = $executed, want 2 (fig7 + one fig13)"; exit 1; }
hit=$(curl -fsS -D - -X POST "$base/run" -d "$CHURN_SPEC" -o /dev/null |
  tr -d '\r' | awk 'tolower($1) == "x-reprod-cache:" {print $2}')
[ "$hit" = "hit" ] || { echo "fig13 X-Reprod-Cache = '$hit', want hit"; exit 1; }
echo "one fig13 execution, byte-identical responses, repeat is a cache hit"

echo "--- intervention grid: 2-cell restricted sweep through the cache"
# Two restricted fig_interv specs differing only in the policies field:
# they must execute separately (policies is part of the cache key), and
# each repeat must be a cache hit.
IV_STOCK='{"id":"fig_interv","quick":true,"seed":7,"netsize":24,"policies":"stock"}'
IV_TRIED='{"id":"fig_interv","quick":true,"seed":7,"netsize":24,"policies":"tried-only-addr+horizon-17d+priority-relay"}'
curl -fsS -X POST "$base/run" -d "$IV_STOCK" -o "$tmp/iv_stock.txt"
curl -fsS -X POST "$base/run" -d "$IV_TRIED" -o "$tmp/iv_tried.txt"
cmp -s "$tmp/iv_stock.txt" "$tmp/iv_tried.txt" && { echo "different policy sets served the same artifact"; exit 1; }
executed=$(curl -fsS "$base/metrics" | awk '$1 == "reprod_runs_executed" {print $2}')
[ "$executed" = "4" ] || { echo "reprod_runs_executed = $executed, want 4 (fig7 + fig13 + 2 fig_interv cells)"; exit 1; }
for spec in "$IV_STOCK" "$IV_TRIED"; do
  hit=$(curl -fsS -D - -X POST "$base/run" -d "$spec" -o /dev/null |
    tr -d '\r' | awk 'tolower($1) == "x-reprod-cache:" {print $2}')
  [ "$hit" = "hit" ] || { echo "fig_interv X-Reprod-Cache = '$hit', want hit"; exit 1; }
done
# Non-canonical policy spellings must be rejected, not fragment the cache.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$base/run" \
  -d '{"id":"fig_interv","quick":true,"policies":"horizon-017d"}')
[ "$code" = "400" ] || { echo "non-canonical policies got HTTP $code, want 400"; exit 1; }
echo "two grid cells executed once each, repeats hit, non-canonical rejected"

echo "--- crash drill: selftest_crash → structured 500 + flight record"
code=$(curl -sS -o "$tmp/crash.json" -w '%{http_code}' -X POST "$base/run" \
  -d '{"id":"selftest_crash","quick":true}')
[ "$code" = "500" ] || { echo "selftest_crash got HTTP $code, want 500"; cat "$tmp/crash.json"; exit 1; }
grep -q '"kind":"panic"' "$tmp/crash.json" || { echo "crash error lacks kind=panic"; cat "$tmp/crash.json"; exit 1; }
rec=$(ls "$flight"/flightrec-*.json 2>/dev/null | head -1)
[ -n "$rec" ] || { echo "no flight record dumped"; exit 1; }
grep -q '"cause": "panic"' "$rec" || { echo "flight record cause is not panic"; cat "$rec"; exit 1; }
grep -q '"peak_heap_bytes"' "$rec" || { echo "flight record lacks resource watermarks"; exit 1; }
panics=$(curl -fsS "$base/metrics" | awk '$1 == "reprod_runs_panics" {print $2}')
[ "$panics" = "1" ] || { echo "reprod_runs_panics = $panics, want 1"; exit 1; }
# The crash is contained: the server still serves, per-route SLO
# metrics are live, and the proc.* resource gauges are exported.
curl -fsS "$base/healthz" >/dev/null
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^reprod_http_run_requests ' || { echo "missing reprod_http_run_requests"; exit 1; }
echo "$metrics" | grep -q '^proc_heap_alloc_bytes ' || { echo "missing proc_heap_alloc_bytes"; exit 1; }
echo "crash contained, flight record well-formed, SLO metrics live"

echo "--- graceful drain on SIGTERM"
kill -TERM "$pid"
drained=1
for _ in $(seq 1 100); do
  if ! kill -0 "$pid" 2>/dev/null; then drained=0; break; fi
  sleep 0.1
done
[ "$drained" = 0 ] || { echo "server did not exit within 10s of SIGTERM"; exit 1; }
wait "$pid" || { echo "server exited non-zero on drain"; cat "$tmp/stderr.log"; exit 1; }
pid=""
grep -q "drained cleanly" "$tmp/stderr.log" || { echo "no clean-drain line"; cat "$tmp/stderr.log"; exit 1; }
[ -f "$tmp/cache/index.json" ] || { echo "drain did not flush the cache index"; exit 1; }

echo "service smoke drill PASSED"
