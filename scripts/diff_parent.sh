#!/usr/bin/env bash
# Output-equivalence check against a parent commit: the oracle for any
# change of storage or scheduling that claims to move no output byte.
# Builds `reproduce`, `btcsim` and `btccrawl` from REF and from the working
# tree, runs the determinism job's commands on both, and compares
#
#   - stdout of `reproduce -all -quick -seed 7 -workers=1` and of
#     `reproduce -id fig10 -quick -seed 179 -workers=1` (trace digests
#     included) with diff,
#   - the two -csv trees with diff -r, after dropping the rows whose
#     series name matches -allow,
#   - stdout and the NDJSON trace of `btcsim -nodes 30 -hours 1 -txs 50
#     -compact -seed 179 -trace-out` with diff and cmp,
#   - stdout of `btccrawl -series 6 -scale 0.02 -seed 7 -workers=1` with
#     diff.
#
# Exit status 0 means every surface is identical. The stderr of each run
# (wall-clock `resources:` lines) is kept beside its output and is not
# compared.
#
# Usage:
#   ./scripts/diff_parent.sh [-ref REF] [-allow REGEX]
#
#   -ref REF      commit to compare with (default HEAD~1). The working tree
#                 is the other side, committed or not.
#   -allow REGEX  extended regex matched against the series name, the
#                 column holding it in every CSV that has one
#                 (<id>_timeseries.csv: first; <id>_obs-metrics.csv:
#                 second). Matching rows are dropped from both trees before
#                 the diff; name the series the change is meant to move and
#                 say why in CHANGES.md. Example, for a change that removes
#                 scheduler events and nothing else:
#                   -allow '^simnet\.sched\.(executed|events\.reused)'
#
# REF is unpacked with `git archive` into a temporary directory (removed
# on exit), so nothing is left in .git and a dirty tree is no obstacle.
# Takes about a minute on two cores.
set -euo pipefail

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; }

ref="HEAD~1"
allow=""
while [ $# -gt 0 ]; do
  case "$1" in
    -ref)   ref="${2:?-ref needs a commit}"; shift 2 ;;
    -allow) allow="${2:?-allow needs a regex}"; shift 2 ;;
    -h|-help|--help) usage; exit 0 ;;
    *) usage >&2; exit 2 ;;
  esac
done

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src" "$tmp/parent" "$tmp/change"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/parent/" ./cmd/reproduce ./cmd/btcsim ./cmd/btccrawl)
go build -o "$tmp/change/" ./cmd/reproduce ./cmd/btcsim ./cmd/btccrawl

# produce runs the four commands in directory $1 with the binaries there.
produce() (
  cd "$1"
  ./reproduce -all -quick -seed 7 -workers=1 -csv csv7 > all7.txt 2> all7.err
  ./reproduce -id fig10 -quick -seed 179 -workers=1 -csv csv179 > fig10_179.txt 2> fig10_179.err
  ./btcsim -nodes 30 -hours 1 -txs 50 -compact -seed 179 -trace-out trace.ndjson > btcsim.txt 2> btcsim.err
  ./btccrawl -series 6 -scale 0.02 -seed 7 -workers=1 > btccrawl.txt 2> btccrawl.err
  # Copy each CSV without the -allow rows; the name is matched as its own
  # field, so the regex can anchor it with ^ and $.
  for tree in csv7 csv179; do
    find "$tree" -name '*.csv' | while read -r f; do
      mkdir -p "filtered/$(dirname "$f")"
      ALLOW="$allow" awk -F, '
        NR == 1 { col = ($1 == "kind" && $2 == "name") ? 2 : 1 }
        ENVIRON["ALLOW"] == "" || $col !~ ENVIRON["ALLOW"]' "$f" > "filtered/$f"
    done
  done
)
echo "diff_parent: running $ref" >&2
produce "$tmp/parent"
echo "diff_parent: running the working tree" >&2
produce "$tmp/change"

status=0
check() { # label, command...
  local label=$1; shift
  if "$@" > "$tmp/diff.out" 2>&1; then
    echo "same     $label"
  else
    echo "DIFFERS  $label"
    head -n 40 "$tmp/diff.out"
    status=1
  fi
}
check "stdout: reproduce -all -quick -seed 7"       diff "$tmp/parent/all7.txt" "$tmp/change/all7.txt"
check "stdout: reproduce -id fig10 -quick -seed 179" diff "$tmp/parent/fig10_179.txt" "$tmp/change/fig10_179.txt"
check "csv tree: seed 7${allow:+ (minus -allow rows)}"   diff -r "$tmp/parent/filtered/csv7" "$tmp/change/filtered/csv7"
check "csv tree: seed 179${allow:+ (minus -allow rows)}" diff -r "$tmp/parent/filtered/csv179" "$tmp/change/filtered/csv179"
check "stdout: btcsim -seed 179"                     diff "$tmp/parent/btcsim.txt" "$tmp/change/btcsim.txt"
check "trace:  btcsim -seed 179 NDJSON"              cmp "$tmp/parent/trace.ndjson" "$tmp/change/trace.ndjson"
check "stdout: btccrawl -series 6 -seed 7"           diff "$tmp/parent/btccrawl.txt" "$tmp/change/btccrawl.txt"

if [ -n "$allow" ]; then
  moved=$( (diff -r "$tmp/parent/csv7" "$tmp/change/csv7"; diff -r "$tmp/parent/csv179" "$tmp/change/csv179") | grep -c '^<' || true)
  echo "diff_parent: $moved CSV rows differ before -allow is applied" >&2
fi
exit $status
