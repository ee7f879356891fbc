#!/usr/bin/env bash
# bench.sh — the repository's memory and committed-report gates. Timing is
# bench/'s job: `bash bench/run.sh` is the one benchmark (BENCHMARK.json).
#
# Usage:
#   scripts/bench.sh mem             # quick fullscale run, gate peak heap
#                                    # against BENCH_fullscale.json budget
#   scripts/bench.sh fullscale       # full-length fullscale run (slow) with
#                                    # -bench-mem reporting, no gate
#   scripts/bench.sh reports         # regenerate the committed fleet, storm,
#                                    # txn and cluster reports and fail unless
#                                    # every file is byte-identical
#
# BENCH_fullscale.json records the fullscale memory footprint and the heap
# budgets the `mem` mode enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

# json_int FILE KEY — pull an integer field out of a flat JSON file without
# depending on jq (the CI runners and the dev container both lack it).
json_int() {
  awk -v key="\"$2\"" '$0 ~ key { gsub(/[^0-9]/, "", $2); print $2; exit }' FS=': ' "$1"
}

case "${1:-}" in
mem)
  # Quick-mode fullscale with the memory sampler; fail if peak heap exceeds
  # the committed budget. This is the CI heap-regression gate.
  BUDGET="$(json_int BENCH_fullscale.json quick_peak_heap_budget_bytes)"
  if [[ -z "$BUDGET" ]]; then
    echo "bench.sh mem: no quick_peak_heap_budget_bytes in BENCH_fullscale.json" >&2
    exit 1
  fi
  OUT="$(go run ./cmd/anykeybench -exp fullscale -quick -bench-mem -quiet | tee /dev/stderr)"
  PEAK="$(echo "$OUT" | awk -F'[= ]' '/^mem: peak-heap-bytes=/ { print $3 }')"
  if [[ -z "$PEAK" ]]; then
    echo "bench.sh mem: no 'mem: peak-heap-bytes=' line in output" >&2
    exit 1
  fi
  echo "peak heap: $PEAK bytes (budget: $BUDGET)"
  if (( PEAK > BUDGET )); then
    echo "bench.sh mem: FAIL — peak heap $PEAK exceeds budget $BUDGET" >&2
    exit 1
  fi
  echo "bench.sh mem: OK"
  exit 0
  ;;
reports)
  # The committed reports are current: regenerate reports/{fleet,storm,txn,
  # cluster}* with the commands EXPERIMENTS.md documents and compare every
  # file, both ways (a table that appears or disappears fails too). About a
  # minute on two cores; fullscale (~5 min, 7.5 GB) stays manual.
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  go build -o "$TMP/anykeybench" ./cmd/anykeybench
  "$TMP/anykeybench" -exp fleet -quiet -out "$TMP/reports" > /dev/null
  "$TMP/anykeybench" -exp storm -quick=false -quiet -out "$TMP/reports" > /dev/null
  "$TMP/anykeybench" -exp txn -quiet -out "$TMP/reports" > /dev/null
  "$TMP/anykeybench" -exp cluster -quiet -out "$TMP/reports" > /dev/null
  STATUS=0
  for f in "$TMP"/reports/*; do
    diff -u "reports/$(basename "$f")" "$f" || STATUS=1
  done
  for f in reports/fleet* reports/storm* reports/txn* reports/cluster*; do
    if [[ ! -e "$TMP/$f" ]]; then
      echo "bench.sh reports: $f is committed but no longer generated" >&2
      STATUS=1
    fi
  done
  if (( STATUS != 0 )); then
    echo "bench.sh reports: FAIL — committed reports differ from regenerated ones" >&2
    exit 1
  fi
  echo "bench.sh reports: OK — $(ls "$TMP/reports" | wc -l) files byte-identical"
  exit 0
  ;;
fullscale)
  # Full-length fullscale experiment (64 GB-class sweep; minutes of wall
  # time). Reports memory at exit; compare by hand against
  # BENCH_fullscale.json.
  exec go run ./cmd/anykeybench -exp fullscale -bench-mem
  ;;
*)
  sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
  ;;
esac
