#!/usr/bin/env bash
# Runs the suite twice on the same code and compares the two sets of runs:
# every end-to-end metric must stay within its own bound and every exact
# in-process number must be identical. Extra arguments go to both suite runs
# (e.g. --seeds 1,2 --seconds 5).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p bench/out
bash bench/run.sh --out bench/out/A.json "$@"
bash bench/run.sh --out bench/out/B.json "$@"
bash bench/run.sh compare --same-code bench/out/A.json bench/out/B.json
