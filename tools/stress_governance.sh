#!/usr/bin/env bash
# Adversarial governance stress: runs the Fourier–Motzkin explosion query
# (an unselective self-join over stores that all share a point and each
# carry a diagonal member, so FM refines every pair and the constraint
# count grows quadratically) under a 50 ms deadline, 100 times, via
# bench_governance --stress.
#
# Fails on:
#   - the query finishing within 10x the deadline, or running no FM
#     elimination (checked once first: the workload is no longer
#     adversarial),
#   - a hang (the whole loop is wrapped in a hard timeout),
#   - a crash or sanitizer report (non-zero exit),
#   - any run that does not return the typed kDeadlineExceeded,
#   - any trip that takes more than twice the deadline.
#
# Usage: tools/stress_governance.sh [path/to/bench_governance] [runs]
# ctest registers it with the built binary as argument 1.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bin="${1:-$repo_root/build/bench/bench_governance}"
runs="${2:-100}"

if [[ ! -x "$bin" ]]; then
  echo "missing $bin — build first (cmake --build build)" >&2
  exit 1
fi

# 100 runs x a 100 ms worst-case bound each is ~10 s of real work; the
# 300 s ceiling only fires on a genuine hang (e.g. a check-point that an
# engine loop never reaches).
if command -v timeout > /dev/null; then
  timeout --signal=KILL 300 "$bin" --stress "$runs"
else
  "$bin" --stress "$runs"
fi
