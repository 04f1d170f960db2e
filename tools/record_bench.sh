#!/usr/bin/env bash
# Records the per-PR benchmark trajectory: runs the JSON-emitting benches
# and writes one BENCH_<name>.json (one JSON object per line) at the repo
# root. Run from anywhere once the build dirs are configured:
#   tools/record_bench.sh [build-dir] [lockgraph-build-dir]
#
# The script builds every bench it runs first (cmake --build --target) and
# writes nothing when a build fails. BENCH_lockgraph.json is special: the
# per-acquisition hook costs only exist in a -DCCDB_DEADLOCK_DETECT=ON
# build, so it is recorded from the second build dir (default
# build-lockgraph/) when that dir is configured, and skipped with a notice
# otherwise. Everything else comes from the default build, where the
# detector is compiled out.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
lockgraph_build_dir="${2:-$repo_root/build-lockgraph}"

benches=(service wal trace governance net mvcc obs failover)

# Every JSON line carries git describe (bench_common.h EnvStamp); read it
# now, not at configure time, so a rebuilt tree is never stamped stale.
CCDB_GIT_DESCRIBE="$(git -C "$repo_root" describe --always --dirty --tags 2>/dev/null || echo unknown)"
export CCDB_GIT_DESCRIBE

# Build what is recorded, so a stale binary is never stamped with the
# current describe. A failed build stops here, before any JSON is written.
jobs="$(nproc 2>/dev/null || echo 2)"
targets=()
for bench in "${benches[@]}"; do targets+=("bench_$bench"); done
cmake --build "$build_dir" --parallel "$jobs" --target "${targets[@]}"
if [[ -f "$lockgraph_build_dir/CMakeCache.txt" ]]; then
  cmake --build "$lockgraph_build_dir" --parallel "$jobs" \
    --target bench_lockgraph
fi

# Preflight every binary before running any, so a missing one fails the
# whole recording instead of leaving a partial set of BENCH_*.json files.
for bench in "${benches[@]}"; do
  bin="$build_dir/bench/bench_$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first (cmake --build $build_dir); no JSON written" >&2
    exit 1
  fi
done

for bench in "${benches[@]}"; do
  bin="$build_dir/bench/bench_$bench"
  "$bin" --json > "$repo_root/BENCH_$bench.json"
  echo "wrote BENCH_$bench.json ($(wc -l < "$repo_root/BENCH_$bench.json") results)"
done

# Only a configured detector build was just rebuilt; a binary left in an
# unconfigured dir may be stale, so it is not run.
lockgraph_bin="$lockgraph_build_dir/bench/bench_lockgraph"
if [[ -f "$lockgraph_build_dir/CMakeCache.txt" && -x "$lockgraph_bin" ]]; then
  "$lockgraph_bin" --json > "$repo_root/BENCH_lockgraph.json"
  echo "wrote BENCH_lockgraph.json ($(wc -l < "$repo_root/BENCH_lockgraph.json") results)"
else
  echo "skipped BENCH_lockgraph.json — $lockgraph_build_dir is not a configured build" >&2
  echo "(configure with: cmake -B build-lockgraph -S . -DCCDB_DEADLOCK_DETECT=ON)" >&2
fi
