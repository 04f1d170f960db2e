#!/usr/bin/env bash
# Builds and runs the test suite under each sanitizer in sequence:
# AddressSanitizer, ThreadSanitizer, UndefinedBehaviorSanitizer.
#
# Each configuration gets its own build directory (build-asan/,
# build-tsan/, build-ubsan/) so incremental reruns are cheap. On a
# single-core container each cold build takes several minutes; pass a
# subset to run fewer, e.g.:
#
#   tools/run_sanitizers.sh                 # all three
#   tools/run_sanitizers.sh undefined       # UBSan only
#   tools/run_sanitizers.sh thread address  # TSan then ASan
#
# CCDB_SANITIZE is the repo's CMake knob (see CMakeLists.txt); this
# script is just the loop around it. Under `undefined` the knob makes
# every report fatal, so a report fails its test and this run. See
# DESIGN.md "Static analysis".
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("${@:-address thread undefined}")
# Re-split in case the default string form was used.
read -ra sanitizers <<< "${sanitizers[*]}"

jobs="$(nproc 2> /dev/null || echo 1)"
failed=()
skipped=()

for san in "${sanitizers[@]}"; do
  case "$san" in
    address | thread | undefined) ;;
    *)
      echo "run_sanitizers: unknown sanitizer '$san'" \
           "(want address|thread|undefined)" >&2
      exit 2
      ;;
  esac
  case "$san" in
    address) build_dir="$repo_root/build-asan" ;;
    thread) build_dir="$repo_root/build-tsan" ;;
    undefined) build_dir="$repo_root/build-ubsan" ;;
  esac
  echo "=== $san sanitizer: $build_dir ==="
  cmake -S "$repo_root" -B "$build_dir" -DCCDB_SANITIZE="$san" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$build_dir" -j "$jobs"
  ctest_log="$build_dir/ctest-sanitizer.log"
  if (cd "$build_dir" && ctest --output-on-failure -j "$jobs") \
      | tee "$ctest_log"; then
    echo "=== $san: PASS ==="
  else
    echo "=== $san: FAIL ===" >&2
    failed+=("$san")
  fi
  # A skipped test is a gate that did not run — surface it, don't let a
  # green summary imply it did (e.g. check_thread_safety without clang).
  skips="$(grep -E '\*\*\*Skipped' "$ctest_log" | sed -E 's/^ *[0-9/]+ +Test +#[0-9]+: +([^ ]+).*/\1/' || true)"
  if [[ -n "$skips" ]]; then
    echo "=== $san: SKIPPED gates (DID NOT RUN): " $skips "===" >&2
    skipped+=("$san:" $skips)
  fi
done

if ((${#failed[@]})); then
  echo "run_sanitizers: failed: ${failed[*]}" >&2
  exit 1
fi
if ((${#skipped[@]})); then
  echo "run_sanitizers: all ran clean, but some gates SKIPPED:" \
       "${skipped[*]}" >&2
  echo "run_sanitizers: see the banners above for what did not run." >&2
fi
echo "run_sanitizers: all clean (${sanitizers[*]})"
