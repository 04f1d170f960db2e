#!/usr/bin/env bash
# Lists the functions defined in src/ that neither served binary reaches.
#
#   tools/unreached.sh [build-dir]     (default: build-unreached/ at the root)
#
# Builds ccdb_serve and cqa_shell at -O0 with -ffunction-sections and
# -fdata-sections, so each function and each datum sits in a section of
# its own (a switch's jump table in one shared .rodata would keep its
# function, and all that function calls, linked). Then relinks each
# binary with every libccdb_* archive inside --whole-archive, so the
# linker sees all of src/ and not only the members the binary pulls in,
# plus --gc-sections --print-gc-sections. A function that both links
# discard is one neither binary can call. Prints, per source file, those
# of its functions that nm lists as defined text (type T or t), then a
# total.
#
# A report, not a gate: it exits 0 whatever it finds. The first run builds
# the libraries and both binaries (a few minutes on 4 cores).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-unreached}"
binaries=(ccdb_serve cqa_shell)

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCCDB_BUILD_TESTS=OFF -DCCDB_BUILD_BENCHMARKS=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target "${binaries[@]}" >/dev/null

cd "$build_dir"
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' CMakeCache.txt)"
mapfile -t archives < <(find src -name 'libccdb_*.a' | sort)
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# "archive(member)<TAB>section" per section a link discards, e.g.
# "src/storage/libccdb_storage.a(durable.cc.o)<TAB>.text._ZN4ccdb...".
for bin in "${binaries[@]}"; do
  "$cxx" examples/CMakeFiles/"$bin".dir/*.o -o "$work/$bin" -pthread \
    -Wl,--gc-sections -Wl,--print-gc-sections \
    -Wl,--whole-archive "${archives[@]}" -Wl,--no-whole-archive 2>&1 |
    sed -n "s/.*removing unused section '\([^']*\)' in file '\([^']*\)'.*/\2\t\1/p" |
    sort -u >"$work/$bin.gc"
done
comm -12 "$work/${binaries[0]}.gc" "$work/${binaries[1]}.gc" >"$work/both.gc"

# "archive(member)<TAB>source<TAB>type<TAB>symbol" per function src/
# defines; the source is the archive's directory plus the member's name
# without ".o" (src/storage/durable.cc). Only functions of namespace
# ccdb (mangled names holding "4ccdb") count: the objects also carry
# static helpers of system headers, such as __gthread_active_p.
for archive in "${archives[@]}"; do
  nm -A --defined-only "$archive" |
    awk -v dir="$(dirname "$archive")" '
      ($(NF-1) == "T" || $(NF-1) == "t") && index($NF, "4ccdb") {
        split($1, part, ":"); source = part[2]; sub(/\.o$/, "", source)
        print part[1] "(" part[2] ")\t" dir "/" source "\t" $(NF-1) "\t" $NF
      }'
done >"$work/defined"

# Defined text whose section both links discarded.
awk -F'\t' 'NR == FNR { gone[$1 "\t" $2] = 1; next }
  (($1 "\t.text." $4) in gone) { print $2 "\t" $3 "\t" $4 }' \
  "$work/both.gc" "$work/defined" | sort -u >"$work/unreached"

cut -f1 "$work/unreached" | uniq -c | while read -r count source; do
  echo "$source: $count"
  awk -F'\t' -v source="$source" '$1 == source { print $3 }' \
    "$work/unreached" | c++filt | sed 's/^/  /'
done
total="$(wc -l <"$work/unreached")"
global="$(awk -F'\t' '$2 == "T"' "$work/unreached" | wc -l)"
echo "total: $total functions unreached from ${binaries[*]}" \
  "($global T, $((total - global)) t)"
