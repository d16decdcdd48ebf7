#!/usr/bin/env bash
# Reach census: which collabqos library functions are linked into no
# program, so that only tests reach them.
#
# Usage: tools/reach_census.sh [build-dir]   (default: build/reach_census)
#
# Builds every library, bench and example of the repository, and
# perfbench's qosbench from a configure of perfbench/ that writes only
# into the build directory, all with
#   -O0 -fno-inline -ffunction-sections -fdata-sections
# and links with --gc-sections, so that a program keeps exactly the
# functions it can reach and inlining hides none of them. It then lists
# the strong text (T) symbols in collabqos:: of the libcollabqos_*.a
# archives and drops every symbol that `nm -C --defined-only` shows in
# any program. The first output line is the count; the unreached
# functions follow, one per line, sorted.
#
# Header-only code (templates, inline functions) has no strong symbol in
# an archive, so the census cannot see it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-"$root/build/reach_census"}
mkdir -p "$out"
out=$(cd "$out" && pwd)
jobs=${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc)}

cxxflags="-O0 -fno-inline -ffunction-sections -fdata-sections"
ldflags="-Wl,--gc-sections"
configure=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=$cxxflags"
           "-DCMAKE_EXE_LINKER_FLAGS=$ldflags")

# Every bench and example source builds one program named after it.
programs=()
for src in "$root"/bench/*.cpp "$root"/examples/*.cpp; do
  programs+=("$(basename "$src" .cpp)")
done

{
  cmake -S "$root" -B "$out/repo" "${configure[@]}" -DCOLLABQOS_WERROR=OFF
  cmake --build "$out/repo" -j "$jobs" --target "${programs[@]}"
  cmake -S "$root/perfbench" -B "$out/perfbench" "${configure[@]}"
  cmake --build "$out/perfbench" -j "$jobs" --target qosbench
} > "$out/build.log" 2>&1 || {
  echo "reach census: build failed, see $out/build.log" >&2
  exit 1
}

binaries=()
for name in "${programs[@]}"; do
  binaries+=("$(find "$out/repo" -type f -name "$name" -perm -u+x | head -n 1)")
done
binaries+=("$out/perfbench/qosbench")

# `nm` prints "<address> <type> <name>"; keep the name, which may hold
# spaces once demangled.
symbols() { sed -E -n "s/^[0-9a-f]+ $1 //p"; }

find "$out/repo/src" -name 'libcollabqos_*.a' -print0 |
  xargs -0 nm -C --defined-only 2>/dev/null | symbols T |
  grep '^collabqos::' | sort -u > "$out/library.txt"
for bin in "${binaries[@]}"; do
  nm -C --defined-only "$bin"
done | symbols '[A-Za-z]' | sort -u > "$out/programs.txt"
comm -23 "$out/library.txt" "$out/programs.txt" > "$out/unreached.txt"

echo "reach census: $(wc -l < "$out/unreached.txt") of" \
  "$(wc -l < "$out/library.txt") collabqos functions are linked into" \
  "no program (${#binaries[@]} programs)"
cat "$out/unreached.txt"
