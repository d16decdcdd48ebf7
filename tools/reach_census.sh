#!/usr/bin/env bash
# Reach census: which collabqos library functions are linked into no
# program, checked against the kept list in tools/reach_kept.txt.
#
# Usage: tools/reach_census.sh [build-dir]   (default: build/reach_census)
#
# Builds every library, every bench and example that is not a micro
# bench (bench/micro_*), and perfbench's qosbench from a configure of
# perfbench/ that writes only into the build directory, all with
#   -O0 -fno-inline -ffunction-sections -fdata-sections
# and links with --gc-sections, so that a program keeps exactly the
# functions it can reach and inlining hides none of them. It then lists
# the strong text (T) symbols in collabqos:: of the libcollabqos_*.a
# archives and drops every symbol that `nm -C --defined-only` shows in
# any program. A micro bench times a path; it is not a program that runs
# one, so a function only a micro bench reaches counts as unreached.
#
# The first output line is the count; the unreached functions follow, one
# per line, sorted. Then each unreached function's name (its demangled
# signature up to the parameter list, so overloads share one name) is
# checked against tools/reach_kept.txt, which gives every kept name a
# one-line reason. The census fails (exit 1, the names on stderr too) on
# an unreached name that is not listed, a listed name that no longer is
# unreached (now reached, or gone), and a listed name without a reason.
#
# Header-only code (templates, inline functions) has no strong symbol in
# an archive, so the census cannot see it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
kept_list="$root/tools/reach_kept.txt"
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
  name=$(basename "$src" .cpp)
  [[ $name == micro_* ]] || programs+=("$name")
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

# A signature's name ends where its parameter list begins: at the first
# "(" that is not part of `operator()`. Parameters are left out because
# gcc 12 and 13 demangle them differently; ABI tags are left out too.
sed -E -e 's/operator\(\)/operator@@/' -e 's/\(.*$//' -e 's/operator@@/operator()/' \
  -e 's/\[abi:[^]]*\]//g' "$out/unreached.txt" |
  sort -u > "$out/unreached_names.txt"
# Kept-list lines are "<name> # <reason>"; blank lines and lines starting
# with "#" are comments.
grep -v -E '^[[:space:]]*(#|$)' "$kept_list" > "$out/kept_lines.txt" || true
sed -E 's/[[:space:]]+#.*$//; s/[[:space:]]+$//' "$out/kept_lines.txt" |
  sort -u > "$out/kept_names.txt"

{
  comm -23 "$out/unreached_names.txt" "$out/kept_names.txt" |
    sed 's/^/unlisted (reach it from a program, delete it, or list it): /'
  comm -13 "$out/unreached_names.txt" "$out/kept_names.txt" |
    sed 's/^/stale (reached now, or gone; take it off the list): /'
  grep -v -E '[[:space:]]#[[:space:]]*[^[:space:]]' "$out/kept_lines.txt" |
    sed 's/^/no reason given: /' || true
} > "$out/verdict.txt"

echo
if [[ -s "$out/verdict.txt" ]]; then
  echo "reach census: FAILED against tools/reach_kept.txt"
  cat "$out/verdict.txt"
  {
    echo "reach census: FAILED against tools/reach_kept.txt"
    cat "$out/verdict.txt"
  } >&2
  exit 1
fi
echo "reach census: every unreached name is on tools/reach_kept.txt" \
  "($(wc -l < "$out/kept_names.txt") names)"
