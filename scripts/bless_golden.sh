#!/bin/sh
# Regenerate the golden KernelStats manifest, tests/golden/kernel_stats.txt
# (format and grid: tests/golden.hh). This is the only way the manifest
# should change; add a CHANGES.md line saying which timing changed and
# why.
#
# Usage: scripts/bless_golden.sh [BUILD_DIR]   (default: build)
#
# The manifest is written sorted (LC_ALL=C) to a temporary file next to
# it and renamed into place, so a concurrent `ctest -j` reads either the
# old manifest or the new one, never a partial file.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build"}
out="$root/tests/golden/kernel_stats.txt"

cmake --build "$build" --target golden_manifest
gen=$(find "$build" -type f -name golden_manifest -perm -u+x | head -n 1)
[ -n "$gen" ] || { echo "golden_manifest not built in $build" >&2; exit 1; }

mkdir -p "$(dirname "$out")"
tmp=$(mktemp "$out.XXXXXX")
trap 'rm -f "$tmp"' EXIT
"$gen" | LC_ALL=C sort > "$tmp"
[ -s "$tmp" ] || { echo "golden_manifest printed nothing" >&2; exit 1; }
mv "$tmp" "$out"
trap - EXIT
echo "wrote $(wc -l < "$out") lines to $out"
