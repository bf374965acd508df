#!/usr/bin/env bash
# Records one benchmark trajectory point: runs the criterion suite with
# machine-readable output plus the hotpath probe, and writes everything to
# BENCH_<date>.json at the repo root (one JSON object per line).
#
# Usage: scripts/bench_snapshot.sh [outfile]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_$(date +%Y-%m-%d).json}"
# Never clobber an earlier point of the trajectory: suffix same-day reruns.
if [ -z "${1:-}" ] && [ -e "$out" ]; then
  n=2
  while [ -e "${out%.json}.$n.json" ]; do n=$((n + 1)); done
  out="${out%.json}.$n.json"
fi
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -le 1 ]; then
  echo "WARNING: host_cores == 1 — parallel speedups (pool widths," >&2
  echo "refresh-vs-retrain ratios) will not show on this host; the" >&2
  echo "snapshot is still valid but compare it only against other 1-core" >&2
  echo "points of the trajectory." >&2
fi

echo "==> criterion suite (this takes a few minutes)" >&2
CRITERION_JSON="$tmp" cargo bench -p lkp-bench >&2

echo "==> hotpath probe" >&2
cargo run --release -p lkp-bench --bin hotpath_probe >> "$tmp"

echo "==> serving probe (direct + dual-path grid + cache-mode replay + frontend rows)" >&2
cargo run --release -p lkp-bench --bin serve_probe >> "$tmp"

echo "==> spectral-cache probe" >&2
cargo run --release -p lkp-bench --bin spectral_probe >> "$tmp"

echo "==> sampling-policy probe" >&2
cargo run --release -p lkp-bench --bin sampler_probe >> "$tmp"

echo "==> training-refresh probe (delta-fit vs full retrain)" >&2
cargo run --release -p lkp-bench --bin refresh_probe >> "$tmp"

# Source size, so net lines added or removed show up in the trajectory.
rust_lines="$(find crates src examples tests -name '*.rs' -type f -print0 2>/dev/null \
  | xargs -0 cat | wc -l | tr -d ' ')"

{
  printf '{"snapshot_meta":{"date":"%s","host_cores":%s,"rustc":"%s","rust_lines":%s}}\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$cores" \
    "$(rustc --version | tr -d '"')" \
    "$rust_lines"
  # Stamp host_cores into every row: criterion rows (and any probe that
  # predates the field) carry no core count of their own, which makes
  # cross-host trajectory comparison silently misleading.
  awk -v cores="$cores" '{
    if ($0 !~ /"host_cores":/) sub(/}[[:space:]]*$/, ",\"host_cores\":" cores "}")
    print
  }' "$tmp"
} > "$out"

echo "wrote $out ($(wc -l < "$out") rows)" >&2
