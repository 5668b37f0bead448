#!/usr/bin/env bash
# Bench smoke check: run one real bench end to end on a small fixture
# with --metrics-out and validate the emitted observability artifact.
#
#   tools/bench_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build and must already contain the built
# bench/table2_augmentation and tools/patchdb binaries. The check fails
# when the bench exits nonzero, when the JSON does not parse/round-trip
# (patchdb metrics --validate), or when the report is missing the
# pipeline signals the bench is supposed to produce (per-round hit-ratio
# gauges, augmentation round spans, the thread pool's shape).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

bench_bin="${build_dir}/bench/table2_augmentation"
cli_bin="${build_dir}/tools/patchdb"
for bin in "${bench_bin}" "${cli_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "bench_smoke.sh: ${bin} missing; build the repo first" >&2
    exit 2
  fi
done

out_json="$(mktemp --suffix=.patchdb-smoke.json)"
trap 'rm -f "${out_json}"' EXIT

# Scale 0.1 keeps the five-round protocol intact (seed 80, pools 2K/4K)
# while finishing in seconds.
"${bench_bin}" 0.1 --metrics-out "${out_json}" > /dev/null

"${cli_bin}" metrics --validate "${out_json}"

require() {
  if ! grep -q -- "$1" "${out_json}"; then
    echo "bench_smoke.sh: report is missing $1" >&2
    exit 1
  fi
}
for round in 1 2 3 4 5; do
  require "\"augment.round.${round}.hit_ratio\""
done
require '"name": "augment.round"'
require '"pool.worker_busy_ms"'
require '"pool.threads"'
require '"bench.items"'

echo "bench_smoke.sh: OK (${bench_bin##*/} --metrics-out artifact is valid)"
