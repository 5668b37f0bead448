#!/usr/bin/env bash
# Check that `patchdb metrics` profiles the world `patchdb build` makes:
# run both commands with the same pipeline flags and compare the
# component-count line each prints ("  nvd: N  wild: N  ...").
#
#   tools/cli_same_world.sh PATCHDB OUT_DIR [PIPELINE FLAGS...]
#
# OUT_DIR receives the build's export. Fails when either command fails,
# prints no counts, or the counts differ.
set -uo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: cli_same_world.sh PATCHDB OUT_DIR [PIPELINE FLAGS...]" >&2
  exit 2
fi
patchdb="$1"
out="$2"
shift 2

counts() {
  grep -E '^  nvd: [0-9]+  wild: [0-9]+  nonsecurity: [0-9]+  synthetic: [0-9]+$' <<< "$1"
}

if ! build_output="$("${patchdb}" build --out "${out}" "$@" 2>&1)"; then
  echo "cli_same_world.sh: patchdb build failed" >&2
  echo "${build_output}" >&2
  exit 1
fi
if ! metrics_output="$("${patchdb}" metrics "$@" 2>&1)"; then
  echo "cli_same_world.sh: patchdb metrics failed" >&2
  echo "${metrics_output}" >&2
  exit 1
fi
build_counts="$(counts "${build_output}")"
metrics_counts="$(counts "${metrics_output}")"
if [[ -z "${build_counts}" || "${build_counts}" != "${metrics_counts}" ]]; then
  echo "cli_same_world.sh: component counts differ" >&2
  echo "  build:  ${build_counts:-<none>}" >&2
  echo "  metrics: ${metrics_counts:-<none>}" >&2
  exit 1
fi
echo "same world:${build_counts}"
