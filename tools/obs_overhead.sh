#!/usr/bin/env bash
# Obs-overhead check: how much CPU time does the observability layer
# cost an instrumented kernel? Runs the same micro_core benchmark with
# the ObsSession installed (spans and counters) and inert under
# PATCHDB_OBS_DISABLED, in interleaved pairs: each pair runs one
# repetition of each mode, the two orders alternating from pair to pair,
# so a slow spell of the host lands on both modes instead of one. The
# overhead is the median over the pairs of on/off, read from the
# benchmark's own per-iteration CPU time of the calling thread, which
# records the spans and counters (its real time swings more from run to
# run than the effect; process wall would lie too: google-benchmark
# adapts iteration counts to the kernel speed, so a faster kernel runs
# MORE iterations). Records it as a patchdb.obs.v2 report.
#
#   tools/obs_overhead.sh [BUILD_DIR] [OUT_JSON] [MAX_PCT]
#
# BUILD_DIR defaults to ./build, OUT_JSON to bench/BENCH_obs_overhead.json,
# MAX_PCT to 2.0 (the acceptance bound: obs must cost < 2% CPU). Exits 1
# when the measured overhead exceeds MAX_PCT. OBS_OVERHEAD_REPS (the
# number of pairs, default 5) and OBS_OVERHEAD_FILTER override the pair
# count and benchmark subset.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/bench/BENCH_obs_overhead.json}"
max_pct="${3:-2.0}"
reps="${OBS_OVERHEAD_REPS:-5}"
# The streaming nearest-link engine on a small input: its spans and
# counters are recorded per call (and a progress tick per pass-1
# chunk), so a 100 x 2,000 link gives them the largest share of time.
filter="${OBS_OVERHEAD_FILTER:-BM_NearestLinkStreaming/100/2000}"

if ((reps < 1)); then
  echo "obs_overhead.sh: OBS_OVERHEAD_REPS must be at least 1" >&2
  exit 2
fi

bench="${build_dir}/bench/micro_core"
if [[ ! -x "${bench}" ]]; then
  echo "obs_overhead.sh: ${bench} missing; build the repo first" >&2
  exit 2
fi

bench_args=(
  "--benchmark_filter=${filter}"
  "--benchmark_repetitions=1"
  "--benchmark_format=csv"
)

run_ms() {  # $1 = "on" | "off"
  local csv
  if [[ "$1" == off ]]; then
    csv=$(PATCHDB_OBS_DISABLED=1 "${bench}" "${bench_args[@]}" 2> /dev/null)
  else
    csv=$("${bench}" "${bench_args[@]}" 2> /dev/null)
  fi
  # CSV row: name,iterations,real_time,cpu_time,time_unit,... — the
  # first benchmark row's cpu_time, in the benchmark's own time unit
  # (identical across both modes, so the ratios below are unitless).
  echo "${csv}" | awk -F, 'NR > 1 && $1 ~ /^"?BM_/ { printf "%.4f", $4; exit }'
}

median() {  # of the arguments
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
    if (NR % 2) printf "%.6f", v[(NR + 1) / 2];
    else printf "%.6f", (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

enabled=()
disabled=()
ratios=()
for ((pair = 0; pair < reps; ++pair)); do
  if ((pair % 2 == 0)); then
    on=$(run_ms on)
    off=$(run_ms off)
  else
    off=$(run_ms off)
    on=$(run_ms on)
  fi
  if [[ -z "${on}" || -z "${off}" ]]; then
    echo "obs_overhead.sh: no benchmark row for filter ${filter}" >&2
    exit 2
  fi
  echo "obs_overhead.sh: pair $((pair + 1)): on ${on}, off ${off}"
  enabled+=("${on}")
  disabled+=("${off}")
  ratios+=("$(awk -v e="${on}" -v d="${off}" 'BEGIN { printf "%.6f", (d > 0 ? e / d : 1) }')")
done
enabled_ms=$(awk -v m="$(median "${enabled[@]}")" 'BEGIN { printf "%.4f", m }')
disabled_ms=$(awk -v m="$(median "${disabled[@]}")" 'BEGIN { printf "%.4f", m }')
overhead_pct=$(awk -v r="$(median "${ratios[@]}")" 'BEGIN { printf "%.3f", (r - 1) * 100.0 }')

echo "obs_overhead.sh: enabled ${enabled_ms} CPU ms/iter, disabled ${disabled_ms} CPU ms/iter" \
  "(medians), overhead ${overhead_pct}% (median on/off of ${reps} interleaved pairs," \
  "filter ${filter})"

total_ms=$(awk -v e="${enabled_ms}" -v d="${disabled_ms}" \
  'BEGIN { printf "%.1f", e + d }')
cat > "${out_json}" <<EOF
{
  "counters": {
    "obs_overhead.reps": ${reps}
  },
  "gauges": {
    "obs_overhead.disabled_ms": ${disabled_ms},
    "obs_overhead.enabled_ms": ${enabled_ms},
    "obs_overhead.overhead_pct": ${overhead_pct}
  },
  "histograms": {},
  "report": "obs_overhead ${filter}",
  "schema": "patchdb.obs.v2",
  "spans": [],
  "spans_dropped": 0,
  "wall_ms": ${total_ms}
}
EOF
echo "obs_overhead.sh: recorded to ${out_json}"

if awk -v p="${overhead_pct}" -v cap="${max_pct}" 'BEGIN { exit !(p > cap) }'; then
  echo "obs_overhead.sh: FAIL — overhead ${overhead_pct}% exceeds ${max_pct}%" >&2
  exit 1
fi
echo "obs_overhead.sh: OK (overhead ${overhead_pct}% <= ${max_pct}%)"
