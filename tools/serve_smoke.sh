#!/usr/bin/env bash
# Serve smoke check: end-to-end exercise of the daemon path.
#
#   tools/serve_smoke.sh [BUILD_DIR] [ARTIFACT_DIR]
#
# Builds a small example dataset with `patchdb build`, starts patchdbd
# on an ephemeral port, pings it with patchdb_client, drives a
# sustained load through bench/micro_serve, gates the client metrics
# with tools/bench_diff on machine-independent rules (exact request
# counts and zero errors — latency varies with hardware and is
# recorded, not gated), then SIGTERMs the daemon and requires a
# graceful exit 0. The daemon's own obs artifacts (metrics JSON +
# Chrome trace) are validated and, when ARTIFACT_DIR is given, copied
# there for upload.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
artifact_dir="${2:-}"

cli_bin="${build_dir}/tools/patchdb"
daemon_bin="${build_dir}/tools/patchdbd"
client_bin="${build_dir}/tools/patchdb_client"
load_bin="${build_dir}/bench/micro_serve"
diff_bin="${build_dir}/tools/bench_diff"
for bin in "${cli_bin}" "${daemon_bin}" "${client_bin}" "${load_bin}" \
           "${diff_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "serve_smoke.sh: ${bin} missing; build the repo first" >&2
    exit 2
  fi
done

workdir="$(mktemp -d --suffix=.patchdb-serve-smoke)"
daemon_pid=""
cleanup() {
  if [[ -n "${daemon_pid}" ]] && kill -0 "${daemon_pid}" 2>/dev/null; then
    kill -KILL "${daemon_pid}" 2>/dev/null || true
  fi
  rm -rf "${workdir}"
}
trap cleanup EXIT

echo "serve_smoke.sh: building example dataset"
"${cli_bin}" build --out "${workdir}/dataset" \
  --nvd 30 --wild 300 --rounds 1 --seed 907 > /dev/null

echo "serve_smoke.sh: starting patchdbd"
"${daemon_bin}" --data "${workdir}/dataset" \
  --port-file "${workdir}/port" \
  --metrics-out "${workdir}/daemon_metrics.json" \
  --trace-out "${workdir}/daemon_trace.json" &
daemon_pid=$!

for _ in $(seq 1 100); do
  [[ -s "${workdir}/port" ]] && break
  if ! kill -0 "${daemon_pid}" 2>/dev/null; then
    echo "serve_smoke.sh: patchdbd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
port="$(cat "${workdir}/port")"
if [[ -z "${port}" ]]; then
  echo "serve_smoke.sh: no port published by patchdbd" >&2
  exit 1
fi

"${client_bin}" ping --port "${port}"
first_id="$("${client_bin}" ids --limit 1 --port "${port}")"
"${client_bin}" nearest "${first_id}" --k 3 --port "${port}" > /dev/null
"${client_bin}" stats --port "${port}" > /dev/null

# Same shape as the committed baseline: 8 conns x 20 cycles x 5 ops.
conns=8
reps=20
echo "serve_smoke.sh: driving load (${conns} conns x ${reps} cycles)"
"${load_bin}" --host 127.0.0.1 --port "${port}" \
  --conns "${conns}" --reps "${reps}" \
  --metrics-out "${workdir}/client_metrics.json"

expected=$((conns * reps * 5))
"${diff_bin}" "${repo_root}/bench/BENCH_serve.json" \
  "${workdir}/client_metrics.json" \
  --require serve.client.requests="${expected}" \
  --require serve.client.errors=0 \
  --require serve.client.protocol_errors=0 \
  --require serve.client.request_ms@count="${expected}" \
  --require serve.client.request_ms@p50 \
  --require serve.bench.qps \
  --require serve.bench.p99_ms

echo "serve_smoke.sh: draining patchdbd with SIGTERM"
kill -TERM "${daemon_pid}"
daemon_exit=0
wait "${daemon_pid}" || daemon_exit=$?
daemon_pid=""
if [[ "${daemon_exit}" -ne 0 ]]; then
  echo "serve_smoke.sh: patchdbd exited ${daemon_exit}, want 0" >&2
  exit 1
fi

"${cli_bin}" metrics --validate "${workdir}/daemon_metrics.json"
# "serve.lookup" is the lookup requests' span name, spelled exactly.
for signal in '"serve.requests"' '"serve.request_ms"' \
              '"serve.active_connections"' '"serve.dataset.patches"' \
              '"serve.lookup"'; do
  if ! grep -q -- "${signal}" "${workdir}/daemon_metrics.json"; then
    echo "serve_smoke.sh: daemon report is missing ${signal}" >&2
    exit 1
  fi
done

if [[ -n "${artifact_dir}" ]]; then
  mkdir -p "${artifact_dir}"
  cp "${workdir}/daemon_metrics.json" "${workdir}/daemon_trace.json" \
     "${workdir}/client_metrics.json" "${artifact_dir}/"
fi

echo "serve_smoke.sh: OK (daemon served, gated, and drained cleanly)"
