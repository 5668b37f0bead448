#!/usr/bin/env python3
"""End-to-end benchmark for the PatchDB builder and the patchdbd server.

    python3 perfbench/run.py --workload build-deep --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all                # every workload, summary table
    python3 perfbench/run.py --workload all --trace 1      # the traced per-layer run

Run it from the root of a checkout. The first run builds the program and
the benchmark driver from source (Release) into .bench_build/. Exports,
fixtures and the daemon's data live under .bench_work/tmpfs, a private
tmpfs mounted for the run's lifetime when the kernel allows it; the
report flags a run whose export directory is not RAM-backed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
A failed output check prints correct=false and exits 1. See
perfbench/README.md for the workloads, the metrics and why.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
TMPFS = os.path.join(WORK, "tmpfs")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
PATCHDBD = os.path.join(BUILD_DIR, "patchdb", "tools", "patchdbd")

WORKLOADS = ["build-deep", "build-wide", "serve-point", "serve-mix"]
# Runnable and checked, but not in BENCHMARK.json: their timings follow
# the host's steal spells, by more than any bound allows (README.md).
UNGATED = ["serve-point", "serve-mix"]
POOL_THREADS = 2     # builds: `patchdb build --threads 2`
CLIENTS = 2          # serves: closed-loop serve::Client connections
DAEMON_SPAWNS = 5    # serve set-up is the median of this many daemon starts
MIN_SETUPS = 3       # build set-up is the median of at least this many
CHILD_TIMEOUT_S = 170

# Metric names and units: BENCHMARK.json at the checkout root. The
# end-to-end metrics are reported by every workload; the per-layer ones
# by the traced run.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

REFERENCES = os.path.join(HERE, "references.json")


def log(message):
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build_program():
    """Configure and build perfbench_driver and patchdbd from the checkout."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no program sources next to perfbench/ "
            "(expected CMakeLists.txt and src/ in %s)" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", "-DPATCHDB_WERROR=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                log("perfbench: build failed: %s (see %s)" % (" ".join(step), build_log))
                sys.exit(1)


# ---------------------------------------------------------------- tmpfs --

def private_tmpfs(path):
    """Mount a tmpfs on `path` inside a private mount namespace.

    The mount is visible to this process and its children only and
    disappears when the last of them exits. When the kernel refuses (no
    privilege), `path` stays an ordinary directory; filesystem_of() tells.
    """
    clone_newns, ms_rec, ms_private = 0x00020000, 16384, 1 << 18
    libc = ctypes.CDLL(None, use_errno=True)
    if (libc.unshare(clone_newns) == 0
            and libc.mount(b"none", b"/", None, ms_rec | ms_private, None) == 0):
        libc.mount(b"tmpfs", path.encode(), b"tmpfs", 0, b"size=4g,mode=0700")


def filesystem_of(path):
    """fstype of the mount holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            left, right = line.split(" - ", 1)
            mount_point = left.split()[4]
            if (path == mount_point or path.startswith(mount_point.rstrip("/") + "/")) \
                    and len(mount_point) >= len(best):
                best, fstype = mount_point, right.split()[0]
    return fstype


# ----------------------------------------------------------- provenance --

def cpu_times():
    """Host-wide jiffies from /proc/stat: user nice system idle iowait irq softirq steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of all vCPU time the host stole between two cpu_times()."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / max(1, sum(delta))


def provenance():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
            return out.stdout.splitlines()[0].strip() if out.returncode == 0 else None
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return None

    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    build_type = cache.get("CMAKE_BUILD_TYPE", "?")
    return {
        "commit": (first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
                   or "unknown (not a git checkout)"),
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": build_type,
        "flags": " ".join(x for x in [cache.get("CMAKE_CXX_FLAGS", ""),
                                      cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
                                      "-ffp-contract=off"] if x),
        "march": cache.get("PATCHDB_MARCH") or "compiler default",
        "pool_threads": POOL_THREADS,
        "client_connections": CLIENTS,
    }


# --------------------------------------------------------------- driver --

def driver(args, timeout=CHILD_TIMEOUT_S):
    """Run one driver subcommand; returns (parsed last line, other stdout)."""
    proc = subprocess.run([DRIVER] + [str(a) for a in args], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_driver %s exited %d: %s"
                           % (args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def load_references(path):
    with open(path) as f:
        return json.load(f)


class Run:
    """Counts and checks shared by the workloads of one invocation."""

    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.details = {}

    def absorb(self, result, what):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        self.errors += ["%s: %s" % (what, e) for e in result.get("errors", [])]

    def check_digest(self, shape, seed, digest, what):
        """Compare an export digest with the reference for this seed, if any."""
        expected = self.references.get("build-" + shape, {}).get(str(seed))
        self.attempted += 1
        if expected is not None and expected != digest:
            self.failed += 1
            self.errors.append("%s: export digest %s != reference %s for seed %d"
                               % (what, digest, expected, seed))


# -------------------------------------------------------------- daemons --

class Daemon:
    """A patchdbd process serving `data`; start() times spawn -> port file."""

    def __init__(self, data):
        self.data = data
        self.proc = None
        self.port = None
        self.setup_s = None

    def start(self):
        port_file = os.path.join(WORK, "patchdbd.port")
        if os.path.exists(port_file):
            os.remove(port_file)
        stderr = open(os.path.join(WORK, "patchdbd.log"), "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([PATCHDBD, "--data", self.data, "--port-file", port_file],
                                     stdout=subprocess.DEVNULL, stderr=stderr)
        stderr.close()
        while True:
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.setup_s = time.perf_counter() - t0
                    self.port = int(text)
                    return self
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError("patchdbd exited %d before listening (see %s)"
                                   % (self.proc.returncode, os.path.join(WORK, "patchdbd.log")))
            if time.perf_counter() - t0 > 60:
                raise RuntimeError("patchdbd did not listen within 60 s")
            time.sleep(0.0005)

    def status(self, key):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split()[1]
        return None

    def stop(self):
        """SIGTERM and wait; a daemon that does not drain cleanly is an error."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


# ------------------------------------------------------------ workloads --

def build_workload(run, shape, seed, seconds, corrupt=False):
    out = os.path.join(TMPFS, "build-" + shape)
    args = ["build", "--shape", shape, "--seed", seed, "--seconds", seconds,
            "--min-setups", MIN_SETUPS, "--threads", POOL_THREADS, "--out", out]
    if corrupt:
        args.append("--corrupt-export")
    result, _ = driver(args)
    run.absorb(result, "build-" + shape)
    run.check_digest(shape, seed, result["digest"], "build-" + shape)
    shutil.rmtree(out, ignore_errors=True)
    setups, builds, cpus = result["setup_s"], result["build_s"], result["cpu_s"]
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": median(builds) * 1e3,
        "op_cpu_ms": median(cpus) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    summary = [
        ("setup_s", median(setups), "s", len(setups)),
        ("build_s", median(builds), "s", len(builds)),
        ("cpu_s", median(cpus), "s", len(cpus)),
        ("peak_rss_mb", result["peak_rss_mb"], "MiB", 1),
        ("hit_ratio", result["hit_ratio"], "fraction",
         "%d/%d" % (result["verified"], result["candidates"])),
    ]
    run.details["build-" + shape] = result
    return metrics, summary


def serve_fixture(run, seed):
    """The build-wide export, built by the code under test; never cached."""
    fixture = os.path.join(TMPFS, "fixture")
    result, _ = driver(["build", "--shape", "wide", "--seed", seed, "--seconds", 0,
                        "--min-setups", 1, "--threads", POOL_THREADS, "--out", fixture])
    run.absorb(result, "serve fixture")
    run.check_digest("wide", seed, result["digest"], "serve fixture")
    return fixture


def serve_workload(run, mix, seed, seconds, tamper=False):
    fixture = serve_fixture(run, seed)
    daemons = []
    try:
        for _ in range(DAEMON_SPAWNS):
            if daemons:
                code = daemons[-1].stop()
                if code != 0:
                    raise RuntimeError("patchdbd exited %d on SIGTERM" % code)
            daemons.append(Daemon(fixture).start())
        daemon = daemons[-1]
        args = ["load", "--port", daemon.port, "--fixture", fixture, "--mix", mix,
                "--seed", seed, "--seconds", seconds, "--clients", CLIENTS,
                "--daemon-pid", daemon.proc.pid]
        if tamper:
            args.append("--tamper-response")
        result, _ = driver(args)
        rss_mb = int(daemon.status("VmHWM")) / 1024.0
        threads = int(daemon.status("Threads"))
        code = daemon.stop()
        run.attempted += 1
        if code != 0:
            run.failed += 1
            run.errors.append("patchdbd exited %d on SIGTERM" % code)
    finally:
        for d in daemons:
            d.stop()
    run.absorb(result, "serve-" + mix)
    run.details["serve-" + mix] = dict(result, daemon_threads=threads)
    setups = [d.setup_s for d in daemons]
    cpu_ms = median(result["window_cpu_ms_per_op"])
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": result["p50_ms"],
        "op_cpu_ms": cpu_ms,
        "peak_rss_mb": rss_mb,
    }
    ops = result["ops"]
    per_request = cpu_ms * 1e3 / (1 if mix == "point" else 5)
    summary = [("setup_s", median(setups), "s", len(setups)),
               ("peak_rss_mb", rss_mb, "MiB", 1)]
    requests = ops if mix == "point" else sum(o["count"] for o in result["per_op"].values())
    summary.append(("rps", requests / result["measured_s"], "1/s", requests))
    if mix == "point":
        summary.append(("p50_ms", result["p50_ms"], "ms", ops))
        if result["beyond_p90"] >= 10:  # a percentile needs ten samples beyond it
            summary.append(("p90_ms", result["p90_ms"], "ms", ops))
    else:
        for op in ("nearest", "analyze"):
            o = result["per_op"][op]
            summary.append((op + "_p50_ms", o["p50_ms"], "ms", o["count"]))
        summary.append(("cycle_p50_ms", result["p50_ms"], "ms", ops))
    summary.append(("cpu_us_per_req", per_request, "us", requests))
    return metrics, summary


def run_workload(run, workload, seed, seconds, test_hooks):
    if workload.startswith("build-"):
        return build_workload(run, workload[len("build-"):], seed, seconds,
                              corrupt="corrupt-export" in test_hooks)
    return serve_workload(run, workload[len("serve-"):], seed, seconds,
                          tamper="tamper-response" in test_hooks)


def traced_suite(run, seed, seconds):
    """Each workload once, under benchmark spans; returns per-layer metrics."""
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    layer = {}
    printed = []

    def traced_build(shape, trace_id):
        out = os.path.join(TMPFS, "traced-" + shape)
        result, text = driver(["traced-build", "--shape", shape, "--seed", seed,
                               "--threads", POOL_THREADS, "--out", out, "--trace-id", trace_id,
                               "--trace-out",
                               os.path.join(traces, "seed%d-build-%s.json" % (seed, shape))])
        printed.append("build-%s spans (self time):\n%s" % (shape, text))
        run.absorb(result, "traced build-" + shape)
        run.check_digest(shape, seed, result["digest"], "traced build-" + shape)
        return out, result

    deep_out, deep = traced_build("deep", 1)
    shutil.rmtree(deep_out, ignore_errors=True)
    fixture, wide = traced_build("wide", 2)

    layer["corpus.world_s"] = deep["world_s"]
    layer["feature.extract_s"] = wide["feature_s"]
    layer["feature.rows"] = wide["feature_rows"]
    for i, seconds_in_round in enumerate(deep["rounds_s"], 1):
        layer["core.round%d_s" % i] = seconds_in_round
    counters = deep["counters"]
    if "distance.cells" in counters:
        layer["core.link.cells"] = counters["distance.cells"]
    if "nearest_link.rescans" in counters and counters.get("nearest_link.links"):
        layer["core.link.rescans_per_link"] = (counters["nearest_link.rescans"]
                                               / counters["nearest_link.links"])
    layer["core.hit_ratio"] = deep["hit_ratio"]
    layer["synth.s"] = wide["synth_s"]
    layer["synth.patches"] = wide["synth_patches"]
    layer["store.export_s"] = wide["export_s"]
    layer["store.export_mib"] = wide["export_mib"]
    layer["util.pool.busy_share"] = deep["pool_busy_share"]
    untraced = deep["untraced_build_s"] + wide["untraced_build_s"]
    traced = deep["build_s"] + wide["build_s"]
    layer["obs.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
    layer["obs.attributed_pct"] = min(deep["attributed_pct"], wide["attributed_pct"])

    replay, text = driver(["replay", "--fixture", fixture, "--seed", seed, "--trace-id", 3,
                           "--trace-out", os.path.join(traces, "seed%d-serve-replay.json" % seed)])
    printed.append("serve replay spans (self time):\n%s" % text)
    run.absorb(replay, "traced serve replay")
    layer["store.load_s"] = replay["load_s"]
    layer["serve.precompute_s"] = replay["precompute_s"]
    for op, us in replay["handle_us"].items():
        layer["serve.handle_us." + op] = us
    layer["serve.codec_us"] = replay["codec_us"]
    layer["analysis.analyze_us"] = replay["analyze_us"]
    if "knn_rows_per_query" in replay:
        layer["core.knn.rows_per_query"] = replay["knn_rows_per_query"]

    daemon = Daemon(fixture).start()
    try:
        load, _ = driver(["load", "--port", daemon.port, "--fixture", fixture, "--mix", "point",
                          "--seed", seed, "--seconds", seconds, "--clients", CLIENTS,
                          "--daemon-pid", daemon.proc.pid,
                          "--trace-out",
                          os.path.join(traces, "seed%d-serve-point-clients.json" % seed)])
    finally:
        code = daemon.stop()
    run.absorb(load, "traced serve-point")
    run.attempted += 1
    if code != 0:
        run.failed += 1
        run.errors.append("patchdbd exited %d on SIGTERM" % code)
    p50_us = load["p50_ms"] * 1e3
    layer["serve.transport_us"] = p50_us - replay["handle_us"]["lookup"] - replay["codec_us"]
    daemon_cpu_s = load["daemon_user_s"] + load["daemon_sys_s"]
    layer["serve.daemon_sys_share"] = load["daemon_sys_s"] / daemon_cpu_s
    layer["obs.trace_overhead_p50_pct"] = (100.0 * (load["traced_p50_ms"] - load["p50_ms"])
                                           / load["p50_ms"])
    shutil.rmtree(fixture, ignore_errors=True)
    for block in printed:
        print(block)
    print("traces written to %s" % traces)
    return layer


# ----------------------------------------------------------------- main --

def format_table(rows):
    lines = ["%-16s %-16s %14s %-9s %s" % ("workload", "metric", "value", "unit", "samples")]
    for workload, name, value, unit, samples in rows:
        lines.append("%-16s %-16s %14.6g %-9s %s" % (workload, name, value, unit, samples))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--references", default=REFERENCES,
                        help="reference export digests (JSON)")
    parser.add_argument("--test-hook", action="append", default=[],
                        choices=["corrupt-export", "tamper-response"],
                        help="inject a fault, to test the output checks")
    args = parser.parse_args()
    # On SIGTERM, unwind so that the finally blocks stop any daemon.
    signal.signal(signal.SIGTERM, lambda signo, _: sys.exit(128 + signo))

    build_program()
    os.makedirs(WORK, exist_ok=True)
    shutil.rmtree(TMPFS, ignore_errors=True)
    os.makedirs(TMPFS)
    private_tmpfs(TMPFS)
    fstype = filesystem_of(TMPFS)
    ram_backed = fstype in ("tmpfs", "ramfs")
    if not ram_backed:
        log("perfbench: WARNING: exports go to %s on %s, which is not RAM-backed; "
            "export and load times will drift" % (TMPFS, fstype))

    run = Run(load_references(args.references))
    times0 = cpu_times()
    t0 = time.perf_counter()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    metrics = {}
    units = PER_LAYER if args.trace else END_TO_END
    table = []
    try:
        if args.trace:
            metrics = traced_suite(run, args.seed, args.seconds)
        else:
            for workload in workloads:
                metrics, summary = run_workload(run, workload, args.seed, args.seconds,
                                                args.test_hook)
                table += [(workload,) + row for row in summary]
    except Exception as e:  # any failure of a phase fails the run, with its message
        run.failed += 1
        run.attempted += 1
        run.errors.append(str(e))
    finally:
        shutil.rmtree(TMPFS, ignore_errors=True)
    times1 = cpu_times()

    report = dict(provenance(), workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, wall_s=time.perf_counter() - t0,
                  export_fs=fstype, export_fs_ram_backed=ram_backed,
                  steal_share=steal_share(times0, times1),
                  errors=run.errors, details=run.details)
    reports = os.path.join(WORK, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(report, metrics=metrics), f, indent=1, sort_keys=True)

    print("provenance: " + json.dumps({k: report[k] for k in (
        "commit", "cpu_model", "nproc", "compiler", "build_type", "flags", "march",
        "pool_threads", "client_connections", "export_fs", "export_fs_ram_backed",
        "steal_share")}, sort_keys=True))
    if table:
        print(format_table(table))
    for error in run.errors:
        print("CHECK FAILED: " + error)
    correct = run.failed == 0 and not run.errors
    if args.workload == "all" and not args.trace:
        metrics = {}  # the per-run JSON is per workload; the table above has them all
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
