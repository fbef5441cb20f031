#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer timing of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

It builds perfbench/ (the simulator's libraries plus the omxbench program,
Release only) into .bench_build/, runs the workload in fresh omxbench
processes, checks every output, and prints the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
host facts and a readable table.

--trace 0: set-up runs SETUP_SAMPLES times in its own processes and once
more in the timed process; setup_s is the median of those samples. The
timed process then runs closed-loop requests for --seconds.

Request latency is gated on its 90th percentile, the highest one a run
has ten samples beyond. On a shared host, identical trials run in a slow
mode most of the time and in bursts of a much faster one (1.6x on
flood-packed, with CPU time equal to wall time), and how much of a run the
bursts cover varies from run to run. The mean and the median follow that
share; the 90th percentile sits in the slow mode and repeats within a few
percent. farm-grid's requests also step in whole ticks of the farm's
20 ms poll loop, which moves its 75th percentile by a tick at a time. So
request_ms.p50, request_ms.p75 and trials_per_s are printed but are not
among BENCHMARK.json's end-to-end metrics; --trace 1 reports the median
and the throughput of its untraced run as bench.request_ms.p50 and
bench.trials_per_s.

--trace 1: an untraced and a traced process run --seconds/2 each. The
traced one attaches the engine's phase-timing sink and records spans
around the public calls into each layer; the spans are written as Chrome
trace-event JSON to .bench_build/traces/. Per-request outputs of the two
processes must match.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = ".bench_build"  # relative to ROOT, which is the working directory
CONFIGS = os.path.join(os.path.basename(BENCH_DIR), "workloads")
SETUP_SAMPLES = 4
CHILD_BUDGET_S = 170  # every process after the build ends within this
BUILD_BUDGET_S = 850

WORKLOADS = ("alg1-coin-hiding", "flood-packed", "farm-grid", "adv-search")

# Per-layer metric -> (end-to-end metric it should move, workload it
# should move on, workloads where it should stay flat). self_ms.<module>
# is a module's self time per timed request, from the traced run's spans.
LATENCY = "request_ms.p90"  # the gated latency metric
MOVES = {
    "sim.compute_ms": (LATENCY, "alg1-coin-hiding, flood-packed", "farm-grid"),
    "sim.delivery_ms": (LATENCY, "alg1-coin-hiding", "flood-packed"),
    "sim.adversary_ms": (LATENCY, "flood-packed", "alg1-coin-hiding"),
    "harness.residual_ms": (LATENCY, "alg1-coin-hiding", "-"),
    "graph.build_ms": ("setup_s", "alg1-coin-hiding", "flood-packed"),
    "groups.build_ms": ("setup_s", "alg1-coin-hiding", "flood-packed"),
    "graph.builds": ("setup_s", "alg1-coin-hiding", "flood-packed"),
    "core.time_rounds": ("none (paper count)", "alg1-coin-hiding, farm-grid",
                         "-"),
    "core.fallback_ratio": ("none (paper count)",
                            "alg1-coin-hiding, farm-grid", "-"),
    "sim.rounds": ("none (exact count)", "all", "all"),
    "sim.messages": ("none (exact count)", "all", "all"),
    "sim.comm_bits": ("none (exact count)", "all", "all"),
    "sim.omitted": ("none (exact count)", "all", "all"),
    "rng.random_bits": ("none (exact count)", "all", "all"),
    "rng.random_calls": ("none (exact count)", "all", "all"),
    "adversary.corrupted": ("none (exact count)", "all", "all"),
    "advsearch.seed_ms": (LATENCY, "adv-search", "-"),
    "advsearch.engine_ms": (LATENCY, "adv-search",
                            "alg1-coin-hiding, flood-packed"),
    "trace.emit_ms": (LATENCY, "adv-search", "alg1-coin-hiding, flood-packed"),
    "trace.read_ms": (LATENCY, "adv-search", "alg1-coin-hiding, flood-packed"),
    "advsearch.score_ms": (LATENCY, "adv-search",
                           "alg1-coin-hiding, flood-packed"),
    "trace.bytes": (LATENCY, "adv-search", "-"),
    "trace.pack_ratio": (LATENCY, "adv-search", "-"),
    "advsearch.rejected_ratio": (LATENCY + " (wasted work)", "adv-search",
                                 "-"),
    "advsearch.accepted_ratio": (LATENCY + " (wasted work)", "adv-search",
                                 "-"),
    "advsearch.improved": (LATENCY + " (wasted work)", "adv-search", "-"),
    "farm.utilization": (LATENCY, "farm-grid", "other three"),
    "farm.dispatch_ms": (LATENCY, "farm-grid", "other three"),
    "farm.merge_ms": (LATENCY, "farm-grid", "-"),
    "farm.cpu_ms": (LATENCY, "farm-grid", "-"),
    "farm.releases": ("ok_ratio", "farm-grid", "-"),
    "farm.crashed_workers": ("ok_ratio", "farm-grid", "-"),
    "farm.torn_shard_lines": ("ok_ratio", "farm-grid", "-"),
    "farm.worker_peak_rss_mb": ("peak_rss_mb", "farm-grid", "-"),
    "self_ms.sim": (LATENCY, "alg1-coin-hiding, flood-packed", "-"),
    "self_ms.farm": (LATENCY, "farm-grid", "-"),
    "self_ms.advsearch": (LATENCY, "adv-search", "-"),
    "bench.requests": ("none (sample count)", "all", "-"),
    "bench.trials_per_s": ("none (ungated throughput)", "all", "-"),
    "bench.request_ms.p50": ("none (ungated median)", "all", "-"),
    "bench.trace_overhead_pct": ("-", "all", "-"),
    "host.spin_l2_ms": ("none (host context)", "all", "-"),
    "host.spin_l3_ms": ("none (host context)", "all", "-"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def read_cache_var(name):
    path = os.path.join(BUILD, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configure and build omxbench; refuse anything but Release."""
    start = time.monotonic()
    steps = [["cmake", "-S", os.path.basename(BENCH_DIR), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "omxbench", "-j",
              str(os.cpu_count() or 1)]]
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for cmd in steps:
            left = BUILD_BUDGET_S - (time.monotonic() - start)
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, left)).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if rc != 0:
                log.flush()
                with open(os.path.join(BUILD, "build.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    build_type = read_cache_var("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing to measure a %r build; configure %s with "
             "-DCMAKE_BUILD_TYPE=Release" % (build_type, BUILD))


def host_facts(build_type):
    compiler = "unknown"
    files = os.path.join(BUILD, "CMakeFiles")
    for sub in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            fields = {}
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID",
                                "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith("set(%s " % key):
                            fields[key] = line.split('"')[1]
            compiler = "%s %s" % (
                fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def git_sha():
    """HEAD of a git checkout at ROOT, read without leaving it."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "none"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(".git", name)
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    exact code it measured even in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_omxbench(args, mode, seconds, traced, deadline):
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "omxbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--mode", mode, "--traced", "1" if traced else "0",
           "--configs", CONFIGS, "--work", work]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--chrome", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the %s run" % mode)
    # Its own process group, so a timeout also stops forked farm workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        # Wait (briefly) until every process of the group is gone.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail("omxbench %s run timed out" % mode)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("omxbench %s run exited %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def percentile(values, p):
    """The p-th percentile (p a whole number from 1 to 99)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def host_cache(spin):
    """Cache sizes and the fixed-work loop times from a spin process."""
    return {k: spin[k] for k in ("l2_bytes", "l3_bytes", "spin_l2_ms",
                                 "spin_l3_ms")}


def trials_per_s(run):
    return run["trials"] / run["busy_s"] if run["busy_s"] > 0 else 0.0


def end_to_end(args, deadline):
    setups = [run_omxbench(args, "setup", 0, False, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    spin = run_omxbench(args, "spin", 0, False, deadline)
    run = run_omxbench(args, "timed", args.seconds, False, deadline)
    setups.append(run["setup_s"])
    req = run["request_ms"]
    if not req:
        fail("the timed run finished no request")
    if len(req) < 100:
        print("perfbench: warning: %d requests; request_ms.p90 rests on "
              "fewer than 10 samples" % len(req), file=sys.stderr)
    attempted, failed = run["attempted"], run["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "trials_per_s": trials_per_s(run),
        "request_ms.p50": percentile(req, 50),
        "request_ms.p75": percentile(req, 75),
        "request_ms.p90": percentile(req, 90),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "trials_per_s": "%d trials in %.2f s" % (run["trials"],
                                                 run["busy_s"]),
        "request_ms.p50": "%d requests" % len(req),
        "request_ms.p75": "%d requests" % len(req),
        "request_ms.p90": "%d requests" % len(req),
        "ok_ratio": "%d of %d outputs checked ok" % (attempted - failed,
                                                    attempted),
    }
    return values, notes, attempted, failed, run["failures"], host_cache(spin)


def per_layer(args, deadline):
    half = args.seconds / 2.0
    plain = run_omxbench(args, "timed", half, False, deadline)
    spin = run_omxbench(args, "spin", 0, False, deadline)
    traced = run_omxbench(args, "timed", half, True, deadline)
    if not plain["request_ms"] or not traced["request_ms"]:
        fail("a timed run finished no request")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    failures = plain["failures"] + traced["failures"]
    # Same seeds, same requests: the traced run must produce the same
    # per-request outputs (Metrics, merged farm lines, search results).
    common = min(len(plain["digests"]), len(traced["digests"]))
    for i in range(common):
        attempted += 1
        if plain["digests"][i] != traced["digests"][i]:
            failed += 1
            failures.append("request %d: traced output %s differs from "
                            "untraced %s" % (i + 1, traced["digests"][i],
                                             plain["digests"][i]))
    values = dict(traced["layer"])
    base = trials_per_s(plain)
    values["bench.trace_overhead_pct"] = (
        100.0 * (base - trials_per_s(traced)) / base if base > 0 else 0.0)
    values["bench.requests"] = float(len(traced["request_ms"]))
    values["bench.trials_per_s"] = base
    values["bench.request_ms.p50"] = percentile(plain["request_ms"], 50)
    values["host.spin_l2_ms"] = spin["spin_l2_ms"]
    values["host.spin_l3_ms"] = spin["spin_l3_ms"]
    return values, attempted, failed, failures, host_cache(spin)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    deadline = time.monotonic() + CHILD_BUDGET_S
    host = host_facts(read_cache_var("CMAKE_BUILD_TYPE"))

    if args.trace == 0:
        values, notes, attempted, failed, failures, cache = end_to_end(
            args, deadline)
        wanted = spec["end_to_end"]
    else:
        values, attempted, failed, failures, cache = per_layer(args, deadline)
        notes = {}
        wanted = spec["per_layer"]
    host.update(cache)
    print("host " + json.dumps(host, sort_keys=True))
    for why in failures:
        print("FAILED: " + why)

    metrics = {}
    for m in wanted:
        name = m["name"]
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": m["unit"]}
        if args.trace == 0:
            print("%-18s %-16s %14.6g %-6s %s" % (
                args.workload, name, value, m["unit"], notes.get(name, "")))
        else:
            moves, on, flat = MOVES.get(name, ("-", "-", "-"))
            print("%-18s %-26s %14.6g %-6s moves %s on %s; flat on %s" % (
                args.workload, name, value, m["unit"], moves, on, flat))
    if args.trace == 0:
        for name, unit in (("request_ms.p50", "ms"), ("request_ms.p75", "ms"),
                           ("trials_per_s", "1/s")):
            print("%-18s %-16s %14.6g %-6s %s (not gated)" % (
                args.workload, name, values[name], unit, notes[name]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
