#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload characterize|serve_read|serve_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver and the library it links are
compiled into .bench_build/ (CARGO_TARGET_DIR-style scratch inside the
checkout); later runs only re-check the build. The last line of standard
output is the result JSON: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cig_perfbench")
WORKLOADS = ("characterize", "serve_read", "serve_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Per-layer metric -> (end-to-end metric it should move, workload it shows
# on); printed with every traced run. perfbench/README.md explains each.
LAYER_MAP = {
    "core.sweep.point_us.p50": ("ops_per_s, op_p50_us", "characterize"),
    "core.sweep.point_us.p90": ("ops_per_s, op_p50_us", "characterize"),
    "core.sweep.calls": ("ops_per_s, op_p50_us", "characterize"),
    "comm.executor.run_s.sc": ("op_p90_us", "characterize"),
    "comm.executor.run_s.um": ("op_p90_us", "characterize"),
    "comm.executor.run_s.zc": ("op_p90_us", "characterize"),
    "mem.accesses": ("denominator, repeats exactly", "characterize"),
    "mem.walk.ns_per_access": ("ops_per_s", "characterize"),
    "mem.hierarchy.ns_per_access": ("ops_per_s, op_p90_us",
                                    "characterize, a little serve_churn"),
    "mem.hierarchy.llc_hit_ratio": ("ops_per_s, op_p90_us",
                                    "characterize, a little serve_churn"),
    "coherence.flush.us": ("op_p90_us", "characterize"),
    "coherence.flush.lines": ("op_p90_us", "characterize"),
    "coherence.io_port.ns_per_access": ("ops_per_s", "characterize"),
    "serve.protocol.parse_us": ("ops_per_s", "serve_read"),
    "serve.batch.us.p50": ("op_p50_us, op_p90_us", "serve_read, serve_churn"),
    "serve.batch.us.p90": ("op_p50_us, op_p90_us", "serve_read, serve_churn"),
    "serve.batch.size": ("op_p50_us, op_p90_us", "serve_read, serve_churn"),
    "core.decision.recommend_us": ("op_p50_us", "serve_read"),
    "serve.tenant.ingest_us": ("ops_per_s", "serve_churn"),
    "serve.tenant.checkpoint_us": ("ops_per_s, peak_rss_mb", "serve_churn"),
    "serve.tenant.checkpoint_bytes": ("ops_per_s, peak_rss_mb", "serve_churn"),
    "serve.tenant.restore_us": ("op_p90_us", "serve_churn"),
    "serve.restores_per_op": ("wasted work (0 on serve_read)", "serve_churn"),
    "serve.evictions_per_op": ("wasted work (0 on serve_read)", "serve_churn"),
    "obs.scrape.busy_us.p50": ("ops_per_s, op_p90_us", "serve_read"),
    "obs.scrape.busy_us.p90": ("ops_per_s, op_p90_us", "serve_read"),
    "obs.scrape.idle_us": ("ops_per_s, op_p90_us", "serve_read"),
    "trace.overhead_pct": ("none", "all"),
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_process(cmd, timeout, env=None, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout
    or interruption and always waits for it. Returns (code, stdout)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def clean_env():
    """The library reads CIG_* knobs (fast-forward, audit, jobs, memory
    budget); the benchmark always measures full fidelity at its own
    settings."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CIG_")}


def build():
    env = clean_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        code, _ = run_process(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, env)
        if code != 0:
            return False
    code, _ = run_process(["cmake", "--build", BUILD, "-j", jobs],
                          BUILD_TIMEOUT_S, env)
    return code == 0 and os.path.exists(BINARY)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_driver(workload, seed, seconds, trace, digests=None):
    """Runs the built driver; returns the parsed result or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--digests", digests or os.path.join(HERE, "digests.json")]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-%d.jsonl" % (workload, seed))]
    code, out = run_process(cmd, RUN_TIMEOUT_S, clean_env(), capture=True)
    if code != 0:
        log("driver exited with %d" % code)
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    if not build():
        log("build failed")
        return 1
    result = run_driver(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    if result is None:
        return 1
    want = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 1
    if args.trace:
        for name, metric in result["metrics"].items():
            moves, where = LAYER_MAP.get(name, ("self time per op", "all"))
            log("%-44s %14.6g %-5s -> %s on %s"
                % (name, metric["value"], metric["unit"], moves, where))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
