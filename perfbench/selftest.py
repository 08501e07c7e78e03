#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the driver, then for every workload at --seconds 1:
  - an untraced and a traced run print exactly the metrics BENCHMARK.json
    lists for that mode, with their units, and every digest matches;
  - count metrics repeat exactly across two traced runs with other seeds;
  - a run against a copy of digests.json with one wrong digest turns
    exactly the affected ops into failures.
Exits 0 when every check passes.
"""

import copy
import json
import os
import sys

import run

SEED = 7
# Share of a run's ops the corrupted digest covers: the tx2 half of every
# characterize pass, or tenant t00's 1/64 of every serve episode.
CORRUPTED_SHARE = {"characterize": 2, "serve_read": 64, "serve_churn": 64}
COUNT_METRICS = ("mem.accesses", "mem.hierarchy.llc_hit_ratio",
                 "coherence.flush.lines", "serve.tenant.checkpoint_bytes",
                 "serve.restores_per_op", "serve.evictions_per_op")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_checked(workload, trace, seed=SEED, digests=None):
    result = run.run_driver(workload, seed, 1, trace, digests)
    check(result is not None, "%s trace=%d: driver produced a result"
          % (workload, trace))
    return result


def check_metrics(workload, trace, result):
    want = run.expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, "%s trace=%d: every metric printed with its unit"
          % (workload, trace))
    check(all(isinstance(m["value"], (int, float))
              for m in result["metrics"].values()),
          "%s trace=%d: every value is a number" % (workload, trace))
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          "%s trace=%d: digests match (%d ops)"
          % (workload, trace, result["attempted"]))


def corrupted_digests(workload):
    with open(os.path.join(run.HERE, "digests.json")) as f:
        digests = json.load(f)
    bad = copy.deepcopy(digests)
    if workload == "characterize":
        bad["characterize"]["tx2"] = "0" * 16
    else:
        bad[workload][0] = ["0" * 16] * len(bad[workload][0])
    path = os.path.join(run.ROOT, ".bench_build", "selftest-digests.json")
    with open(path, "w") as f:
        json.dump(bad, f)
    return path


def main():
    if not run.build():
        print("FAIL build")
        return 1
    for workload in run.WORKLOADS:
        result = run_checked(workload, False)
        if result:
            check_metrics(workload, False, result)
        traced = run_checked(workload, True)
        if traced:
            check_metrics(workload, True, traced)
        again = run_checked(workload, True, seed=SEED + 1)
        if traced and again:
            for name in COUNT_METRICS:
                check(traced["metrics"][name]["value"]
                      == again["metrics"][name]["value"],
                      "%s: %s repeats across seeds" % (workload, name))
        wrong = run_checked(workload, False,
                            digests=corrupted_digests(workload))
        if wrong:
            share = CORRUPTED_SHARE[workload]
            check(not wrong["correct"]
                  and wrong["failed"] * share == wrong["attempted"],
                  "%s: a wrong recorded digest fails exactly its ops "
                  "(%d of %d)" % (workload, wrong["failed"],
                                  wrong["attempted"]))
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
