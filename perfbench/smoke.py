#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale (about two minutes).

Run from the repository root:

    python3 perfbench/smoke.py

Every workload named in BENCHMARK.json, and dice, runs once untraced and once traced
at --scale 0.05.  Each run must exit 0 and report correct with no failed
checks.  run.py exits non-zero unless the run emitted exactly the metrics
BENCHMARK.json names for that mode, with the same units; so the result
checker itself must reject a result with a missing or renamed metric.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = "0.05"


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    # the checker must notice a dropped and a renamed metric
    names = run.expected_metrics(spec, False)
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.0, "unit": u} for n, u in names.items()}}
    if run.check_result(json.dumps(good), names) is not None:
        problems.append("checker rejects a complete result")
    first = next(iter(names))
    dropped = json.loads(json.dumps(good))
    del dropped["metrics"][first]
    renamed = json.loads(json.dumps(good))
    renamed["metrics"][first + "_renamed"] = renamed["metrics"].pop(first)
    for what, res in (("dropped", dropped), ("renamed", renamed)):
        if run.check_result(json.dumps(res), names) is None:
            problems.append("checker accepts a result with a %s metric" % what)

    # dice is not in BENCHMARK.json (not steady from seed to seed) but
    # must still emit the same metrics
    names = [w["name"] for w in spec["workloads"]]
    for w in names + [n for n in ["dice"] if n not in names]:
        for trace in (0, 1):
            label = "%s trace %d" % (w, trace)
            before = len(problems)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
                capture_output=True, text=True)
            if p.returncode != 0:
                problems.append("%s: exit %d: %s" % (label, p.returncode, p.stderr[-400:]))
                continue
            res = json.loads(p.stdout.strip().split("\n")[-1])
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: correctness %s" % (label, res))
            print("ok  " if len(problems) == before else "FAIL", label, flush=True)

    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
