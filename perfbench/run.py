#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dice|airdrop|parallel --seed N \
        --seconds S --trace 0|1 [--scale F]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and
units are checked against BENCHMARK.json (``end_to_end`` for ``--trace 0``,
``per_layer`` for ``--trace 1``); any mismatch, build failure, correctness
failure or timeout exits non-zero.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no build or benchmark process outlives us."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def expected_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    got = {name: v["unit"] for name, v in res["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        return "metrics missing %s, unexpected %s" % (missing, extra)
    wrong = sorted(n for n in expected if got[n] != expected[n])
    if wrong:
        return "units differ for %s" % wrong
    return None


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"

    code, _ = run_group(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")

    code, out = run_group([EXE] + args, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    last = lines[-1]
    try:
        problem = check_result(last, expected_metrics(spec, trace))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        problem = "unparsable result line: %s" % e
    if problem:
        print(last, file=sys.stderr)
        fail(problem)
    print(last, flush=True)
    if code != 0:
        fail("benchmark exited with %d (correctness failure)" % code)


if __name__ == "__main__":
    main()
