#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, traced and untraced, on tiny
inputs.  Checks that each run exits 0, passes its output checks, and emits
exactly the metrics BENCHMARK.json names (end-to-end untraced, per-layer
traced) with their units.

    python3 perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = "%s trace=%d" % (w["name"], trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (where, p.returncode, p.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result["correct"], result["attempted"], result["failed"]))
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: missing %s, unexpected %s, unit mismatches %s" % (
                    where, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in set(want) & set(got) if want[k] != got[k])))
            print("%-28s ok=%s metrics=%d" % (where, p.returncode == 0, len(got)))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
