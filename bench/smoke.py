#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py        (from the root of the checkout)

Runs every workload at its tiny size, untraced and traced, and checks that
the last line of output names exactly the metrics BENCHMARK.json lists, each
with its unit, and that every report was correct.  Then it plants a wrong
expected verdict in each workload and checks that the run counts it as a
failure and exits nonzero.  Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run
import workloads


def bench(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in names:
            code, result = bench(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: exit {code}, {result['failed']} failed")
            if got != expected:
                diff = set(got.items()) ^ set(expected.items())
                problems.append(f"{workload} trace {trace}: metrics differ at {sorted(diff)}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a metric value is not a number")

    make_requests = workloads.make_requests

    def planted(*args, **kwargs):
        reqs = make_requests(*args, **kwargs)
        return [replace(reqs[0], verdict="NotARealVerdict"), *reqs[1:]]

    workloads.make_requests = planted
    try:
        for workload in names:
            code, result = bench(workload, 0)
            if code == 0 or result["correct"] or result["failed"] < 1:
                problems.append(f"{workload}: planted wrong verdict not caught")
    finally:
        workloads.make_requests = make_requests

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
