#!/usr/bin/env python3
"""Sweep the twist-extension scenario over coprime torus-knot parameters.

For each coprime pair 2 <= p < q <= bound, print the extension subgroup
index, the torus-knot signature driving the companion obstruction, and
the combined verdict.

Usage: python scripts/twist_extension_sweep.py [--bound 7]
"""
import argparse
import sys
from math import gcd

from dehn4 import build_scenario, run_scenario
from dehn4.cli import silence_broken_pipe


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=7)
    args = parser.parse_args()
    print(f"{'p':>3} {'q':>3} {'index':>6} {'sigma(T(p,q))':>14} verdict")
    for p in range(2, args.bound):
        for q in range(p + 1, args.bound + 1):
            if gcd(p, q) != 1:
                continue
            report = run_scenario(build_scenario("twist-extension", p=p, q=q))
            sub = next(
                t for t in report.trace if t.operation == "extension_subgroup"
            )
            # the companion's class (0, 1) carries -T(p, q), of signature -sigma
            beta = next(
                t for t in report.trace
                if t.operation == "companion.algebraic_slice_verdict"
                and t.inputs["class"] == [0, 1]
            )
            sigma = -beta.output["signature"]
            print(
                f"{p:>3} {q:>3} {sub.output['index']:>6} {sigma:>14} "
                f"{report.verdict.value}"
            )


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        sys.exit(silence_broken_pipe())
