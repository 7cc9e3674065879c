#!/usr/bin/env python3
"""Run every named scenario with its default parameters and print the reports.

Usage: python scripts/run_all_scenarios.py [--format text|json]
"""
import argparse
import sys

from dehn4 import build_scenario, render, run_scenario
from dehn4.cli import silence_broken_pipe
from dehn4.scenarios import SCENARIO_NAMES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()
    for name in SCENARIO_NAMES:
        print("=" * 72)
        report = run_scenario(build_scenario(name))
        print(render(report, args.format), end="")
    print("=" * 72)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        sys.exit(silence_broken_pipe())
