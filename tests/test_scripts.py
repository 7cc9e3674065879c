"""The scripts under scripts/ run end to end against the package in src/."""
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from dehn4.scenarios import SCENARIO_NAMES, Verdict
from dehn4.seifert import signature, torus_knot_seifert

ROOT = Path(__file__).resolve().parent.parent
SEPARATOR = "=" * 72


ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_all_scenarios(fmt):
    out = run_script("run_all_scenarios.py", "--format", fmt)
    lines = out.splitlines()
    assert lines[0] == lines[-1] == SEPARATOR
    reports = "\n".join(lines[1:-1]).split(f"\n{SEPARATOR}\n")
    assert len(reports) == len(SCENARIO_NAMES) == 6
    if fmt == "json":
        assert [json.loads(r)["scenario"]["name"] for r in reports] == list(SCENARIO_NAMES)


def test_twist_extension_sweep():
    out = run_script("twist_extension_sweep.py", "--bound", "5")
    header, *rows = out.splitlines()
    assert header.split()[0] == "p"
    pairs = [(p, q) for p in range(2, 5) for q in range(p + 1, 6) if gcd(p, q) == 1]
    assert [tuple(int(x) for x in row.split()[:2]) for row in rows] == pairs
    assert [int(row.split()[3]) for row in rows] == [
        signature(torus_knot_seifert(p, q)) for p, q in pairs
    ]
    verdicts = {v.value for v in Verdict}
    assert all(row.split()[-1] in verdicts for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "dehn4.cli", "report", "--scenario", "sphere-lens"],
        [str(ROOT / "scripts" / "run_all_scenarios.py")],
        [str(ROOT / "scripts" / "twist_extension_sweep.py"), "--bound", "3"],
    ],
    ids=["cli", "run_all_scenarios", "twist_extension_sweep"],
)
def test_reader_gone_before_first_write_exits_quietly(argv):
    """stdout is a pipe whose read end is closed before the child starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            env=ENV,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
