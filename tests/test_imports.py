"""dehn4 runs without sympy, which is only the test oracle.

Each check runs in a fresh interpreter, because this test process has
imported sympy already.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, FORMATS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_REPORT = """
import contextlib, io, sys
from dehn4.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main({argv!r})
# the stevedore's Fox-Milnor factor, found only by factoring (2t - 1)(t - 2)/t
print(code, "sympy" in sys.modules, "passed: yes\\n       factor: t - 2" in out.getvalue())
"""


def test_import_dehn4_leaves_sympy_unloaded():
    assert _run("import sys, dehn4; print('sympy' in sys.modules)").split() == ["False"]


def test_default_torus_solid_report_leaves_sympy_unloaded():
    argv = ["report", "--scenario", "torus-solid"]
    assert _run(_REPORT.format(argv=argv)).split() == ["0", "False", "False"]


def test_factorization_branch_leaves_sympy_unloaded():
    argv = [
        "report", "--scenario", "torus-solid", "--n", "1",
        "--knot-j", "stevedore", "--knot-k", "unknot",
    ]
    assert _run(_REPORT.format(argv=argv)).split() == ["0", "False", "True"]


_GOLDEN_WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
sys.path.insert(0, {tests!r})
from test_golden import CASES, FORMATS, golden_path, render_case
differ = [
    f"{{name}}.{{fmt}}" for name, args in sorted(CASES.items()) for fmt in FORMATS
    if render_case(args, fmt).encode("utf-8") != golden_path(name, fmt).read_bytes()
]
print(len(CASES) * len(FORMATS), "differ:", *differ)
"""


def test_every_golden_report_renders_without_sympy():
    tests = str(Path(__file__).resolve().parent)
    out = _run(_GOLDEN_WITHOUT_SYMPY.format(tests=tests)).split()
    assert out == [str(len(CASES) * len(FORMATS)), "differ:"]
