"""dehn4 runs without sympy, which is only the test oracle, and a report
loads only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
imported sympy and every dehn4 module already.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES, FORMATS, golden_path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str, *flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120
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


_FIXED_STEPS_FIRST_IN_JSON = """
import sys
sys.path.insert(0, {tests!r})
from test_golden import CASES, golden_path, render_case
for name in ("twist-extension", "torus-top-vs-smooth"):
    for fmt in ("json", "text", "json"):
        assert render_case(CASES[name], fmt).encode("utf-8") == golden_path(name, fmt).read_bytes()
print("ok")
"""


def test_a_fixed_step_first_rendered_as_json_in_a_fresh_interpreter():
    """The first JSON item a fixed step keeps is written before any other
    JSON in the process, so it must load the str writer as json_text does."""
    tests = str(Path(__file__).resolve().parent)
    assert _run(_FIXED_STEPS_FIRST_IN_JSON.format(tests=tests)).split() == ["ok"]


# the modules a report may leave unloaded: the record machinery dehn4 does
# not use, the modules that serve only some scenarios or branches, and json,
# which only a JSON report or a JSON knot spec or config reads
_OPTIONAL = (
    "dataclasses",
    "fractions",
    "json",
    "dehn4.forms",
    "dehn4.factor",
    "dehn4.seifert",
    "dehn4.exact",
    "dehn4.laurent",
    "dehn4.foxmilnor",
)
# what every torus report loads.  A report that builds an Alexander
# polynomial adds dehn4.laurent, one that tests a Delta by Fox-Milnor adds
# dehn4.foxmilnor (and dehn4.factor, when it must factor), and only a
# checked leaf, from a {"seifert": ...} spec, adds dehn4.exact (and
# fractions, when it interpolates an Alexander polynomial)
_TORUS = ["dehn4.seifert"]

_LOADED = """
import sys
bare = set(sys.modules)  # what the interpreter loads before any code runs
import contextlib, io
import {module}
argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dehn4.cli.main(argv) == 0
print(*sorted(set(sys.modules) - bare))
"""


def _loaded(module: str, argv: list[str]) -> set[str]:
    return set(_run(_LOADED.format(module=module, argv=argv)).split())


# each case's `dehn4 report` arguments, None for a bare `import dehn4`, with
# the optional modules it loads; "{config}" is the path of _CONFIG in a file
_BUDGET = {
    "import dehn4": (None, []),
    "import dehn4.cli": ([], []),
    "torus-solid": (["--scenario", "torus-solid"], _TORUS),
    "torus-solid json": (["--scenario", "torus-solid", "--format", "json"], [*_TORUS, "json"]),
    "torus-solid seifert spec": (
        [
            "--scenario", "torus-solid",
            "--knot-j", '{"seifert": [[-1, 1], [0, -1]]}', "--knot-k", "unknot",
        ],
        sorted([*_TORUS, "dehn4.exact", "json"]),
    ),
    "torus-solid torus spec": (
        ["--scenario", "torus-solid", "--knot-j", '{"torus": [3, 5]}'], [*_TORUS, "json"]
    ),
    "torus-solid figure-eight": (
        ["--scenario", "torus-solid", "--knot-j", "figure-eight", "--knot-k", "unknot"],
        sorted([*_TORUS, "dehn4.foxmilnor", "dehn4.laurent"]),
    ),
    "sphere-lens": (["--scenario", "sphere-lens"], ["dehn4.forms"]),
    "sphere-lens config": (["--config", "{config}"], ["dehn4.forms", "json"]),
    "sphere-smooth-h": (["--scenario", "sphere-smooth-h"], ["dehn4.forms"]),
    "sphere-smooth-e8h": (["--scenario", "sphere-smooth-e8h"], ["dehn4.forms"]),
    "torus-top-vs-smooth": (
        ["--scenario", "torus-top-vs-smooth"], sorted([*_TORUS, "dehn4.laurent"])
    ),
    "twist-extension": (["--scenario", "twist-extension"], _TORUS),
    "torus-solid stevedore": (
        ["--scenario", "torus-solid", "--knot-j", "stevedore", "--knot-k", "unknot"],
        sorted([*_TORUS, "dehn4.factor", "dehn4.foxmilnor", "dehn4.laurent"]),
    ),
}


_CONFIG = '{"scenario": "sphere-lens", "p": 7, "q": 3}'


@pytest.mark.parametrize("case", _BUDGET)
def test_a_report_loads_only_the_optional_modules_it_runs(case, tmp_path):
    """Counted in a fresh interpreter, beyond what a bare one loads; no
    timing, only which modules are in sys.modules at the end."""
    args, loaded = _BUDGET[case]
    if args and "{config}" in args:
        config = tmp_path / "config.json"
        config.write_text(_CONFIG)
        args = [str(config) if a == "{config}" else a for a in args]
    module = "dehn4" if args is None else "dehn4.cli"
    new = _loaded(module, ["report", *args] if args else [])
    assert module in new
    assert sorted(new.intersection(_OPTIONAL)) == loaded


_FOX_MILNOR_ON_ACCESS = """
import sys
import dehn4.seifert as seifert
unloaded = "dehn4.foxmilnor" not in sys.modules
names = ("fox_milnor", "FoxMilnorResult", "FoxMilnorFailure", "FactorizationBoundError")
served = [getattr(seifert, name) for name in names]
import dehn4.foxmilnor as foxmilnor
try:
    seifert.no_such_name
except AttributeError:
    refused = True
print(unloaded, all(x is getattr(foxmilnor, name) for x, name in zip(served, names)), refused)
"""


def test_seifert_serves_the_fox_milnor_names_from_foxmilnor_on_first_access():
    """`import dehn4.seifert` loads no dehn4.foxmilnor; the four names it
    moved to are the same objects when read through dehn4.seifert."""
    assert _run(_FOX_MILNOR_ON_ACCESS).split() == ["True", "True", "True"]


_STDLIB_LOADED = """
import sys
import contextlib, io
from dehn4.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print(*sorted(m for m in {modules!r} if m in sys.modules))
"""


def test_a_default_torus_solid_report_without_site_loads_no_pathlib():
    """Under `python -S`, where `site` loads nothing first, a report given
    no --config loads neither pathlib nor urllib."""
    code = _STDLIB_LOADED.format(
        argv=["report", "--scenario", "torus-solid"], modules=("pathlib", "urllib")
    )
    assert _run(code, "-S").split() == []


def test_import_dehn4_loads_only_scenarios_and_report():
    new = _loaded("dehn4", [])
    assert sorted(m for m in new if m == "json" or m.startswith(("dehn4.", "json."))) == [
        "dehn4.report",
        "dehn4.scenarios",
    ]


_SPHERE_CASES = sorted(name for name, args in CASES.items() if args[1].startswith("sphere-"))

_GOLDEN_WITHOUT_TORUS_CODE = """
import contextlib, io, sys
sys.modules["dehn4.seifert"] = None  # an import of it now raises ImportError
from dehn4.cli import main
cases = {cases!r}
differ = []
for args, fmt, path in cases:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["report", *args, "--format", fmt])
    with open(path, "rb") as f:
        if code != 0 or out.getvalue().encode("utf-8") != f.read():
            differ.append(path)
print(len(cases), "differ:", *differ)
"""


def test_every_sphere_golden_renders_without_the_torus_modules():
    assert {CASES[name][:2] for name in _SPHERE_CASES} == {
        ("--scenario", name) for name in ("sphere-lens", "sphere-smooth-h", "sphere-smooth-e8h")
    }
    cases = [
        (CASES[name], fmt, str(golden_path(name, fmt))) for name in _SPHERE_CASES for fmt in FORMATS
    ]
    out = _run(_GOLDEN_WITHOUT_TORUS_CODE.format(cases=cases)).split()
    assert out == [str(len(cases)), "differ:"]


_FLAGS_BUILT = """
from dehn4 import scenarios
built = []
new = scenarios.HypothesisFlag.__new__
scenarios.HypothesisFlag.__new__ = staticmethod(
    lambda cls, *args: built.append(args) or new(cls, *args)
)
first, second = (scenarios.build_scenario({scenario!r}).flags for _ in range(2))
print(first is second, len(first), len(built))
"""


@pytest.mark.parametrize(
    "scenario, count", [("sphere-lens", 0), ("sphere-smooth-h", 2), ("torus-solid", 1)]
)
def test_build_scenario_returns_the_default_flags_built_at_import(scenario, count):
    """Default flags are plain tuples built once, at import: two builds
    return the identical tuple, and no build constructs a HypothesisFlag."""
    assert _run(_FLAGS_BUILT.format(scenario=scenario)).split() == ["True", str(count), "0"]
