"""Golden reports: every case below must render byte for byte as the file
checked in under tests/golden/.

Each case is a `dehn4` command line run in process through `cli.main`, in
both output formats.  After a deliberate change to the report output,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import (
    SCHEMA,
    block_diagonal,
    dense_concordance_inverse,
    dense_torus_bricks,
    read_rows,
)
from dehn4 import scenarios
from dehn4.cli import build_parser, main
from dehn4.report import render_json, report_to_json_dict
from dehn4.scenarios import PARAMS, build_scenario, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FORMATS = {"text": "txt", "json": "json"}

_T23 = [[-1, 1], [0, -1]]
_T23_MINUS_T23 = {
    "seifert": [
        [-1, 1, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 1, -1],
        [0, 0, 0, 1],
    ],
    "name": "T(2,3)#-T(2,3)",
}


_T35 = [
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [1, -1, 0, 0, -1, 1, 0, 0],
    [0, 1, -1, 0, 0, -1, 1, 0],
    [0, 0, 1, -1, 0, 0, -1, 1],
    [0, 0, 0, 1, 0, 0, 0, -1],
]
# sigma = -8 + 4 * 2 = 0 and |Delta(-1)| = 1 * 3^4 = 81, a square, but the
# 15th cyclotomic polynomial t^8 - t^7 + t^5 - t^4 + t^3 - t + 1 = Delta_T(3,5)
# has multiplicity 1: Fox-Milnor fails only by factorization
_T35_PLUS_FOUR_MINUS_T23 = {
    "seifert": block_diagonal(_T35, *[((1, -1), (0, 1))] * 4),
    "name": "T(3,5)#4(-T(2,3))",
}


_T37 = dense_torus_bricks(3, 7)
# sigma = 0, and Delta = Delta_T(3,7)^2 has span 24 > 16, so Fox-Milnor
# refuses it: "polynomial degree 24 exceeds bound 16"
_T37_MINUS_T37 = {
    "seifert": block_diagonal(_T37, dense_concordance_inverse(_T37)),
    "name": "T(3,7)#-T(3,7)",
}


CASES: dict[str, tuple[str, ...]] = {
    # the six scenarios at their defaults
    "sphere-lens": ("--scenario", "sphere-lens"),
    "sphere-smooth-h": ("--scenario", "sphere-smooth-h"),
    "sphere-smooth-e8h": ("--scenario", "sphere-smooth-e8h"),
    "torus-solid": ("--scenario", "torus-solid"),
    "torus-top-vs-smooth": ("--scenario", "torus-top-vs-smooth"),
    "twist-extension": ("--scenario", "twist-extension"),
    # README examples and the knot specs of the cold-CLI benchmark
    "readme-sphere-lens-5-2": ("--scenario", "sphere-lens", "--p", "5", "--q", "2"),
    "readme-whitehead-plus": (
        "--scenario", "torus-top-vs-smooth", "--knot-k", json.dumps({"whitehead": "+"}),
    ),
    "torus-solid-torus-3-5": (
        "--scenario", "torus-solid", "--knot-j", json.dumps({"torus": [3, 5]}),
    ),
    "torus-solid-twist-2": ("--scenario", "torus-solid", "--knot-j", json.dumps({"twist": 2})),
    "torus-solid-seifert-right-trefoil": (
        "--scenario", "torus-solid", "--knot-j", json.dumps({"seifert": _T23}),
    ),
    # the three Fox-Milnor branches: determinant, unit, factorization
    "torus-solid-figure-eight": (
        "--scenario", "torus-solid", "--n", "1", "--knot-j", "figure-eight", "--knot-k", "unknot",
    ),
    "torus-solid-stevedore": (
        "--scenario", "torus-solid", "--n", "1", "--knot-j", "stevedore", "--knot-k", "unknot",
    ),
    "torus-solid-t23-minus-t23": (
        "--scenario", "torus-solid", "--n", "1", "--knot-j", json.dumps(_T23_MINUS_T23),
        "--knot-k", "unknot",
    ),
    "torus-solid-fox-milnor-odd-factor": (
        "--scenario", "torus-solid", "--n", "1", "--knot-k", "unknot",
        "--knot-j", json.dumps(_T35_PLUS_FOUR_MINUS_T23),
    ),
    # beyond the Fox-Milnor degree bound
    "torus-solid-t37-minus-t37": (
        "--scenario", "torus-solid", "--n", "1", "--knot-k", "unknot",
        "--knot-j", json.dumps(_T37_MINUS_T37),
    ),
    **{
        f"torus-top-vs-smooth-torus-{p}-{p + 1}": (
            "--scenario", "torus-top-vs-smooth", "--n", "1",
            "--knot-j", json.dumps({"torus": [p, p + 1]}),
        )
        for p in range(2, 8)
    },
    # sphere-lens: one q that is a square mod p and one that is not, on
    # primes, prime powers, 4 || p and 8 | p; then 8 | p beside three odd
    # prime powers (2^3 3^3 5^2 7), and primes near 10^6 and 10^9, whose
    # witnesses stay as short as the others
    **{
        f"sphere-lens-{p}-{q}": ("--scenario", "sphere-lens", "--p", str(p), "--q", str(q))
        for p, qs in (
            (5, (4, 2)),
            (7, (2, 3)),
            (8, (1, 3)),
            (9, (4, 2)),
            (12, (1, 5)),
            (16, (9, 3)),
            (25, (4, 2)),
            (27, (4, 2)),
            (1009, (2, 11)),
            (37800, (11,)),
            (1000003, (2,)),
            (1000000009, (11,)),
        )
        for q in qs
    },
}


def render_case(args: tuple[str, ...], fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", *args, "--format", fmt])
    if code != 0:
        raise RuntimeError(f"dehn4 report {' '.join(args)} exited {code}")
    return out.getvalue()


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, fmt):
    expected = golden_path(name, fmt).read_bytes()
    assert render_case(CASES[name], fmt).encode("utf-8") == expected


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_is_in_the_canonical_layout(path):
    """Checked apart from dehn4's writer, so a golden file rewritten through
    a faulty writer still fails here."""
    text = path.read_bytes().decode("utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_validates_against_the_schema(path):
    jsonschema.validate(json.loads(path.read_bytes()), SCHEMA)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json_seifert_rows_read_back_to_the_knots(name):
    """Each knot's sparse rows in the JSON golden are the matrix that the
    case's knot spec, or the scenario's default knot, builds."""
    opts = dict(zip(CASES[name][::2], CASES[name][1::2]))
    scenario = build_scenario(
        opts["--scenario"], knot_j=opts.get("--knot-j"), knot_k=opts.get("--knot-k")
    )
    knots = {key: getattr(scenario, key) for key in ("knot_j", "knot_k")}
    knots = {key: knot for key, knot in knots.items() if knot is not None}
    written = json.loads(golden_path(name, "json").read_bytes())["scenario"]["knots"]
    assert written.keys() == knots.keys()
    for key, knot in knots.items():
        assert written[key]["name"] == knot.name
        assert read_rows(written[key]["seifert"]) == knot.matrix


def case_report(args: tuple[str, ...]):
    """The report that `dehn4 report` builds from args."""
    opts = build_parser().parse_args(["report", *args])
    params = {param: getattr(opts, param) for param in PARAMS}
    return run_scenario(build_scenario(opts.scenario, **params))


def test_goldens_render_alike_in_any_order(monkeypatch):
    """A fixed step keeps its text body and its JSON item from its first
    render, and shares them with every report that holds it.  So every
    case renders in one process, from an empty head memo and fresh Stein
    steps, forward and then in reverse, in both formats; each run must
    match the golden whichever render filled the kept text."""
    monkeypatch.setattr(scenarios, "_HEADS", {})
    monkeypatch.setattr(
        scenarios, "_STEIN_STEPS", tuple(type(t)(*t) for t in scenarios._STEIN_STEPS)
    )
    runs = [(name, fmt) for name in sorted(CASES) for fmt in FORMATS]
    differ = [
        (name, fmt)
        for name, fmt in [*runs, *reversed(runs)]
        if render_case(CASES[name], fmt).encode("utf-8") != golden_path(name, fmt).read_bytes()
    ]
    assert differ == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_json_reads_back_to_the_json_dict(name):
    """render_json writes a fixed step from its kept text;
    report_to_json_dict gives plain data, with no kept text in it."""
    report = case_report(CASES[name])
    for _ in range(2):  # the second render reads the kept text
        assert json.loads(render_json(report)) == report_to_json_dict(report)
    assert all(type(item) is dict for item in report_to_json_dict(report)["trace"])


def test_golden_dir_holds_only_known_cases():
    known = {golden_path(name, fmt).name for name in CASES for fmt in FORMATS}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == known


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in CASES.items():
        for fmt in FORMATS:
            golden_path(name, fmt).write_bytes(render_case(args, fmt).encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
