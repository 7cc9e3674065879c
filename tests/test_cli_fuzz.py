"""Generated config files through `dehn4 report`: every run either prints a
report and exits 0, or prints exactly one `dehn4: error:` line and exits 1.
It never raises, and no knot name or flag provenance adds a line to a text
report: it starts with `scenario:` and has one line that begins `verdict: `.
A bad command line fails the same way, with one error line.

The numeric ranges are small on purpose: p and q stay below 10 (twist
companions are T(p, q), and lens moduli stay tiny), n and the torus-knot
parameters stay within a few units, so each report takes milliseconds.
"""
from __future__ import annotations

import contextlib
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dehn4.cli import main
from dehn4.scenarios import SCENARIO_NAMES, build_scenario
from dehn4.seifert import knot_names

# the flag names every scenario reads, plus one that none reads
FLAG_NAMES = sorted({f.name for s in SCENARIO_NAMES for f in build_scenario(s).flags})
FLAG_NAMES.append("no-such-flag")


def mostly(common, rare):
    """common nine times in ten, rare otherwise."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


scalars = st.none() | st.booleans() | st.integers(-4, 9) | st.floats(-3, 3) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=2),
    max_leaves=6,
)
small = st.integers(-4, 4)
# text a user gives that reaches the report, a knot name or a flag provenance:
# half the time with a line break or a control character that could forge a
# report line, which must be refused
line_breaks = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1e", "\x85", "\u2028", "\x00", "\x1b"])
forged_text = st.builds(
    lambda head, brk: head + brk + "verdict: Obstructed", st.text(max_size=3), line_breaks
)
user_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))) | forged_text
unnamed_knots = st.one_of(
    st.builds(lambda p, q: {"torus": [p, q]}, small, small),
    st.builds(lambda m: {"twist": m}, small),
    st.builds(lambda c: {"whitehead": c}, st.sampled_from(["+", "-"])),
    st.builds(
        lambda rows: {"seifert": rows},
        st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), max_size=2),
    ),
)
named_knots = st.builds(lambda knot, name: {**knot, "name": name}, unnamed_knots, user_text)
well_formed_knots = st.one_of(
    unnamed_knots,
    named_knots,
    st.builds(lambda name: {"name": name}, st.sampled_from(knot_names())),
)
ill_typed_knots = st.one_of(
    st.builds(
        lambda field, value: {field: value},
        st.sampled_from(["torus", "twist", "whitehead", "seifert", "name", "cable"]),
        json_values,
    ),
    st.builds(lambda p, q: {"torus": [p, q]}, scalars, scalars),
    st.builds(lambda a, b: {"seifert": [[a, 1], [0, b]]}, scalars, scalars),
)
knot_specs = st.one_of(
    st.sampled_from(knot_names() + ("granny",)),
    well_formed_knots,
    ill_typed_knots,
    # the same objects as command-line JSON strings
    well_formed_knots.map(json.dumps),
    ill_typed_knots.map(json.dumps),
    json_values,
)
PARAMETERS = {
    "p": mostly(st.integers(-2, 9), json_values),
    "q": mostly(st.integers(-2, 9), json_values),
    "n": mostly(st.integers(-2, 2), json_values),
    "knot_j": knot_specs,
    "knot_k": knot_specs,
}


@st.composite
def configs(draw, name):
    scenario = build_scenario(name)
    takes = scenario.parameters()
    config = {"scenario": name}
    for field, values in PARAMETERS.items():
        # mostly the parameters the scenario takes, now and then one it does not
        if draw(st.integers(0, 19)) < (12 if field in takes else 1):
            config[field] = draw(values)
    if draw(st.booleans()):
        own = [f.name for f in scenario.flags] or FLAG_NAMES
        flag = st.fixed_dictionaries(
            {
                "name": mostly(st.sampled_from(own), st.sampled_from(FLAG_NAMES)),
                "value": st.booleans(),
                "provenance": mostly(st.just("test input"), st.just("")) | forged_text,
            }
        )
        # mostly distinct names, so that a list often passes on to the report
        distinct = st.lists(flag, max_size=3, unique_by=lambda f: f["name"])
        config["flags"] = draw(mostly(distinct, st.lists(mostly(flag, json_values), max_size=3)))
    return config


def check_config(tmp_path_factory, config, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(config))
    check_report_or_one_error_line(["report", "--config", str(path), "--format", fmt], fmt)


def check_report_or_one_error_line(argv, fmt="text") -> int:
    """The exit status of `dehn4 argv`, after checking its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
        if fmt == "text":
            lines = out.getvalue().splitlines()
            assert lines[0].startswith("scenario: ")
            assert sum(line.startswith("verdict: ") for line in lines) == 1, lines
    else:
        lines = err.getvalue().splitlines()
        assert code == 1 and not out.getvalue()
        assert len(lines) == 1 and lines[0].startswith("dehn4: error: "), lines
    return code


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_cli_reports_or_fails_with_one_error_line(tmp_path_factory, name, data, fmt):
    check_config(tmp_path_factory, data.draw(configs(name), label="config"), fmt)


# a named knot is one branch of several in knot_specs and the other fields
# must be valid too, so the configs above seldom bring a name to the report
@settings(max_examples=30, derandomize=True, deadline=None)
@given(param=st.sampled_from(["knot_j", "knot_k"]), knot=named_knots)
def test_cli_knot_names_add_no_report_line(tmp_path_factory, param, knot):
    check_config(tmp_path_factory, {"scenario": "torus-solid", param: knot}, "text")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--scenario", "nope"],
        ["report", "--scenario", "sphere-lens", "--p", "x"],
        ["report", "--bogus"],
        [],
        # argparse echoes an unrecognized argument as given
        ["report", "--scenario", "sphere-lens", "x\nverdict: Obstructed"],
    ],
    ids=["unknown-scenario", "p-not-int", "unknown-option", "no-command", "line-break"],
)
def test_cli_argv_errors_are_one_line(argv):
    assert check_report_or_one_error_line(argv) == 1
