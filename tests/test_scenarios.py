import errno
import json
import os
import re
import sys
import tracemalloc
import unicodedata
from pathlib import Path

import jsonschema
import pytest

from conftest import SCHEMA
from dehn4 import cli, forms, scenarios
from dehn4.cli import main
from dehn4.report import render, render_json, render_text, report_to_json_dict
from dehn4.scenarios import (
    SCENARIO_NAMES,
    HypothesisFlag,
    Scenario,
    ScenarioError,
    Verdict,
    build_scenario,
    run_scenario,
)

ROOT = Path(__file__).resolve().parent.parent


def run(name, **kwargs):
    return run_scenario(build_scenario(name, **kwargs))


def test_sphere_lens_5_2_obstructed_with_witness():
    report = run("sphere-lens", p=5, q=2)
    assert report.verdict is Verdict.OBSTRUCTED
    text = render_text(report)
    assert "verdict: Obstructed" in text
    assert "{5^1:4, 5^1:4}" in text
    assert "witness: neither 2 mod 5^1 nor 3 mod 5^1 is a square" in text


def test_sphere_lens_5_1_not_obstructed():
    assert run("sphere-lens", p=5, q=1).verdict is Verdict.NOT_OBSTRUCTED


def test_sphere_smooth_h_obstructed_by_empty_enumeration():
    report = run("sphere-smooth-h")
    assert report.verdict is Verdict.OBSTRUCTED
    step = next(t for t in report.trace if t.operation == "enumerate_even_splittings")
    assert step.output["count"] == 0


def test_sphere_smooth_e8h_obstructed_by_exclusions():
    report = run("sphere-smooth-e8h")
    assert report.verdict is Verdict.OBSTRUCTED
    enum_step = next(
        t for t in report.trace if t.operation == "enumerate_even_splittings"
    )
    assert enum_step.output["splittings"] == [["E8", "H"], ["E8 + H", "0"]]
    excl = next(t for t in report.trace if t.operation == "exclude_splittings")
    assert [row["excluded_by"] for row in excl.output] == [
        "no-e8-filling-y1",
        "no-acyclic-filling-y2",
    ]


def test_sphere_smooth_e8h_without_exclusion_flags_is_open():
    flags = (
        HypothesisFlag("rho-y1", True, "test input"),
        HypothesisFlag("rho-y2", False, "test input"),
        HypothesisFlag("no-e8-filling-y1", False, "test input"),
        HypothesisFlag("no-acyclic-filling-y2", False, "test input"),
    )
    report = run("sphere-smooth-e8h", flags=flags)
    assert report.verdict is Verdict.NOT_OBSTRUCTED


def test_torus_solid_paper_example_left_trefoils_n3():
    report = run("torus-solid", knot_j="left-trefoil", knot_k="left-trefoil", n=3)
    assert report.verdict is Verdict.OBSTRUCTED


def test_torus_solid_unknot_k_n0_is_inconclusive():
    report = run("torus-solid", knot_j="left-trefoil", knot_k="unknot", n=0)
    assert report.verdict is Verdict.INCONCLUSIVE
    verdict_steps = [
        t for t in report.trace if t.operation == "algebraic_slice_verdict"
    ]
    unknown = [t for t in verdict_steps if t.output["tag"] == "Unknown"]
    assert len(unknown) == 1
    assert unknown[0].inputs["class"] == [1, 0]


def test_torus_top_vs_smooth_mixed():
    report = run("torus-top-vs-smooth")
    assert report.verdict is Verdict.MIXED
    assert report.detail == {"topological": "yes", "smooth": "no"}


def test_torus_top_vs_smooth_extends_when_smooth_side_open():
    # with J the unknot the longitudinal class carries no obstruction, so
    # only the topological conclusion stands
    report = run("torus-top-vs-smooth", knot_j="unknot")
    assert report.verdict is Verdict.EXTENDS
    assert report.detail["topological"] == "yes"
    assert report.detail["smooth"] == "undetermined"


def test_torus_top_vs_smooth_inconclusive_without_alexander_one():
    report = run("torus-top-vs-smooth", knot_k="trefoil")
    assert report.verdict is Verdict.INCONCLUSIVE


def test_twist_extension_2_3_mixed():
    report = run("twist-extension", p=2, q=3)
    assert report.verdict is Verdict.MIXED
    sub = next(t for t in report.trace if t.operation == "extension_subgroup")
    assert sub.output["index"] == 1
    assert any(t.operation.startswith("companion.") for t in report.trace)


def _count_head_builds(monkeypatch) -> list:
    """Start from an empty head memo and record each head `_torus_head` builds."""
    monkeypatch.setattr(scenarios, "_HEADS", {})
    built = []
    head = scenarios._torus_head
    monkeypatch.setattr(
        scenarios, "_torus_head", lambda n, prefix: built.append((n, prefix)) or head(n, prefix)
    )
    return built


def test_reports_at_one_framing_share_their_head_steps(monkeypatch):
    built = _count_head_builds(monkeypatch)
    a, b = run("torus-solid", n=3), run("torus-solid", n=3, knot_k="unknot")
    assert all(x is y for x, y in zip(a.trace[:5], b.trace[:5]))
    assert a.trace[5] is not b.trace[5]  # the class steps are built per report
    c = run("torus-top-vs-smooth", n=3)
    assert all(x is y for x, y in zip(a.trace[:5], c.trace[:5]))
    assert built == [(3, "")]
    # twist-extension names its companion's head "companion." where it is
    # made, at n = -1, and shares it across (p, q)
    t23, t57 = run("twist-extension", p=2, q=3), run("twist-extension", p=5, q=7)
    assert [t.operation for t in t23.trace[3:8]] == [
        f"companion.{op}"
        for op in (
            "parse_presentation", "boundary_linking_matrix", "first_homology",
            "self_linking_form", "zero_classes",
        )
    ]
    assert all(x is y for x, y in zip(t23.trace[3:8], t57.trace[3:8]))
    assert built == [(3, ""), (-1, "companion.")]
    run("torus-solid", n=3)
    run("twist-extension", p=3, q=4)
    assert built == [(3, ""), (-1, "companion.")]


def test_the_stein_steps_are_built_once_for_every_report():
    a = run("torus-top-vs-smooth")
    b = run("torus-top-vs-smooth", n=4, knot_j={"torus": [3, 5]})
    ops = ("stein_condition", "tb_rot", "slice_bennequin_genus_bound")
    steps = [next(t for t in r.trace if t.operation == op) for r in (a, b) for op in ops]
    assert steps[:3] == list(scenarios._STEIN_STEPS)
    assert all(x is y for x, y in zip(steps[:3], steps[3:]))


def test_the_head_memo_stays_within_its_bound(monkeypatch):
    built = _count_head_builds(monkeypatch)
    for n in range(-500, 500):
        report = run("torus-solid", n=n, knot_j="unknot", knot_k="unknot")
        assert report.trace[0].inputs == {"n": n}
        assert len(scenarios._HEADS) <= scenarios._HEADS_MAX
    assert len(built) == 1000
    # the heads left in the memo are those of the last framings run
    assert all(key[0] >= 500 - scenarios._HEADS_MAX for key in scenarios._HEADS)
    del built[:]
    run("torus-solid", n=499, knot_j="unknot", knot_k="unknot")
    assert built == []


@pytest.mark.parametrize(
    "unset",
    [
        ["meridian-twist-extends"],
        ["orbit-twist-extends"],
        ["meridian-twist-extends", "orbit-twist-extends"],
    ],
)
def test_twist_extension_notes_name_each_unset_flag(unset):
    # the subgroup is always full, so an unset flag is the only cause
    flags = tuple(HypothesisFlag(name, False, "test") for name in unset)
    report = run("twist-extension", p=2, q=3, flags=flags)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.detail == {"notes": [f"hypothesis flag {name} is unset" for name in unset]}


@pytest.mark.parametrize("p,q", [(-2, 3), (3, 2), (2, -5), (-3, -4)])
def test_twist_extension_negative_and_swapped_pairs_mixed(p, q):
    report = run("twist-extension", p=p, q=q)
    assert report.verdict is Verdict.MIXED
    sub = next(t for t in report.trace if t.operation == "extension_subgroup")
    assert sub.output == {"rows": [[1, 0], [0, 1]], "rank": 2, "index": 1}


def obstruction_witness_present(report) -> bool:
    """Every Obstructed trace must carry one of the four witness kinds."""
    for step in report.trace:
        out = step.output
        if step.operation.endswith("algebraic_slice_verdict") and isinstance(out, dict):
            if out.get("signature") not in (None, 0):
                return True
            fm = out.get("fox_milnor")
            if fm and fm.get("failure"):
                return True
        if step.operation.endswith("lens_qr_bounding") and isinstance(out, dict):
            if not out["bounds_b2_one_filling"]:
                return True
        if step.operation.endswith("enumerate_even_splittings"):
            if out["count"] == 0:
                return True
        if step.operation.endswith("exclude_splittings"):
            if all(row["excluded_by"] for row in out):
                return True
    return False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "sphere-lens", "p": 5, "q": 2},
        {"name": "sphere-smooth-h"},
        {"name": "sphere-smooth-e8h"},
        {"name": "torus-solid", "knot_j": "trefoil", "knot_k": "trefoil", "n": -2},
        {"name": "twist-extension", "p": 3, "q": 4},
    ],
)
def test_every_obstructed_verdict_has_a_witness(kwargs):
    report = run(**kwargs)
    assert report.verdict in (Verdict.OBSTRUCTED, Verdict.MIXED)
    assert obstruction_witness_present(report)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "sphere-lens", "p": 7, "q": 3},
        {"name": "torus-solid", "n": -1},
        {"name": "twist-extension", "p": 2, "q": 5},
    ],
)
def test_reports_are_deterministic(kwargs, fmt):
    first = render(run(**kwargs), fmt)
    second = render(run(**kwargs), fmt)
    assert first == second


def test_render_rejects_unknown_format():
    report = run("sphere-lens")
    with pytest.raises(ValueError, match="unknown report format"):
        render(report, "yaml")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "sphere-lens", "p": 5, "q": 2},
        {"name": "sphere-lens", "p": 5, "q": 1},
        {"name": "sphere-smooth-h"},
        {"name": "sphere-smooth-e8h"},
        {"name": "torus-solid", "n": 2},
        {"name": "torus-solid", "knot_j": "left-trefoil", "knot_k": "unknot", "n": 0},
        {"name": "torus-top-vs-smooth"},
        {"name": "twist-extension", "p": 2, "q": 3},
    ],
)
def test_json_reports_validate_against_schema(kwargs):
    payload = json.loads(render_json(run(**kwargs)))
    jsonschema.validate(payload, SCHEMA)


def test_flags_must_carry_provenance():
    with pytest.raises(ValueError, match="provenance"):
        HypothesisFlag("some-fact", True, "")


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        build_scenario("sphere-cube")


@pytest.mark.parametrize(
    "name, kwargs, message",
    [
        ("sphere-lens", {"p": "7"}, "parameter 'p' must be an integer, got str"),
        ("sphere-lens", {"p": 7.0}, "parameter 'p' must be an integer, got float"),
        ("torus-solid", {"n": True}, "parameter 'n' must be an integer, got bool"),
    ],
    ids=["p-str", "p-float", "n-bool"],
)
def test_library_integer_parameters_must_be_int(name, kwargs, message):
    with pytest.raises(ScenarioError) as exc:
        build_scenario(name, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "scenario, message",
    [
        (Scenario("sphere-lens"), "scenario 'sphere-lens' is missing parameter 'p'"),
        (Scenario("sphere-smooth-h"), "scenario 'sphere-smooth-h' is missing flag 'rho-y1'"),
        (Scenario("torus-solid"), "scenario 'torus-solid' is missing parameter 'n'"),
        (Scenario("nope"), "unknown scenario 'nope'; expected one of " + ", ".join(SCENARIO_NAMES)),
        (Scenario("sphere-lens", p="7", q=2), "parameter 'p' must be an integer, got str"),
        (Scenario("twist-extension", p=2.0, q=3), "parameter 'p' must be an integer, got float"),
        (
            Scenario("torus-solid", n=1, knot_j="trefoil", knot_k="trefoil"),
            "parameter 'knot_j' must be a Knot, got str",
        ),
    ],
    ids=["sphere-lens", "sphere-smooth-h", "torus-solid", "nope", "p-str", "p-float", "knot-str"],
)
def test_run_scenario_names_what_a_hand_made_scenario_lacks(scenario, message):
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario)
    assert str(exc.value) == message


def test_scenario_parameters_echoed():
    report = run("torus-solid", knot_j="trefoil", knot_k="figure-eight", n=2)
    data = report_to_json_dict(report)
    assert data["scenario"]["parameters"]["knot_j"] == "trefoil"
    assert data["scenario"]["knots"]["knot_k"]["seifert"] == [{"0": -1, "1": 1}, {"1": 1}]


# ---- CLI ----


def test_cli_report_text(capsys):
    assert main(["report", "--scenario", "sphere-lens", "--p", "5", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Obstructed" in out
    assert "{5^1:4, 5^1:4}" in out


def test_cli_exit_zero_on_not_obstructed(capsys):
    assert main(["report", "--scenario", "sphere-lens", "--p", "5", "--q", "1"]) == 0
    assert "verdict: NotObstructed" in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert (
        main(["report", "--scenario", "twist-extension", "--format", "json"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["verdict"] == "Mixed"


def test_cli_knot_specs(capsys):
    code = main(
        [
            "report",
            "--scenario",
            "torus-solid",
            "--knot-j",
            '{"torus": [2, 5]}',
            "--knot-k",
            "trefoil",
            "--n",
            "1",
        ]
    )
    assert code == 0
    assert "verdict: Obstructed" in capsys.readouterr().out


def test_cli_error_on_bad_knot(capsys):
    assert main(["report", "--scenario", "torus-solid", "--knot-j", "granny"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys, monkeypatch):
    config = {
        "scenario": "sphere-lens",
        "p": 13,
        "q": 5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["report", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p=13" in out

    monkeypatch.setenv("DEHN4_CONFIG_DIR", str(tmp_path))
    assert main(["report", "--config", "scenario.json"]) == 0


def test_sphere_smooth_h_open_when_rho_constraints_relax():
    flags = (
        HypothesisFlag("rho-y1", False, "test input"),
        HypothesisFlag("rho-y2", False, "test input"),
    )
    assert run("sphere-smooth-h", flags=flags).verdict is Verdict.NOT_OBSTRUCTED


def test_cli_config_knot_objects(tmp_path, capsys):
    path = tmp_path / "knots.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "torus-solid",
                "n": 2,
                "knot_j": {"torus": [2, 5]},
                "knot_k": {"name": "wd", "whitehead": "+"},
            }
        )
    )
    assert main(["report", "--config", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["parameters"]["knot_j"] == "torus(2,5)"
    assert payload["scenario"]["knots"]["knot_k"]["name"] == "wd"


def test_cli_flags_override_config(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"scenario": "sphere-lens", "p": 5, "q": 2}))
    assert main(["report", "--config", str(path), "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "q=1" in out
    assert "verdict: NotObstructed" in out


def test_cli_config_unknown_field_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "sphere-lens", "frobnicate": 1}))
    assert main(["report", "--config", str(path)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_cli_config_flag_provenance_required(tmp_path, capsys):
    path = tmp_path / "flags.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "sphere-smooth-h",
                "flags": [{"name": "rho-y1", "value": True}],
            }
        )
    )
    assert main(["report", "--config", str(path)]) == 1
    assert "provenance" in capsys.readouterr().err


def test_cli_requires_scenario(capsys):
    assert main(["report"]) == 1
    assert "no scenario" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def _config_error(tmp_path, capsys, config) -> str:
    """Run the CLI on a config that must be rejected; return its one error line."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["report", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dehn4: error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("field", ["p", "q", "n"])
@pytest.mark.parametrize("value", ["7", 7.0, True, False, None, [7], {"p": 7}])
def test_cli_config_rejects_non_integer_parameters(tmp_path, capsys, field, value):
    config = {"scenario": "sphere-lens", "p": 7, "q": 3, field: value}
    line = _config_error(tmp_path, capsys, config)
    assert f"config field '{field}' must be an integer" in line


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_cli_config_rejects_non_boolean_flag_value(tmp_path, capsys, value):
    flags = [
        {"name": "rho-y2", "value": True, "provenance": "test input"},
        {"name": "rho-y1", "value": value, "provenance": "test input"},
    ]
    line = _config_error(tmp_path, capsys, {"scenario": "sphere-smooth-h", "flags": flags})
    assert "config field 'flags[1].value' must be true or false" in line


@pytest.mark.parametrize("field", ["name", "provenance"])
def test_cli_config_rejects_non_string_flag_text(tmp_path, capsys, field):
    flag = {"name": "rho-y1", "value": True, "provenance": "test input", field: None}
    line = _config_error(tmp_path, capsys, {"scenario": "sphere-smooth-h", "flags": [flag]})
    assert f"config field 'flags[0].{field}' must be a string, got null" in line


def test_cli_config_rejects_non_array_flags(tmp_path, capsys):
    line = _config_error(tmp_path, capsys, {"scenario": "sphere-smooth-h", "flags": 5})
    assert "config field 'flags' must be an array" in line


# deep enough to exhaust the JSON decoder's recursion limit on any Python version
_DEEP = 50_000


def test_cli_config_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * _DEEP + "]" * _DEEP)
    assert main(["report", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: config file {path} is not valid JSON: nested too deeply"
    ]


def test_cli_config_directory_is_one_error_line(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: config file {tmp_path} cannot be read: {os.strerror(errno.EISDIR)}"
    ]


def test_cli_config_path_with_a_line_break_is_quoted(tmp_path, capsys):
    missing = str(tmp_path / "no\nsuch.json")
    assert main(["report", "--config", missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"dehn4: error: config file not found: {missing!r}"]


def test_cli_config_directory_with_a_line_break_is_quoted(tmp_path, capsys):
    folder = tmp_path / "a\nfolder"
    folder.mkdir()
    assert main(["report", "--config", str(folder)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: config file {str(folder)!r} cannot be read: "
        f"{os.strerror(errno.EISDIR)}"
    ]


def test_cli_config_not_utf8_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["report", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"dehn4: error: config file {path} is not UTF-8 text"]


@pytest.mark.parametrize("param", ["knot_j", "knot_k"])
def test_cli_knot_json_nested_too_deeply(capsys, param):
    spec = '{"seifert": [[' + "[" * _DEEP + "]" * _DEEP + "]]}"
    flag = "--" + param.replace("_", "-")
    assert main(["report", "--scenario", "torus-solid", flag, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: {param}: invalid knot JSON: nested too deeply"
    ]


@pytest.fixture
def digit_limit():
    """The int(str) digit limit, pinned to its default of 4300 for the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no integer digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_cli_config_integer_over_the_digit_limit(tmp_path, capsys, digit_limit):
    path = tmp_path / "big.json"
    path.write_text('{"scenario": "sphere-lens", "p": 1' + "0" * digit_limit + "}")
    assert main(["report", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: config file {path} is not valid JSON: "
        f"an integer exceeds the limit of {digit_limit} digits"
    ]


@pytest.mark.parametrize("param", ["knot_j", "knot_k"])
def test_cli_knot_json_integer_over_the_digit_limit(capsys, digit_limit, param):
    spec = '{"twist": 1' + "0" * digit_limit + "}"
    flag = "--" + param.replace("_", "-")
    assert main(["report", "--scenario", "torus-solid", flag, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"dehn4: error: {param}: invalid knot JSON: "
        f"an integer exceeds the limit of {digit_limit} digits"
    ]


def test_cli_digit_limit_message_without_the_getter(capsys, digit_limit, monkeypatch):
    # early 3.10 releases enforce no limit and lack sys.get_int_max_str_digits
    spec = '{"twist": 1' + "0" * digit_limit + "}"
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert main(["report", "--scenario", "torus-solid", "--knot-j", spec]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "dehn4: error: knot_j: invalid knot JSON: an integer exceeds the digit limit"
    ]


def test_cli_config_false_flag_is_kept_false(tmp_path, capsys):
    path = tmp_path / "flags.json"
    flags = [
        {"name": "rho-y1", "value": False, "provenance": "test input"},
        {"name": "rho-y2", "value": False, "provenance": "test input"},
    ]
    path.write_text(json.dumps({"scenario": "sphere-smooth-h", "flags": flags}))
    assert main(["report", "--config", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["value"] for f in payload["scenario"]["flags"]] == [False, False]
    assert payload["verdict"] == "NotObstructed"


def _cli_error(capsys, argv) -> str:
    """Run the CLI on arguments that must be rejected; return its one error line."""
    assert main(["report", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dehn4: error: "), captured.err
    return lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scenario", "sphere-lens", "--n", "9"],
         "scenario 'sphere-lens' takes no parameter 'n'; it takes p, q"),
        (["--scenario", "twist-extension", "--knot-j", "trefoil"],
         "scenario 'twist-extension' takes no parameter 'knot_j'; it takes p, q"),
        (["--scenario", "sphere-smooth-h", "--p", "5"],
         "scenario 'sphere-smooth-h' takes no parameter 'p'; it takes none"),
        (["--scenario", "torus-solid", "--q", "2"],
         "scenario 'torus-solid' takes no parameter 'q'; it takes n, knot_j, knot_k"),
    ],
)
def test_parameter_the_scenario_does_not_take_is_rejected(capsys, argv, message):
    assert _cli_error(capsys, argv) == f"dehn4: error: {message}"


def _torus_pair_message(p, q):
    return (
        "parameters 'p' and 'q' must be those of a nontrivial torus knot "
        f"(coprime, each at least 2 in absolute value), got ({p}, {q})"
    )


@pytest.mark.parametrize("p, q", [(2, 4), (1, 3), (0, 5)])
def test_twist_extension_refuses_a_pair_of_no_nontrivial_torus_knot(capsys, p, q):
    assert _cli_error(capsys, ["--scenario", "twist-extension", "--p", str(p), "--q", str(q)]) == (
        f"dehn4: error: {_torus_pair_message(p, q)}"
    )


@pytest.mark.parametrize("p, q", [(2, 4), (-3, 6), (1, 3), (-1, 3), (0, 5), (5, 0), (7, -7)])
def test_build_scenario_refuses_a_twist_pair_naming_p_and_q(p, q):
    with pytest.raises(ScenarioError) as built:
        build_scenario("twist-extension", p=p, q=q)
    assert str(built.value) == _torus_pair_message(p, q)
    # a record made otherwise is refused by the run, with the same message
    flags = build_scenario("twist-extension").flags
    with pytest.raises(ScenarioError) as ran:
        run_scenario(Scenario("twist-extension", p=p, q=q, flags=flags))
    assert str(ran.value) == str(built.value)


def test_sphere_lens_checks_q_before_factoring_p(monkeypatch):
    def factor_must_not_run(n):
        raise AssertionError("p was factored before q was checked")

    monkeypatch.setattr("dehn4.forms.factor", factor_must_not_run)
    with pytest.raises(ValueError, match="0 < q < p"):
        run("sphere-lens", p=2_000_000, q=2_000_000)


def test_sphere_lens_factors_p_once(monkeypatch):
    calls = []
    real_factor = forms.factor
    monkeypatch.setattr("dehn4.forms.factor", lambda n: calls.append(n) or real_factor(n))
    for fmt in ("text", "json"):
        render(run("sphere-lens", p=37800, q=11), fmt)
    assert calls == [37800, 37800]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sphere_lens_memory_does_not_grow_with_p(fmt):
    """build + run + render at p = 10^9 + 7 allocates less than 1 MiB at its peak:
    no structure of size O(p) is built."""
    tracemalloc.start()
    try:
        render(run("sphere-lens", p=10**9 + 7, q=2), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"torus": ["3", "5"]}, "field 'torus[0]' must be an integer, got \"3\""),
        ({"torus": [3, True]}, "field 'torus[1]' must be an integer, got true"),
        ({"torus": 5}, "field 'torus' must be an array of two integers, got 5"),
        ({"torus": [2, 3, 5]}, "field 'torus' must be an array of two integers"),
        ({"twist": 2.7}, "field 'twist' must be an integer, got 2.7"),
        ({"twist": False}, "field 'twist' must be an integer, got false"),
        ({"seifert": [[-1.5, 1], [0, -1]]}, "field 'seifert[0][0]' must be an integer, got -1.5"),
        ({"seifert": 3}, "field 'seifert' must be an array of arrays of integers, got 3"),
        ({"seifert": [1, 2]}, "field 'seifert' must be an array of arrays of integers"),
        ({"name": 7, "torus": [2, 3]}, "field 'name' must be a string, got 7"),
        ({"name": None}, "field 'name' must be a string, got null"),
        ({"whitehead": 5}, "field 'whitehead' must be \"+\" or \"-\", got 5"),
        ({"whitehead": ["+"]}, "field 'whitehead' must be \"+\" or \"-\", got [\"+\"]"),
        ({"whitehead": "x"}, "field 'whitehead' must be \"+\" or \"-\", got \"x\""),
    ],
)
@pytest.mark.parametrize("param", ["knot_j", "knot_k"])
def test_cli_rejects_ill_typed_knot_spec(capsys, param, spec, message):
    line = _cli_error(capsys, ["--scenario", "torus-solid", f"--{param.replace('_', '-')}",
                               json.dumps(spec)])
    assert line.startswith(f"dehn4: error: {param}: knot spec {message}"), line


def test_flag_the_scenario_does_not_read_is_rejected():
    flags = (HypothesisFlag("rho-y1", True, "test input"),)
    with pytest.raises(
        ScenarioError,
        match="scenario 'torus-solid' reads no flag 'rho-y1'; its flags are torus-incompressible",
    ):
        build_scenario("torus-solid", flags=flags)
    with pytest.raises(ScenarioError, match="its flags are none"):
        build_scenario("sphere-lens", flags=flags)


def test_flag_given_twice_is_rejected():
    flags = (
        HypothesisFlag("rho-y1", False, "test input"),
        HypothesisFlag("rho-y1", True, "test input"),
    )
    with pytest.raises(ScenarioError, match="flag 'rho-y1' is given twice"):
        build_scenario("sphere-smooth-h", flags=flags)


def test_omitted_flags_keep_their_defaults():
    defaults = build_scenario("sphere-smooth-e8h").flags
    assert [f.name for f in defaults][:2] == ["rho-y1", "rho-y2"]
    given = HypothesisFlag("rho-y1", True, "test input")
    scenario = build_scenario("sphere-smooth-e8h", flags=(given,))
    assert scenario.flags == (given, *defaults[1:])
    report = run_scenario(scenario)
    assert report.trace[1].inputs == {"side": 2, "rho": 0}
    assert report.detail["witness"] == "every splitting in the enumeration is excluded"
    # given flags take the places of their defaults, whatever their order
    later = HypothesisFlag("no-acyclic-filling-y2", False, "test input")
    assert build_scenario("sphere-smooth-e8h", flags=(later, given)).flags == (
        given, *defaults[1:3], later,
    )


@pytest.mark.parametrize(
    "name, params",
    [
        *((name, {}) for name in SCENARIO_NAMES),
        ("torus-solid", {"n": 0, "knot_k": "unknot"}),  # torus-incompressible false
        ("twist-extension", {"p": -5, "q": 7}),
    ],
)
def test_default_flags_are_built_once_and_kept(monkeypatch, name, params):
    """A scenario's default flags are built once, at import: a build
    returns the same flag objects and checks no provenance."""
    first = build_scenario(name, **params).flags
    calls = []
    real = scenarios.is_single_line
    monkeypatch.setattr(scenarios, "is_single_line", lambda text: calls.append(text) or real(text))
    second = build_scenario(name, **params).flags
    assert second == first and all(a is b for a, b in zip(second, first))
    assert calls == []


def test_torus_solid_keeps_one_flag_tuple_per_value():
    on = build_scenario("torus-solid").flags
    off = build_scenario("torus-solid", n=0, knot_k="unknot").flags
    assert [f.value for f in on + off] == [True, False]
    assert build_scenario("torus-solid", n=5, knot_k="figure-eight").flags is on
    assert build_scenario("torus-solid", n=0, knot_j="trefoil", knot_k="unknot").flags is off


@pytest.mark.parametrize(
    "name, flags",
    [
        ("sphere-smooth-h", []),
        ("sphere-smooth-e8h", [{"name": "rho-y1", "value": True, "provenance": "test input"}]),
        ("torus-top-vs-smooth",
         [{"name": "torus-incompressible", "value": True, "provenance": "test input"}]),
        ("twist-extension", []),
    ],
)
def test_cli_config_lists_every_flag_the_report_reads(tmp_path, capsys, name, flags):
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({"scenario": name, "flags": flags}))
    assert main(["report", "--config", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["report", "--scenario", name, "--format", "json"]) == 0
    default = json.loads(capsys.readouterr().out)
    listed = payload["scenario"]["flags"]
    assert [(f["name"], f["value"]) for f in listed] == [
        (f["name"], f["value"]) for f in default["scenario"]["flags"]
    ]
    assert payload["trace"] == default["trace"]
    assert payload["verdict"] == default["verdict"]


FORGED = {
    "forged-verdict-line": "st\nverdict: Obstructed",
    "cr": "a\rb",
    "crlf": "a\r\nb",
    "vertical-tab": "a\x0bb",
    "next-line": "a\x85b",
    "line-separator": "a\u2028b",
    "tab": "tab\tb",
    "nul": "nul\x00",
}


@pytest.mark.parametrize("text", FORGED.values(), ids=FORGED.keys())
def test_knot_name_with_line_break_or_control_character_is_rejected(capsys, text):
    spec = json.dumps({"twist": 2, "name": text})
    line = _cli_error(capsys, ["--scenario", "torus-solid", "--knot-j", spec])
    assert line.startswith(
        "dehn4: error: knot_j: knot spec field 'name' must be a string "
        "without line breaks or control characters, got "
    )


@pytest.mark.parametrize("text", FORGED.values(), ids=FORGED.keys())
def test_provenance_with_line_break_or_control_character_is_rejected(tmp_path, capsys, text):
    flag = {"name": "rho-y1", "value": True, "provenance": text}
    line = _config_error(tmp_path, capsys, {"scenario": "sphere-smooth-h", "flags": [flag]})
    assert line.startswith(
        "dehn4: error: hypothesis flag 'rho-y1': provenance must not contain "
        "line breaks or control characters, got "
    )


def test_knot_name_and_provenance_may_hold_other_text():
    knot = {"twist": 2, "name": "Stevedore 6₁ (twist 2)"}
    flag = HypothesisFlag("rho-y1", True, "Rokhlin, 1952: μ = 1")
    assert "knot_j=Stevedore 6₁ (twist 2)" in render_text(run("torus-solid", knot_j=knot))
    assert build_scenario("sphere-smooth-h", flags=(flag,)).flags[0] is flag


def test_is_single_line_rejects_exactly_the_old_patterns_code_points():
    """is_single_line tests a set of code points, not a pattern; on every
    code point it agrees with the pattern it replaced, which is Unicode's
    Cc, Zl and Zp."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    rejected = {c for c in text if not scenarios.is_single_line(c)}
    assert rejected == set(re.findall("[\x00-\x1f\x7f-\x9f\u2028\u2029]", text))
    assert rejected == {c for c in text if unicodedata.category(c) in ("Cc", "Zl", "Zp")}
    assert len(rejected) == 67


@pytest.mark.parametrize(
    "name, params",
    [
        ("torus-solid", {}),
        ("torus-solid", {"n": 0, "knot_k": "unknot"}),  # the flag is false by default
        ("torus-top-vs-smooth", {}),
    ],
)
def test_torus_incompressible_changes_only_its_own_line(name, params):
    """torus-incompressible records Gabai's fact; no verdict reads it, so
    flipping it changes its [x]/[ ] line in text and its value in JSON."""
    default = build_scenario(name, **params)
    (flag,) = [f for f in default.flags if f.name == "torus-incompressible"]
    flipped = build_scenario(name, **params, flags=(flag._replace(value=not flag.value),))
    before, after = run_scenario(default), run_scenario(flipped)
    changed = [
        (a, b)
        for a, b in zip(render_text(before).splitlines(), render_text(after).splitlines(), strict=True)
        if a != b
    ]
    marks = ("[x]", "[ ]") if flag.value else ("[ ]", "[x]")
    assert changed == [tuple(f"  {mark} torus-incompressible" for mark in marks)]
    expected = report_to_json_dict(before)
    for entry in expected["scenario"]["flags"]:
        if entry["name"] == "torus-incompressible":
            entry["value"] = not flag.value
    assert report_to_json_dict(after) == expected


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("scenario", ["sphere-lens"], "a string, got array"),
        ("knot_j", None, "a string or an object, got null"),
        ("knot_k", 5, "a string or an object, got number"),
    ],
)
def test_cli_config_rejects_ill_typed_scenario_and_knots(tmp_path, capsys, field, value, expected):
    config = {"scenario": "torus-solid", field: value}
    line = _config_error(tmp_path, capsys, config)
    assert line == f"dehn4: error: config field {field!r} must be {expected}"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_docs_list_the_parameters_and_flags_of_each_scenario(name):
    scenario = build_scenario(name)
    readme = (ROOT / "README.md").read_text().split(f"* `{name}`:")[1].split("\n\n")[0]
    readme = readme.split("\n* ")[0]
    usage = cli.__doc__.split(f"\n  {name} ")[1].split("\n\n")[0]
    usage = re.split(r"\n  [a-z]", usage)[0]
    for param, value in scenario.parameters().items():
        assert f"`{param}` ({value})" in " ".join(readme.split())
        assert f"{param} ({value})" in usage
    for flag in scenario.flags:
        assert f"`{flag.name}`" in readme
        assert flag.name in usage


def test_readme_layout_lists_every_module():
    layout = (ROOT / "README.md").read_text().split("## Library layout")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `dehn4\.(\w+)` ", layout, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "dehn4").glob("*.py")} - {"__init__"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules
