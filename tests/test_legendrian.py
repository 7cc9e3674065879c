import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    FrontData,
    load_named_fronts,
    rot,
    slice_bennequin_genus_bound,
    smooth_side_steps,
    stein_condition,
    tb,
)
from dehn4.scenarios import build_scenario, run_scenario


def test_standard_legendrian_unknot():
    front = FrontData(writhe=0, down_cusps=1, up_cusps=1)
    assert tb(front) == -1
    assert rot(front) == 0


def test_fixture_reproduces_target_invariants():
    fronts, _ = load_named_fronts()
    assert tb(fronts["handle-1"]) == 0
    assert tb(fronts["handle-2"]) == 1
    assert tb(fronts["alpha"]) == 0
    assert rot(fronts["alpha"]) == 0
    assert tb(fronts["unknot-max-tb"]) == -1


def test_rot_examples():
    assert rot(FrontData(0, 1, 1)) == 0
    assert rot(FrontData(0, 3, 1)) == 1


def test_front_validation():
    with pytest.raises(ValueError, match="even number"):
        FrontData(writhe=0, down_cusps=1, up_cusps=0)
    with pytest.raises(ValueError, match="even number"):
        FrontData(writhe=0, down_cusps=2, up_cusps=1)
    with pytest.raises(ValueError, match="nonnegative"):
        FrontData(writhe=0, down_cusps=-1, up_cusps=3)


@pytest.mark.parametrize(
    "fields, bad",
    [
        ((1.5, 1, 1), "writhe"),
        ((True, 1, 1), "writhe"),
        ((0, 1.0, 1), "down_cusps"),
        ((0, 1, "1"), "up_cusps"),
    ],
)
def test_front_rejects_non_integer_fields(fields, bad):
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        FrontData(*fields)


def test_stein_condition_paper_handles():
    fronts, framings = load_named_fronts()
    ok, checks = stein_condition(
        [
            ("handle-1", framings["handle-1"], fronts["handle-1"]),
            ("handle-2", framings["handle-2"], fronts["handle-2"]),
        ]
    )
    assert ok
    assert [c.satisfied for c in checks] == [True, True]
    assert framings == {"handle-1": -1, "handle-2": 0}


def test_stein_condition_failure_and_vacuous():
    fronts, _ = load_named_fronts()
    ok, checks = stein_condition([("handle-1", 0, fronts["handle-1"])])
    assert not ok
    assert checks[0].name == "handle-1"
    assert checks[0].tb == 0 and checks[0].framing == 0
    ok_empty, empty = stein_condition([])
    assert ok_empty and empty == ()


def test_stein_condition_monotone_under_concatenation():
    fronts, _ = load_named_fronts()
    good = ("a", -1, fronts["handle-1"])
    bad = ("b", 5, fronts["handle-1"])
    assert stein_condition([good])[0]
    assert not stein_condition([good, bad])[0]
    assert not stein_condition([bad])[0]


def test_slice_bennequin_examples():
    assert slice_bennequin_genus_bound(0, 0) == 1
    assert slice_bennequin_genus_bound(-1, 0) == 0
    assert slice_bennequin_genus_bound(3, 2) == 3


@given(tb_value=st.integers(-10, 10), rot_value=st.integers(-10, 10))
def test_slice_bennequin_symmetry_and_minimality(tb_value, rot_value):
    g = slice_bennequin_genus_bound(tb_value, rot_value)
    assert g == slice_bennequin_genus_bound(tb_value, -rot_value)
    assert g >= 0
    if g > 0:
        # minimal: g works, g - 1 does not
        assert tb_value + abs(rot_value) <= 2 * g - 1
        assert tb_value + abs(rot_value) > 2 * (g - 1) - 1


@given(
    writhe=st.integers(-6, 6),
    down=st.integers(0, 6),
    up=st.integers(0, 6),
    positive=st.booleans(),
)
def test_stabilization_drops_tb_and_shifts_rot(writhe, down, up, positive):
    if (down + up) % 2 != 0:
        up += 1
    if down + up == 0:
        down, up = 1, 1
    front = FrontData(writhe, down, up)
    # one zigzag adds two cusps of one kind
    stabbed = FrontData(writhe, down + 2, up) if positive else FrontData(writhe, down, up + 2)
    assert tb(stabbed) == tb(front) - 1
    assert abs(rot(stabbed) - rot(front)) == 1
    assert tb(stabbed) + abs(rot(stabbed)) <= tb(front) + abs(rot(front))


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"n": 1},
        {"n": -3},
        {"knot_j": "unknot"},
        {"knot_k": "trefoil"},
        {"knot_j": {"torus": [3, 4]}},
    ],
)
def test_smooth_side_trace_steps_match_the_oracle(params):
    """torus-top-vs-smooth writes its smooth side as literal steps; the
    Legendrian layer derives the same steps from the named fronts, and no
    parameter moves them."""
    trace = run_scenario(build_scenario("torus-top-vs-smooth", **params)).trace
    ops = [t.operation for t in trace]
    start = ops.index("stein_condition")
    assert [tuple(t) for t in trace[start : start + 3]] == smooth_side_steps()
