from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import extension_subgroup, seifert_orbit_class, to_alpha_beta, twist_steps
from dehn4.scenarios import Verdict, _run_torus_solid, build_scenario, run_scenario


def to_mu_lambda(c):
    """Inverse of to_alpha_beta (mu = alpha, lambda = beta - alpha), the
    round-trip oracle."""
    x, y = c
    return (x + y, y)


def test_orbit_class_examples():
    assert seifert_orbit_class(2, 3) == (6, 1)
    assert seifert_orbit_class(3, 5) == (15, 1)
    for p, q in ((2, 3), (2, 5), (3, 4), (4, 5), (5, 6)):
        x, y = seifert_orbit_class(p, q)
        assert gcd(abs(x), abs(y)) == 1


def test_orbit_class_validation():
    with pytest.raises(ValueError):
        seifert_orbit_class(2, 4)
    with pytest.raises(ValueError):
        seifert_orbit_class(1, 3)


def test_to_alpha_beta_examples():
    assert to_alpha_beta((6, 1)) == (5, 1)
    assert to_alpha_beta((1, 0)) == (1, 0)


@given(x=st.integers(-20, 20), y=st.integers(-20, 20))
def test_basis_change_round_trip(x, y):
    assert to_mu_lambda(to_alpha_beta((x, y))) == (x, y)
    assert to_alpha_beta(to_mu_lambda((x, y))) == (x, y)


def test_extension_subgroup_full_for_torus_knot_generators():
    assert extension_subgroup((1, 0), (5, 1)) == 1
    for p, q in ((2, 3), (-2, 3), (3, 2), (2, -5), (-3, -4), (8, 9)):
        assert extension_subgroup((1, 0), to_alpha_beta(seifert_orbit_class(p, q))) == 1


def test_extension_subgroup_vertical_generators():
    # dependent generators span a rank-1 subgroup, of infinite index
    assert extension_subgroup((0, 4), (0, -6)) == 0


def test_index_is_the_same_for_two_bases_of_one_subgroup():
    # (2, 4) = (2, 1) + (0, 3), so both pairs generate the same subgroup
    assert extension_subgroup((2, 1), (0, 3)) == 6
    assert extension_subgroup((2, 4), (0, -3)) == 6


@given(
    v1=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    v2=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_index_is_absolute_determinant(v1, v2):
    det = v1[0] * v2[1] - v1[1] * v2[0]
    assert extension_subgroup(v1, v2) == abs(det)


def test_twist_trace_steps_match_the_oracle():
    """twist-extension writes its first three steps from p and q; the
    twist layer derives the same steps from the orbit class."""
    pairs = [(p, q) for p in range(2, 12) for q in range(p + 1, 13) if gcd(p, q) == 1]
    assert len(pairs) == 34
    for p, q in pairs:
        trace = run_scenario(build_scenario("twist-extension", p=p, q=q)).trace
        assert [tuple(t) for t in trace[:3]] == twist_steps(p, q), (p, q)


def test_the_companion_steps_and_verdict_are_those_of_the_public_torus_solid_path():
    """twist-extension builds its companion torus-solid record itself; the
    oracle is the record that build_scenario makes from the specs
    {"torus": [p, q]} and "unknot" at n = -1, run the same way."""
    pairs = [
        (sp * p, sq * q)
        for p in range(2, 13)
        for q in range(2, 13)
        if gcd(p, q) == 1
        for sp in (1, -1)
        for sq in (1, -1)
    ]
    assert len(pairs) == 4 * 2 * 34
    for p, q in pairs:
        report = run_scenario(build_scenario("twist-extension", p=p, q=q))
        companion = build_scenario("torus-solid", n=-1, knot_j={"torus": [p, q]}, knot_k="unknot")
        trace, verdict, _ = _run_torus_solid(companion)
        expected = [(f"companion.{t.operation}", t.inputs, t.output) for t in trace]
        assert [tuple(t) for t in report.trace[3:]] == expected, (p, q)
        assert report.verdict is {
            Verdict.OBSTRUCTED: Verdict.MIXED,
            Verdict.INCONCLUSIVE: Verdict.EXTENDS,
        }[verdict], (p, q)
