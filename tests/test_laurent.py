from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import evaluate
from dehn4.laurent import LaurentPoly


def lp(d):
    return LaurentPoly(d)


def test_construction_drops_zeros_and_merges():
    p = LaurentPoly([(1, 2), (1, -2), (0, 3)])
    assert p == lp({0: 3})
    assert lp({}).is_zero()
    assert LaurentPoly.one().is_one()


@pytest.mark.parametrize(
    "coeffs, exp",
    [
        ({0: 2.7}, "0"),
        ({1.9: 1}, "1.9"),
        ({1: True}, "1"),
        ({False: 1}, "False"),
        ([(2, "3")], "2"),
    ],
)
def test_construction_rejects_non_integers(coeffs, exp):
    with pytest.raises(ValueError, match=f"exponent {exp} "):
        LaurentPoly(coeffs)


def test_arithmetic():
    p = lp({1: 1, 0: -1})
    q = lp({-1: 1, 0: 1})
    assert p * q == lp({1: 1, -1: -1})


def test_evaluate_exact_rationals():
    p = lp({2: 1, 0: -1, -2: 1})
    assert evaluate(p, 2) == Fraction(4) - 1 + Fraction(1, 4)
    assert evaluate(p, Fraction(1, 2)) == evaluate(p, 2)


def per_term_value(p, t):
    """The value at t as a sum of one Fraction power per term."""
    return sum((c * Fraction(t) ** e for e, c in p.coeffs.items()), Fraction(0))


@given(
    st.dictionaries(st.integers(-9, 9), st.integers(-5, 5), max_size=6),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]),
)
def test_evaluate_matches_the_per_term_sum(coeffs, t):
    p = lp(coeffs)
    value = evaluate(p, t)
    assert type(value) is Fraction
    assert value == per_term_value(p, t)


def test_substitution_and_reciprocal():
    p = lp({1: 1, 0: -1, -1: 1})
    assert p.substituted(3) == lp({3: 1, 0: -1, -3: 1})
    assert p.substituted(-1) == p
    assert p.reciprocal() == p
    with pytest.raises(ValueError):
        p.substituted(0)


def test_normalized_centers_and_fixes_sign():
    raw = lp({2: -1, 1: 3, 0: -1})  # figure-eight determinant, uncentered
    norm = raw.normalized()
    assert norm == lp({1: -1, 0: 3, -1: -1})
    assert evaluate(norm, 1) == 1
    flipped = lp({1: 2, 0: -5, -1: 2})  # value -1 at t = 1
    assert flipped.normalized() == lp({1: -2, 0: 5, -1: -2})


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), min_size=1, max_size=5),
    st.integers(-3, 3),
    st.sampled_from([1, -1]),
)
def test_normalized_reads_the_value_at_one_like_evaluate(coeffs, shift, unit):
    """normalized takes the value at t = 1 as the integer sum of the
    coefficients; evaluate, over Fractions, is the oracle."""
    f = lp(coeffs)
    assume(not f.is_zero())
    p = (f * f.reciprocal()).shifted(2 * shift) * lp({0: unit})  # palindromic, even span
    at_one = evaluate(p, 1)
    if abs(at_one) != 1:
        with pytest.raises(ValueError, match=f"value at t=1 is {at_one}, expected"):
            p.normalized()
        return
    norm = p.normalized()
    assert evaluate(norm, 1) == 1
    assert norm == (p * lp({0: int(at_one)})).shifted(-2 * shift)


def test_normalized_rejects_bad_input():
    with pytest.raises(ValueError, match="zero polynomial"):
        LaurentPoly().normalized()
    with pytest.raises(ValueError, match="palindromic"):
        lp({1: 2, 0: 1}).normalized()
    with pytest.raises(ValueError, match="odd span"):
        lp({1: 1, 0: 2, -1: 2, -2: 1}).normalized()
    with pytest.raises(ValueError, match="expected"):
        lp({1: 1, 0: 1, -1: 1}).normalized()


def coeff_palindromic(p: LaurentPoly) -> bool:
    """The mirror rule read term by term: each coefficient equals the one
    at its mirror exponent about the center, 0 where there is no term."""
    coeffs = p.coeffs
    if not coeffs:
        return True
    center = min(coeffs) + max(coeffs)
    return all(coeffs.get(center - e, 0) == c for e, c in coeffs.items())


@st.composite
def sparse_polys(draw):
    """Random sparse polynomials, and ones whose support is symmetric about
    a random center with mirrored coefficients drawn equal or independently."""
    exps = draw(st.sets(st.integers(-12, 12), max_size=8))
    nonzero = st.integers(-3, 3).filter(bool)
    shape = draw(st.sampled_from(["random", "symmetric-support", "palindrome"]))
    if shape == "random":
        return lp({e: draw(nonzero) for e in exps})
    total = draw(st.integers(-10, 10))
    terms = {}
    for e in sorted(exps):
        terms[e] = draw(nonzero)
        terms[total - e] = terms[e] if shape == "palindrome" else draw(nonzero)
    return lp(terms)


@given(sparse_polys())
def test_is_palindromic_matches_the_mirror_rule(p):
    assert p.is_palindromic() == coeff_palindromic(p)


def test_is_palindromic_needs_equal_mirrored_coefficients():
    assert lp({-1: 2, 0: -3, 1: 2}).is_palindromic()
    assert lp({0: 1, 3: 1}).is_palindromic()
    assert not lp({0: 1, 2: 1, 4: 2}).is_palindromic()
    assert not lp({0: 1, 1: 1, 3: 1}).is_palindromic()


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(lp({1: 1, 0: -1, -1: 1})) == "t - 1 + t^-1"
    assert str(lp({2: -3})) == "-3*t^2"


@given(
    st.dictionaries(st.integers(-5, 5), st.integers(-6, 6), max_size=5),
    st.dictionaries(st.integers(-5, 5), st.integers(-6, 6), max_size=5),
)
def test_multiplication_commutes_and_evaluates(c1, c2):
    p, q = lp(c1), lp(c2)
    assert p * q == q * p
    assert evaluate(p * q, 3) == evaluate(p, 3) * evaluate(q, 3)


def built_term_by_term(terms):
    """The polynomial of (exponent, coefficient) terms, like terms added one
    at a time into a dict, zeros dropped."""
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=6),
    st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=6),
    st.integers(-9, 9),
    st.integers(-4, 4).filter(bool),
)
def test_products_shifts_and_substitutions_equal_the_polynomial_built_term_by_term(c1, c2, k, n):
    """The arithmetic builds its result from a dict through the one
    constructor; it equals the LaurentPoly of the same terms, given as
    (exponent, coefficient) pairs, and keeps the canonical form: exponents
    increasing and no zero coefficient."""
    p, q = lp(c1), lp(c2)
    cases = [
        (p * q, [(e1 + e2, a * b) for e1, a in c1.items() for e2, b in c2.items()]),
        (p.shifted(k), [(e + k, c) for e, c in c1.items()]),
        (p.substituted(n), [(e * n, c) for e, c in c1.items()]),
        (-p, [(e, -c) for e, c in c1.items()]),
    ]
    for result, terms in cases:
        assert result == LaurentPoly(terms) == lp(built_term_by_term(terms))
        assert result.coeffs == built_term_by_term(terms)
        exps = [e for e, _ in result._coeffs]
        assert exps == sorted(set(exps)) and all(c for _, c in result._coeffs)


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), Fraction(2, 1)])
def test_shifted_and_substituted_refuse_a_non_integer_power(bad):
    p = lp({1: 1, 0: -1, -1: 1})
    with pytest.raises(ValueError, match="must be integers"):
        p.shifted(bad)
    with pytest.raises(ValueError, match="must be integers"):
        p.substituted(bad)
