"""Factorization over Z against independent oracles: sympy's factor_list,
the irreducibility of cyclotomic polynomials, and sympy's printer."""
import random
from itertools import product
from math import gcd

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from dehn4 import factor
from dehn4.factor import factor_list
from dehn4.seifert import _poly_text

T = sympy.Symbol("t")


def multiply(a, b):
    """The product of two coefficient tuples, leading first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def expand(factors):
    """The product of the factors, each to its multiplicity."""
    out = (1,)
    for g, e in factors:
        for _ in range(e):
            out = multiply(out, g)
    return out


def sympy_factor_list(coeffs):
    _, factors = sympy.Poly(list(coeffs), T).factor_list()
    return [(tuple(int(c) for c in g.all_coeffs()), e) for g, e in factors]


def primitive(coeffs):
    c = gcd(*coeffs)
    return tuple(x // c for x in coeffs)


@st.composite
def factor_coefficients(draw):
    """A polynomial of degree 1 to 8 with nonzero leading and constant
    terms, palindromic about half the time."""
    deg = draw(st.integers(1, 8))
    ends = st.integers(-9, 9).filter(bool)
    if draw(st.booleans()):
        half = [draw(ends), *draw(st.lists(st.integers(-9, 9), min_size=deg // 2, max_size=deg // 2))]
        return (*half, *half[::-1][(deg + 1) % 2 :])
    inner = draw(st.lists(st.integers(-9, 9), min_size=deg - 1, max_size=deg - 1))
    return (draw(ends), *inner, draw(ends))


@st.composite
def products(draw):
    """A primitive product of up to four such polynomials, each to a power
    of 1 to 3, of total degree at most 16."""
    out, budget = (1,), 16
    for _ in range(draw(st.integers(1, 4))):
        g = draw(factor_coefficients())
        e = draw(st.integers(1, 3))
        if (len(g) - 1) * e <= budget:
            budget -= (len(g) - 1) * e
            out = expand([(out, 1), (g, e)])
    return primitive(out)


@given(products())
@settings(max_examples=300)
def test_factor_list_matches_sympy(coeffs):
    found = factor_list(coeffs)
    assert found == sympy_factor_list(coeffs)
    assert expand(found) in (coeffs, tuple(-c for c in coeffs))


def _cyclotomic():
    """Phi_n, leading first, for every n with phi(n) <= 16."""
    out = {}
    for n in range(1, 61):
        g = tuple(int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, T), T).all_coeffs())
        if len(g) <= 17:
            out[n] = g
    return out


CYCLOTOMIC = _cyclotomic()


def test_every_product_of_cyclotomic_polynomials_of_degree_at_most_16():
    """Each Phi_n is irreducible over Z, so a product of them is its own
    factorization, sorted by (degree, multiplicity, coefficients)."""
    by_degree = sorted(CYCLOTOMIC.values(), key=len)
    count = 0

    def extend(start, degree, chosen):
        nonlocal count
        if chosen:
            expected = sorted(
                ((g, chosen.count(g)) for g in set(chosen)),
                key=lambda ge: (len(ge[0]), ge[1], ge[0]),
            )
            assert factor_list(expand([(g, 1) for g in chosen])) == expected, chosen
            count += 1
        for i in range(start, len(by_degree)):
            g = by_degree[i]
            if degree + len(g) - 1 <= 16:
                extend(i, degree + len(g) - 1, chosen + [g])

    extend(0, 0, [])
    assert count == 20580  # every nonempty multiset of the 32 Phi_n with phi(n) <= 16


def test_the_general_route_factors_a_seeded_sample_of_cyclotomic_products():
    """factor_list divides the Phi_n out before Yun, so the cyclotomic test
    above no longer reaches Berlekamp and Hensel lifting; here Yun and
    Zassenhaus take the products themselves, against the same oracle."""
    rng = random.Random(2026)
    by_degree = sorted(CYCLOTOMIC.values(), key=len)
    for _ in range(300):
        chosen, degree = [], 0
        while True:
            g = rng.choice([g for g in by_degree if degree + len(g) - 1 <= 16] or [None])
            if g is None or (chosen and rng.random() < 0.25):
                break
            chosen.append(g)
            degree += len(g) - 1
        expected = sorted((g, chosen.count(g)) for g in set(chosen))
        f = list(expand([(g, 1) for g in chosen])[::-1])
        found = sorted((tuple(reversed(g)), k) for g, k in factor._factor_general(f))
        assert found == expected, chosen


def test_the_cyclotomic_table_is_rebuilt_from_x_to_the_n_minus_1():
    """Phi_n is x^n - 1 over the Phi_d with d | n, d < n; the table holds
    every Phi_n of degree <= 16, lowest degree first.  phi(n) >= sqrt(n/2),
    so no n above 512 has phi(n) <= 16."""
    phi = {}
    for n in range(1, 513):
        q = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                q = factor._divide(q, list(phi[d]))
        phi[n] = tuple(q)
    assert factor.CYCLOTOMIC == {n: g for n, g in phi.items() if len(g) <= 17}
    assert len(factor.CYCLOTOMIC) == 32


def test_the_values_at_two_are_rebuilt_from_the_table():
    assert factor.CYCLOTOMIC_AT_2 == {
        n: sum(c << i for i, c in enumerate(phi)) for n, phi in factor.CYCLOTOMIC.items()
    }


@pytest.mark.parametrize(
    "coeffs",
    [
        (2, -5, 2),  # the stevedore's (2t - 1)(t - 2)
        expand([((1, -2), 2)]),
        expand([((1, -2), 2), ((2, -1), 1)]),
        expand([((1, -2), 2), (CYCLOTOMIC[6], 1), (CYCLOTOMIC[2], 1)]),
        expand([((1, -2), 1), (CYCLOTOMIC[12], 2), (CYCLOTOMIC[1], 1)]),
        expand([((1, -2), 3), ((1, 0, -2), 1)]),
    ],
)
def test_factor_list_matches_sympy_where_the_value_at_two_is_zero(coeffs):
    """At f(2) = 0 every Phi_n(2) divides f(2), so no division is skipped."""
    assert sum(c << i for i, c in enumerate(reversed(coeffs))) == 0
    assert factor_list(coeffs) == sympy_factor_list(coeffs)


@pytest.mark.parametrize(
    "chosen",
    [
        [2, 6],
        [2, 2, 6],
        [6, 6, 2],
        [6],
        [2, 2, 2],
        [2, 6, 3],
        [6, 6, 6, 2, 1],
    ],
)
def test_factor_list_matches_sympy_on_cyclotomic_products_sharing_a_value_at_two(chosen):
    """Phi_2(2) = Phi_6(2) = 3, so a factor of one passes the value test of
    the other, and only the division tells them apart."""
    assert factor.CYCLOTOMIC_AT_2[2] == factor.CYCLOTOMIC_AT_2[6] == 3
    coeffs = expand([(CYCLOTOMIC[n], 1) for n in chosen])
    for extra in ([], [((3, 1, 2), 1)], [((1, -2), 1)]):
        f = expand([(coeffs, 1), *extra])
        assert factor_list(f) == sympy_factor_list(f), (chosen, extra)


def test_at_a_zero_value_at_two_the_cyclotomic_factors_still_divide_out_first(monkeypatch):
    """Only (t - 2)^2 is left for the general route, which would find the
    Phi_n too, only slower."""
    general = []
    route = factor._factor_general
    monkeypatch.setattr(factor, "_factor_general", lambda f: general.append(f) or route(f))
    coeffs = expand([((1, -2), 2), (CYCLOTOMIC[6], 1), (CYCLOTOMIC[2], 1)])
    assert factor_list(coeffs) == sympy_factor_list(coeffs)
    assert general == [[4, -4, 1]]


def test_a_cyclotomic_division_is_tried_only_where_the_value_at_two_divides(monkeypatch):
    """Phi_6 = t^2 - t + 1 has value 3 at t = 2: only Phi_1 (value 1),
    Phi_2 and Phi_6 (value 3) are tried, not Phi_3 or Phi_4."""
    tried = []
    divide = factor._divide
    monkeypatch.setattr(factor, "_divide", lambda a, b: tried.append(tuple(b)) or divide(a, b))
    assert factor_list((1, -1, 1)) == [((1, -1, 1), 1)]
    assert tried == [factor.CYCLOTOMIC[n] for n in (1, 2, 6)]


# sqrt(2) + sqrt(3) + sqrt(5) over Q: irreducible over Z, but the product of
# at most quadratic factors mod every prime
SWINNERTON_DYER_8 = (1, 0, -40, 0, 352, 0, -960, 0, 576)


def test_swinnerton_dyer_splits_mod_every_good_prime_and_is_irreducible():
    f = list(SWINNERTON_DYER_8[::-1])
    good = 0
    for p in sympy.primerange(2, 100):
        fp = factor._monic(factor._mod(f, p), p)
        if len(factor._gcd_mod(fp, factor._mod(factor._derivative(fp), p), p)) == 1:
            assert len(factor._berlekamp_basis(fp, p)) >= 4, p
            good += 1
    assert good == 22  # every prime but 2, 3 and 5
    assert factor_list(SWINNERTON_DYER_8) == [(SWINNERTON_DYER_8, 1)]


def test_two_swinnerton_dyer_factors_recombine():
    shifted = tuple(int(c) for c in sympy.Poly(SWINNERTON_DYER_8, T).shift(1).all_coeffs())
    f = multiply(SWINNERTON_DYER_8, shifted)
    assert factor_list(f) == sympy_factor_list(f) == [(SWINNERTON_DYER_8, 1), (shifted, 1)]


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((2, -5, 2), [((1, -2), 1), ((2, -1), 1)]),  # the stevedore
        ((-1, 3, -1), [((1, -3, 1), 1)]),  # the figure-eight, up to sign
        ((1, -2, 3, -2, 1), [((1, -1, 1), 2)]),  # T(2,3) # T(2,3)
        ((1,), []),
        ((-1,), []),
    ],
)
def test_factor_list_examples(coeffs, expected):
    assert factor_list(coeffs) == expected


def _positive(g):
    return g if g[0] > 0 else tuple(-c for c in g)


def _at_minus_t(g):
    """g(-t), leading coefficient positive."""
    deg = len(g) - 1
    return _positive(tuple(-c if (deg - i) % 2 else c for i, c in enumerate(g)))


def _reciprocal(g):
    """t^deg g(1/t), leading coefficient positive."""
    return _positive(g[::-1])


def test_every_small_quadratic_factors_as_sympy_factors_it():
    # every primitive square-free a t^2 + b t + c with 0 < |a|, |b| <= 30
    # and 0 < |c| <= 30 (factor_list takes a nonzero constant term), as f
    # and -f with a > 0.  g(t) -> g(-t) and g(t) -> t^deg g(1/t) map a
    # product to the product of the images, so sympy factors one quadratic
    # of each class they generate, and its factors, mapped, are the
    # expected factors of the rest
    quadratics = {
        (a, b, c)
        for a, b, c in product(range(1, 31), range(-30, 31), range(-30, 31))
        if c and gcd(a, b, c) == 1 and b * b != 4 * a * c
    }
    images = (lambda g: g, _at_minus_t, _reciprocal, lambda g: _reciprocal(_at_minus_t(g)))
    checked = set()
    for quadratic in sorted(quadratics):
        if quadratic in checked:
            continue
        factors = sympy_factor_list(quadratic)
        for image in images:
            f = image(quadratic)
            expected = sorted(
                ((image(g), e) for g, e in factors), key=lambda ge: (len(ge[0]), ge[1], ge[0])
            )
            assert factor_list(f) == factor_list(tuple(-x for x in f)) == expected, f
            checked.add(f)
    assert checked == quadratics


def test_a_quadratic_splits_without_berlekamp_or_hensel(monkeypatch):
    # the stevedore's 2t^2 - 5t + 2 = (2t - 1)(t - 2), and t^2 + t - 1,
    # irreducible, whose value 5 at t = 2 is the value of Phi_4; a nonzero
    # discriminant makes a quadratic square-free, so only (2t - 1)^2 takes Yun
    def refuse(*args):
        raise AssertionError("a quadratic reached Berlekamp or Hensel lifting")

    monkeypatch.setattr(factor, "_berlekamp_basis", refuse)
    monkeypatch.setattr(factor, "_hensel_lift", refuse)
    yun = []
    square_free_parts = factor._square_free_parts
    monkeypatch.setattr(
        factor, "_square_free_parts", lambda f: yun.append(f) or square_free_parts(f)
    )
    assert factor_list((2, -5, 2)) == [((1, -2), 1), ((2, -1), 1)]
    assert factor_list((1, 1, -1)) == [((1, 1, -1), 1)]
    assert factor_list((4, 0, 1)) == [((4, 0, 1), 1)]  # discriminant -16
    assert yun == []
    assert factor_list((4, -4, 1)) == [((2, -1), 2)]  # discriminant 0
    assert len(yun) == 1


@pytest.mark.parametrize("coeffs", [(), (0,), (1, 0), (2, 4), (3, 0, 6), (6,)])
def test_factor_list_takes_only_primitive_polynomials_with_a_constant_term(coeffs):
    with pytest.raises(ValueError, match="primitive"):
        factor_list(coeffs)


@given(
    st.lists(st.integers(-(10**12), 10**12), min_size=0, max_size=16),
    st.integers(1, 10**12),
)
@settings(max_examples=300)
def test_poly_text_matches_sympy_sstr(lower, lead):
    key = (lead, *lower)
    assert _poly_text(key) == sympy.sstr(sympy.Poly(list(key), T).as_expr())
