from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dehn4.twists import (
    BasisMismatch,
    Subgroup2,
    TwistBasis,
    TwistClass,
    extension_subgroup,
    seifert_orbit_class,
    to_alpha_beta,
)


def to_mu_lambda(c):
    """Inverse of to_alpha_beta (mu = alpha, lambda = beta - alpha), the
    round-trip oracle."""
    assert c.basis is TwistBasis.ALPHA_BETA
    x, y = c.vector
    return TwistClass((x + y, y), TwistBasis.MU_LAMBDA)


def ab(x, y):
    return TwistClass((x, y), TwistBasis.ALPHA_BETA)


def ml(x, y):
    return TwistClass((x, y), TwistBasis.MU_LAMBDA)


def test_orbit_class_examples():
    assert seifert_orbit_class(2, 3) == ml(6, 1)
    assert seifert_orbit_class(3, 5) == ml(15, 1)
    for p, q in ((2, 3), (2, 5), (3, 4), (4, 5), (5, 6)):
        x, y = seifert_orbit_class(p, q).vector
        assert gcd(abs(x), abs(y)) == 1


def test_orbit_class_validation():
    with pytest.raises(ValueError):
        seifert_orbit_class(2, 4)
    with pytest.raises(ValueError):
        seifert_orbit_class(1, 3)


@pytest.mark.parametrize(
    "vector,message",
    [
        ((2.7, 3), r"vector\[0\] must be an integer"),
        ((2, "3"), r"vector\[1\] must be an integer"),
        ((True, 0), r"vector\[0\] must be an integer"),
        ((1, 2, 3), "two entries"),
    ],
)
def test_twist_class_rejects_non_integer_vectors(vector, message):
    with pytest.raises(ValueError, match=message):
        TwistClass(vector, TwistBasis.ALPHA_BETA)


def test_to_alpha_beta_examples():
    assert to_alpha_beta(ml(6, 1)) == ab(5, 1)
    assert to_alpha_beta(ml(1, 0)) == ab(1, 0)
    with pytest.raises(BasisMismatch):
        to_alpha_beta(ab(1, 0))


@given(x=st.integers(-20, 20), y=st.integers(-20, 20))
def test_basis_change_round_trip(x, y):
    assert to_mu_lambda(to_alpha_beta(ml(x, y))) == ml(x, y)
    assert to_alpha_beta(to_mu_lambda(ab(x, y))) == ab(x, y)


def test_extension_subgroup_full_for_torus_knot_generators():
    sub = extension_subgroup([ab(1, 0), ab(5, 1)])
    assert sub == Subgroup2(rows=((1, 0), (0, 1)), rank=2, index=1)
    assert sub.is_full


def test_extension_subgroup_rank_one_and_zero():
    sub = extension_subgroup([ab(2, 0)])
    assert sub.rank == 1
    assert sub.index is None
    assert sub.rows == ((2, 0),)
    empty = extension_subgroup([])
    assert empty.rank == 0
    assert empty.rows == ()
    zero_only = extension_subgroup([ab(0, 0)])
    assert zero_only.rank == 0


def test_extension_subgroup_vertical_generators():
    sub = extension_subgroup([ab(0, 4), ab(0, -6)])
    assert sub == Subgroup2(rows=((0, 2),), rank=1, index=None)


def test_extension_subgroup_mixed_basis_rejected():
    with pytest.raises(BasisMismatch):
        extension_subgroup([ab(1, 0), ml(0, 1)])


def test_canonical_form_unique_for_same_subgroup():
    a = extension_subgroup([ab(2, 1), ab(0, 3)])
    b = extension_subgroup([ab(2, 4), ab(2, 1), ab(0, -3)])
    assert a == b
    assert a.index == 6


@given(
    v1=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    v2=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_index_is_absolute_determinant(v1, v2):
    det = v1[0] * v2[1] - v1[1] * v2[0]
    sub = extension_subgroup([ab(*v1), ab(*v2)])
    if det != 0:
        assert sub.rank == 2
        assert sub.index == abs(det)
        assert sub.is_full == (abs(det) == 1)
    else:
        assert sub.rank < 2


@given(
    vs=st.lists(
        st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=1, max_size=4
    ),
    signs=st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4),
    seed=st.randoms(use_true_random=False),
)
def test_subgroup_invariant_under_permutation_and_negation(vs, signs, seed):
    base = extension_subgroup([ab(*v) for v in vs])
    shuffled = [(s * v[0], s * v[1]) for v, s in zip(vs, signs)]
    seed.shuffle(shuffled)
    assert extension_subgroup([ab(*v) for v in shuffled]) == base


def test_hermite_canonical_shape():
    sub = extension_subgroup([ab(4, 7), ab(0, 5)])
    (a, b), (z, c) = sub.rows
    assert z == 0 and a > 0 and c > 0 and 0 <= b < c
