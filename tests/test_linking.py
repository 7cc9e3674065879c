from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    HomologyReport,
    SelfLinkingForm,
    SingularLinkingMatrix,
    ZeroClasses,
    canonical_class,
    dense_det,
    first_homology,
    homology_diagonal,
    hoste_linking,
    int_matrices,
    invariant_factors,
    self_linking_form,
    smith_diagonal_well_formed,
    zero_classes,
    zero_set_bruteforce,
)
from test_surgery import torus_presentation, torus_steps


def test_smith_of_paper_matrix_is_identity():
    m = ((0, 1), (1, 5))
    assert invariant_factors(m) == (1, 1)
    smith_diagonal_well_formed(m, invariant_factors(m))


def test_smith_of_zero_matrix():
    assert invariant_factors(((0, 0), (0, 0))) == (0, 0)
    assert invariant_factors(((0, 0, 0),)) == (0,)


def test_smith_of_single_entry():
    assert invariant_factors(((7,),)) == (7,)
    assert invariant_factors(((-7,),)) == (7,)


def test_smith_divisibility_chain():
    m = ((2, 0), (0, 3))
    assert invariant_factors(m) == (1, 6)
    assert invariant_factors(((4, 0, 0), (0, 6, 0), (0, 0, 0))) == (2, 12, 0)
    assert invariant_factors(((0, 0), (0, 5), (0, 0))) == (5, 0)


@st.composite
def smith_cases(draw, max_dim=5):
    """Integer matrices weighted toward zeros and entries that share small
    prime factors, where the pivots alone leave no divisibility chain."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entry = st.sampled_from((0, 0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15)) | st.integers(-9, 9)
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@given(int_matrices() | smith_cases())
def test_smith_normal_form_properties(m):
    smith_diagonal_well_formed(m, invariant_factors(m))


def test_first_homology_examples():
    assert first_homology(((0, 1), (1, 5))).is_homology_sphere
    assert first_homology(((1, 0), (0, 5))) == HomologyReport(torsion_coefficients=(5,), free_rank=0)
    assert first_homology(((1, 0), (0, 0))) == HomologyReport(torsion_coefficients=(), free_rank=1)
    assert str(first_homology(((1, 0), (0, 0)))) == "Z^1"
    assert str(first_homology(((2, 4), (4, 2)))) == "Z/2 + Z/6"
    assert str(first_homology(((0, 0), (0, 0)))) == "Z^2"


def test_first_homology_matches_determinant():
    for n in range(-4, 5):
        report = first_homology(((0, 1), (1, n)))
        assert report.is_homology_sphere == (abs(dense_det(((0, 1), (1, n)))) == 1)


def test_first_homology_matches_smith_oracle():
    # every symmetric 2x2 matrix with entries in [-12, 12]
    for p, q, r in product(range(-12, 13), repeat=3):
        m = ((p, q), (q, r))
        diag = homology_diagonal(first_homology(m))
        assert diag == invariant_factors(m), m
        smith_diagonal_well_formed(m, diag)


@pytest.mark.parametrize(
    "m",
    [
        (),
        ((5,),),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1), (1,)),
        ((0, 1, 0), (1, 0, 0)),
        ((0, 1), (2, 3)),
        ((0, -1), (1, 0)),
    ],
)
def test_first_homology_rejects_all_but_symmetric_2x2(m):
    with pytest.raises(ValueError, match="symmetric 2x2"):
        first_homology(m)


@st.composite
def hoste_cases(draw, max_dim=4, coeff=5):
    """A nonsingular integer matrix, a linking vector and an S^3 self-linking.

    The matrix need not be symmetric: the bordered-determinant identity
    holds for any B.
    """
    n = draw(st.integers(1, max_dim))
    entry = st.integers(-coeff, coeff)
    b = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    if dense_det(b) == 0:
        b = tuple(
            tuple(x + (n * coeff + 1) * (i == j) for j, x in enumerate(row))
            for i, row in enumerate(b)
        )  # strictly diagonally dominant, hence nonsingular
    return b, draw(st.tuples(*[entry] * n)), draw(entry)


@given(hoste_cases())
def test_hoste_matches_sympy_inverse(case):
    b, a, self_lk = case
    a_row = sympy.Matrix([list(a)])
    expected = self_lk - (a_row * sympy.Matrix(b).inv() * a_row.T)[0, 0]
    value = hoste_linking(b, a, self_lk)
    assert (value.numerator, value.denominator) == (expected.p, expected.q)


B3 = ((0, 1), (1, 3))


def test_hoste_alpha_self_linking_is_n():
    for n in range(-50, 51):
        assert hoste_linking(((0, 1), (1, n)), (1, 0), 0) == n


def test_hoste_beta_self_linking_is_zero():
    assert hoste_linking(B3, (0, 1), 0) == 0


def test_hoste_unlinked_curve_keeps_s3_value():
    assert hoste_linking(B3, (0, 0), 7) == 7


def test_hoste_rational_output():
    assert hoste_linking(((2, 0), (0, 2)), (1, 0), 0) == Fraction(-1, 2)


def test_hoste_singular_matrix_raises():
    with pytest.raises(SingularLinkingMatrix):
        hoste_linking(((1, 1), (1, 1)), (1, 1), 0)


def test_hoste_refuses_a_float_zero():
    with pytest.raises(TypeError, match=r"must be an int, got 0\.0"):
        hoste_linking(((0.0, 1), (1, 2)), (1, 0), 0)


def test_hoste_vector_length_mismatch_raises():
    with pytest.raises(ValueError, match="matrix size"):
        hoste_linking(B3, (1,), 0)


def test_self_linking_form_matches_paper_for_all_n():
    for n in range(-50, 51):
        form = self_linking_form(((0, 1), (1, n)))
        assert (form.a, form.b, form.c) == (n, -1, 0)


def test_self_linking_form_agrees_with_hoste_grid():
    for n in range(-50, 51):
        b = torus_presentation("torus-solid", n)[1]
        form = self_linking_form(b)
        for x in range(-5, 6):
            for y in range(-5, 6):
                # alpha = (1, 0), beta = (0, 1), pushoffs (0, 1): x*alpha + y*beta
                # links (x, y) and has S^3 self-linking x*y
                assert hoste_linking(b, (x, y), x * y) == form.evaluate(x, y)


def test_zero_classes_paper_family():
    """The torus scenarios handle exactly beta = (0, 1) and alpha = (1, n)."""
    for n in range(-200, 201):
        form = self_linking_form(torus_presentation("torus-solid", n)[1])
        assert form == SelfLinkingForm(n, -1, 0)
        result = zero_classes(form)
        assert len(result.classes) == 2
        assert set(result.classes) == {(0, 1), canonical_class(1, n)}
        assert not result.all_classes


def test_zero_classes_definite_form_empty():
    assert zero_classes(SelfLinkingForm(1, 0, 1)) == ZeroClasses(classes=())


def test_zero_classes_factorable_form():
    result = zero_classes(SelfLinkingForm(1, -3, 2))
    assert set(result.classes) == {(1, 1), (2, 1)}


def test_zero_classes_identically_zero_flags_all():
    result = zero_classes(SelfLinkingForm(0, 0, 0))
    assert result.all_classes
    assert result.classes == ()


def test_zero_classes_irrational_roots_empty():
    # discriminant 5 is not a perfect square
    assert zero_classes(SelfLinkingForm(1, -1, -1)).classes == ()


@given(
    a=st.integers(-6, 6), b=st.integers(-6, 6), c=st.integers(-6, 6)
)
def test_zero_classes_against_bruteforce(a, b, c):
    form = SelfLinkingForm(a, b, c)
    result = zero_classes(form)
    brute = zero_set_bruteforce(form)
    if result.all_classes:
        assert (a, b, c) == (0, 0, 0)
    else:
        assert set(result.classes) == brute


def test_canonical_class_sign_rules():
    assert canonical_class(0, -1) == (0, 1)
    assert canonical_class(-2, 0) == (1, 0)
    assert canonical_class(-3, -6) == (1, 2)
    with pytest.raises(ValueError):
        canonical_class(0, 0)


@pytest.mark.parametrize("name", ["torus-solid", "torus-top-vs-smooth"])
def test_torus_trace_steps_match_the_general_oracle(name):
    """The closed forms in n that the torus scenarios print are what the
    general layer derives from B = [[0, 1], [1, n]]: homology from its Smith
    diagonal, the form by Hoste's formula through bordered determinants,
    and the zero classes by a grid search wide enough to reach (1, n).  The
    oracle uses nothing from dehn4."""
    for n in range(-50, 51):
        steps = torus_steps(name, n)
        b = ((0, 1), (1, n))
        assert steps["boundary_linking_matrix"].output == [list(row) for row in b]
        assert steps["first_homology"].inputs == {"matrix": [list(row) for row in b]}
        hom = first_homology(b)
        assert steps["first_homology"].output == {
            "group": str(hom),
            "is_homology_sphere": hom.is_homology_sphere,
        }
        form = self_linking_form(b)
        assert steps["self_linking_form"].output == {
            "coefficients": [form.a, form.b, form.c],
            "form": str(form),
        }
        classes = sorted(zero_set_bruteforce(form, bound=abs(n) + 1))
        assert steps["zero_classes"].inputs == {"form": str(form)}
        assert steps["zero_classes"].output == {
            "classes": [list(c) for c in classes],
            "all_classes": False,
        }
        if name == "torus-top-vs-smooth":  # alpha, the zero class other than beta
            (alpha,) = set(classes) - {(0, 1)}
            assert steps["alexander_polynomial"].inputs["class"] == list(alpha)
