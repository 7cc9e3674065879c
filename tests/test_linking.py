from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from conftest import int_matrices, smith_diagonal_well_formed
from dehn4.exact import det, invariant_factors
from dehn4.linking import (
    HomologyReport,
    SelfLinkingForm,
    SingularLinkingMatrix,
    ZeroClasses,
    canonical_class,
    combined_curve,
    first_homology,
    hoste_linking,
    self_linking_form,
    zero_classes,
)
from dehn4.scenarios import standard_torus_presentation
from dehn4.surgery import CurveSpec, SurgeryPresentation


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
    assert first_homology(((5,),)) == HomologyReport(torsion_coefficients=(5,), free_rank=0)
    assert first_homology(((0,),)) == HomologyReport(torsion_coefficients=(), free_rank=1)
    assert str(first_homology(((0,),))) == "Z^1"


def test_first_homology_matches_determinant():
    for n in range(-4, 5):
        report = first_homology(((0, 1), (1, n)))
        assert report.is_homology_sphere == (abs(det(((0, 1), (1, n)))) == 1)


@st.composite
def hoste_cases(draw, max_dim=4, coeff=5):
    """A nonsingular integer matrix and a curve with S^3 data.

    The matrix need not be symmetric: the bordered-determinant identity
    holds for any B.
    """
    n = draw(st.integers(1, max_dim))
    entry = st.integers(-coeff, coeff)
    b = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    if det(b) == 0:
        b = tuple(
            tuple(x + (n * coeff + 1) * (i == j) for j, x in enumerate(row))
            for i, row in enumerate(b)
        )  # strictly diagonally dominant, hence nonsingular
    curve = CurveSpec("c", draw(st.tuples(*[entry] * n)), draw(entry))
    return b, curve


@given(hoste_cases())
def test_hoste_matches_sympy_inverse(case):
    b, curve = case
    a_row = sympy.Matrix([list(curve.component_linkings)])
    expected = curve.pushoff_self_linking - (a_row * sympy.Matrix(b).inv() * a_row.T)[0, 0]
    value = hoste_linking(b, curve)
    assert (value.numerator, value.denominator) == (expected.p, expected.q)


PRES = standard_torus_presentation(3)
B3 = ((0, 1), (1, 3))


def test_hoste_alpha_self_linking_is_n():
    for n in range(-5, 6):
        alpha = standard_torus_presentation(n).alpha
        assert hoste_linking(((0, 1), (1, n)), alpha) == n


def test_hoste_beta_self_linking_is_zero():
    assert hoste_linking(B3, PRES.beta) == 0


def test_hoste_unlinked_curve_keeps_s3_value():
    curve = CurveSpec("c", (0, 0), pushoff_self_linking=7)
    assert hoste_linking(B3, curve) == 7


def test_hoste_rational_output():
    curve = CurveSpec("c", (1, 0), pushoff_self_linking=0)
    assert hoste_linking(((2, 0), (0, 2)), curve) == Fraction(-1, 2)


def test_hoste_singular_matrix_raises():
    curve = CurveSpec("c", (1, 1), pushoff_self_linking=0)
    with pytest.raises(SingularLinkingMatrix):
        hoste_linking(((1, 1), (1, 1)), curve)


def test_hoste_vector_length_mismatch_raises():
    with pytest.raises(ValueError, match="matrix size"):
        hoste_linking(B3, CurveSpec("c", (1,)))


def test_self_linking_form_matches_paper_for_all_n():
    for n in range(-5, 6):
        form = self_linking_form(((0, 1), (1, n)), standard_torus_presentation(n))
        assert (form.a, form.b, form.c) == (n, -1, 0)


def test_self_linking_form_all_zero_data():
    pres = SurgeryPresentation(
        alpha=CurveSpec("alpha", (0, 0)), beta=CurveSpec("beta", (0, 0))
    )
    form = self_linking_form(((0, 1), (1, 0)), pres)
    assert (form.a, form.b, form.c) == (0, 0, 0)


def manual_combined_curve(pres, x, y):
    """Composite-curve oracle assembled by hand from the raw data."""
    alpha, beta = pres.alpha, pres.beta
    vec = tuple(
        x * a + y * b
        for a, b in zip(alpha.component_linkings, beta.component_linkings)
    )
    self_lk = (
        x * x * alpha.pushoff_self_linking
        + x * y * sum(pres.cross_pushoff)
        + y * y * beta.pushoff_self_linking
    )
    return CurveSpec("gamma", vec, self_lk)


def test_self_linking_form_agrees_with_hoste_grid():
    for n in (-5, -2, 0, 1, 3, 5):
        pres = standard_torus_presentation(n)
        b = ((0, 1), (1, n))
        form = self_linking_form(b, pres)
        for x in range(-5, 6):
            for y in range(-5, 6):
                gamma = manual_combined_curve(pres, x, y)
                assert hoste_linking(b, gamma) == form.evaluate(x, y)


def test_combined_curve_matches_manual():
    pres = standard_torus_presentation(2)
    for x, y in ((1, 0), (0, 1), (2, -3)):
        ours = combined_curve(pres, x, y)
        manual = manual_combined_curve(pres, x, y)
        assert ours.component_linkings == manual.component_linkings
        assert ours.pushoff_self_linking == manual.pushoff_self_linking


def test_zero_classes_paper_family():
    for n in range(-5, 6):
        result = zero_classes(SelfLinkingForm(n, -1, 0))
        expected = {canonical_class(0, 1), canonical_class(1, n)}
        assert set(result.classes) == expected
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


def zero_set_bruteforce(form, bound=20):
    out = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            if form.evaluate(x, y) == 0:
                out.add(canonical_class(x, y))
    return out


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
