from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    block_diagonal,
    dense_det,
    dense_signature_symmetric,
    euclid_det,
    int_matrices,
    sparse_rows,
    structured_matrices,
    transpose,
)
from dehn4.exact import det, signature_symmetric
from dehn4.seifert import torus_knot_seifert


def sdet(m):
    return det(sparse_rows(m))


def ssig(m):
    return signature_symmetric(sparse_rows(m))


def test_det_basics():
    assert sdet(()) == 1
    assert sdet(((5,),)) == 5
    assert sdet(((0, 1), (1, 3))) == -1
    assert sdet(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert sdet(((1, 2), (2, 4))) == 0
    with pytest.raises(ValueError, match="non-square"):
        sdet(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError, match="non-square"):
        det([{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(ValueError, match="non-square"):
        signature_symmetric([{-1: 1}])


def test_det_needs_row_swap():
    assert sdet(((0, 1), (1, 0))) == -1
    assert sdet(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1


@pytest.mark.parametrize(
    "m", [((1, 2), (3, 4)), [[0, 1], [1, 0]], ((2,),), [(0, 0), {0: 1, 1: 1}]]
)
def test_kernels_refuse_dense_rows(m):
    # k in a dense row would test its values, not its columns
    with pytest.raises(TypeError, match="must be a mapping"):
        det(m)
    with pytest.raises(TypeError, match="must be a mapping"):
        signature_symmetric(m)


@pytest.mark.parametrize(
    "m,entry",
    [
        ([{0: 1.5}], r"\[0\]\[0\] must be an int, got 1\.5"),
        ([{0: 1}, {1: Fraction(5, 2)}], r"\[1\]\[1\] must be an int, got Fraction\(5, 2\)"),
        ([{0: 2, 1: True}, {0: True, 1: 2}], r"\[0\]\[1\] must be an int, got True"),
        ([{0: 1, 1: 0.0}, {0: 0.0, 1: 1}], r"\[0\]\[1\] must be an int, got 0\.0"),
    ],
    ids=["float", "fraction", "bool", "float-zero"],  # a stored float zero is not dropped
)
def test_kernels_refuse_non_int_entries(m, entry):
    with pytest.raises(TypeError, match=entry):
        det(m)
    with pytest.raises(TypeError, match=entry):
        signature_symmetric(m)


def test_sparse_rows_leave_float_zeros_to_the_kernels():
    # a 0.0 dropped as falsy here would never reach the kernels' int check
    assert sparse_rows(((0, 1), (-1, 0))) == [{0: 0, 1: 1}, {0: -1, 1: 0}]
    with pytest.raises(TypeError, match=r"\[0\]\[0\] must be an int, got 0\.0"):
        det(sparse_rows([[0.0, 1], [-1, 0]]))
    with pytest.raises(TypeError, match=r"\[0\]\[1\] must be an int, got 0\.0"):
        signature_symmetric(sparse_rows([[1, 0.0], [0.0, 1]]))


def test_kernels_drop_stored_zeros():
    assert det([{0: 0, 1: 1}, {0: 1, 1: 0}]) == -1
    assert det([{0: 0}]) == 0
    assert signature_symmetric([{0: 2, 1: 0}, {0: 0, 1: -3}]) == 0
    assert signature_symmetric([{0: 0, 1: 1}, {1: 0, 0: 1}]) == 0
    # [[1]], but for a zero stored in a column outside 0..0
    for m in [{0: 1, 5: 0}], [{0: 1, -1: 0}], [{0: 1, "x": 0}]:
        with pytest.raises(ValueError, match=r"a column outside 0\.\.0"):
            det(m)
        with pytest.raises(ValueError, match=r"a column outside 0\.\.0"):
            signature_symmetric(m)


@settings(max_examples=200)
@given(structured_matrices(symmetric=True))
def test_kernels_leave_the_callers_rows_unchanged(m):
    rows = sparse_rows(m)
    if rows:
        rows[0].setdefault(len(rows) - 1, 0)  # a stored zero takes the copy's other path
    before = [dict(r) for r in rows]
    ids = [id(r) for r in rows]
    det(rows)
    signature_symmetric(rows)
    assert rows == before
    assert [id(r) for r in rows] == ids


@given(int_matrices(max_dim=4, coeff=6))
def test_det_matches_fraction_elimination(m):
    if len(m) != len(m[0]):
        return
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    value = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            value = Fraction(0)
            break
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        value *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert sdet(m) == sign * value


@settings(max_examples=400)
@given(structured_matrices())
def test_det_matches_dense_oracle(m):
    assert sdet(m) == dense_det(m)


@given(structured_matrices())
def test_euclid_oracle_matches_dense_bareiss(m):
    assert euclid_det(m) == dense_det(m)


@settings(max_examples=400)
@given(structured_matrices(symmetric=True))
def test_signature_matches_dense_oracle(m):
    assert ssig(m) == dense_signature_symmetric(m)


@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(2, 9) for q in (p + 1, p + 2) if gcd(p, q) == 1]
)
def test_kernel_matches_dense_oracle_on_torus_knots(p, q):
    # banded brick matrices up to 56 x 56: a row is untouched until the
    # pivot comes within its band, about q steps before its own index
    v = torus_knot_seifert(p, q).entries
    n = len(v)
    for t in (-3, 1, 2):
        m = [[v[i][j] - t * v[j][i] for j in range(n)] for i in range(n)]
        assert sdet(m) == dense_det(m)
    sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
    assert ssig(sym) == dense_signature_symmetric(sym)


def test_signature_symmetric():
    assert ssig(()) == 0
    assert ssig(((2,),)) == 1
    assert ssig(((0, 1), (1, 0))) == 0
    assert ssig(((0, 1, 0), (1, 0, 0), (0, 0, -3))) == -1
    assert ssig(((0, 0), (0, 0))) == 0
    with pytest.raises(ValueError, match="symmetric"):
        ssig(((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        ssig(((0, 1), (0, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        signature_symmetric([{1: 1}, {0: 1, 1: 0}, {2: 1, 1: 1}])


def test_signature_degenerate_block():
    # rank-1 positive plus a null direction
    assert ssig(((1, 1), (1, 1))) == 1


@st.composite
def degenerate_symmetric(draw, max_dim=8, coeff=4):
    """Symmetric matrices up to max_dim, weighted toward the pivot fallbacks.

    Mostly-zero entries, a zero diagonal, hyperbolic blocks [[0, c], [c, 0]]
    and null rows each exercise a different branch of the elimination.
    """
    n = draw(st.integers(0, max_dim))
    entry = st.one_of(st.just(0), st.integers(-coeff, coeff))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    for i in range(0, n - 1, 2):
        if draw(st.booleans()):
            c = draw(st.integers(-coeff, coeff).filter(bool))
            for j in range(n):
                a[i][j] = a[j][i] = a[i + 1][j] = a[j][i + 1] = 0
            a[i][i + 1] = a[i + 1][i] = c
    nulls = draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    for i in nulls:
        for j in range(n):
            a[i][j] = a[j][i] = 0
    order = draw(st.permutations(range(n)))
    return tuple(tuple(a[i][j] for j in order) for i in order)


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


@given(degenerate_symmetric())
def test_signature_matches_descartes_count(m):
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs on its characteristic polynomial is exact: p(t) counts the
    # positive eigenvalues and p(-t) the negative ones
    coeffs = sympy.Matrix(len(m), len(m), [x for row in m for x in row]).charpoly().all_coeffs()
    deg = len(coeffs) - 1
    positive = sign_changes(coeffs)
    negative = sign_changes([c * (-1) ** (deg - k) for k, c in enumerate(coeffs)])
    assert ssig(m) == positive - negative


def test_matrix_helpers():
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert transpose(()) == ()
    assert block_diagonal(((1,),), ((2, 0), (0, 3))) == (
        (1, 0, 0),
        (0, 2, 0),
        (0, 0, 3),
    )


@given(int_matrices(max_dim=4, coeff=5))
def test_block_diagonal_det_multiplicative(m):
    if len(m) != len(m[0]):
        return
    other = ((2, 1), (1, 1))
    assert sdet(block_diagonal(m, other)) == sdet(m) * sdet(other)
