from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import int_matrices
from dehn4.exact import (
    block_diagonal,
    det,
    is_symmetric,
    matmul,
    signature_symmetric,
    solve_rational,
    transpose,
)


def test_det_basics():
    assert det(()) == 1
    assert det(((5,),)) == 5
    assert det(((0, 1), (1, 3))) == -1
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert det(((1, 2), (2, 4))) == 0
    with pytest.raises(ValueError, match="non-square"):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_needs_row_swap():
    assert det(((0, 1), (1, 0))) == -1
    assert det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1


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
    assert det(m) == sign * value


def test_solve_rational():
    x = solve_rational(((2, 0), (0, 4)), (1, 1))
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(ValueError, match="singular"):
        solve_rational(((1, 1), (1, 1)), (1, 2))
    with pytest.raises(ValueError, match="shape"):
        solve_rational(((1, 0), (0, 1)), (1,))


def test_signature_symmetric():
    assert signature_symmetric(()) == 0
    assert signature_symmetric(((2,),)) == 1
    assert signature_symmetric(((0, 1), (1, 0))) == 0
    assert signature_symmetric(((0, 1, 0), (1, 0, 0), (0, 0, -3))) == -1
    assert signature_symmetric(((0, 0), (0, 0))) == 0
    with pytest.raises(ValueError, match="symmetric"):
        signature_symmetric(((0, 1), (2, 0)))


def test_signature_degenerate_block():
    # rank-1 positive plus a null direction
    assert signature_symmetric(((1, 1), (1, 1))) == 1


def test_matrix_helpers():
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert transpose(()) == ()
    assert matmul(((1, 2),), ((3,), (4,))) == ((11,),)
    assert is_symmetric(((1, 2), (2, 1)))
    assert not is_symmetric(((1, 2), (3, 1)))
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
    assert det(block_diagonal(m, other)) == det(m) * det(other)
