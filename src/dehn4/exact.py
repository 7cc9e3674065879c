"""Exact integer linear algebra: the determinant, signature and Smith kernels.

`det` for determinants and `signature_symmetric` for signatures are
fraction-free Bareiss elimination on arbitrary-precision integers, each
division exact by the previous pivot.  `invariant_factors` gives the
Smith diagonal by Euclid's algorithm on the smallest pivot, with no
unimodular factors kept.  There is no rational solve and no floating
point anywhere.  Matrices are plain tuples of tuples (immutable) or lists
of lists (scratch space).
"""
from __future__ import annotations

from math import gcd
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Immutable copy; an entry that is not an int (bool, float, str) is a ValueError."""
    frozen = tuple(tuple(row) for row in rows)
    for i, row in enumerate(frozen):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"matrix entry [{i}][{j}] must be an integer, got {x!r}")
    return frozen


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    if not m:
        return ()
    return tuple(tuple(row[i] for row in m) for i in range(len(m[0])))


def is_square(m: Sequence[Sequence[int]]) -> bool:
    return all(len(row) == len(m) for row in m)


def is_symmetric(m: Sequence[Sequence[int]]) -> bool:
    n = len(m)
    return is_square(m) and all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    if not is_square(m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def signature_symmetric(m: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric integer matrix by symmetric Bareiss elimination.

    Symmetric swaps and row/column additions are congruences over Z, and
    each pivot is a leading principal minor of the congruent matrix, so
    pivot/prev is the k-th diagonal entry of a congruence diagonalization
    over Q.  The result is (#positive) - (#negative) of those entries,
    counted from the signs of pivot and prev; every division is exact.
    """
    n = len(m)
    if not is_symmetric(m):
        raise ValueError("signature of a non-symmetric matrix")
    a = [list(row) for row in m]
    sig = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for r in range(k, n):
                    a[r][k], a[r][swap] = a[r][swap], a[r][k]
                a[k], a[swap] = a[swap], a[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue  # entire row/column is zero: null direction
                # all remaining diagonal entries vanish, so this makes
                # a[k][k] = 2*a[k][off] != 0
                for r in range(k, n):
                    a[r][k] += a[r][off]
                for c in range(k, n):
                    a[k][c] += a[off][c]
        pivot = a[k][k]
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sig


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal d1 | d2 | ... of the Smith normal form over Z.

    min(rows, cols) nonnegative entries, zeros last.  Euclid's algorithm
    on the smallest nonzero entry clears its row and column by unimodular
    row and column operations, one pivot at a time; a gcd/lcm pass then
    turns the diagonal into a divisibility chain (gcd * lcm keeps each
    pair's product, and with it every prime-power elementary divisor).
    """
    a = [list(row) for row in m]
    size = min(len(a), len(a[0])) if a else 0
    diag = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        pivot = a[0][0]
        for row in a[1:]:
            f = row[0] // pivot
            for c, x in enumerate(a[0]):
                row[c] -= f * x
        for c in range(1, len(a[0])):
            f = a[0][c] // pivot
            for row in a:
                row[c] -= f * row[0]
        # a nonzero remainder is smaller than the pivot and becomes the next one
        if all(row[0] == 0 for row in a[1:]) and not any(a[0][1:]):
            diag.append(abs(pivot))
            a = [row[1:] for row in a[1:]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag) + (0,) * (size - len(diag))


def block_diagonal(*blocks: Sequence[Sequence[int]]) -> IntMatrix:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(b)
    return freeze(out)
