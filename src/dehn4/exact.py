"""Exact integer linear algebra: the determinant and signature kernels.

`det` for determinants and `signature_symmetric` for signatures are
fraction-free Bareiss elimination on arbitrary-precision integers, each
division exact (Sylvester's identity: after step k every live entry is a
(k+1)-minor).  Both take one input form, sparse rows: a sequence of n
mappings {column: entry}, one per row, with every column in range(n).  A
stored zero is allowed; the kernels copy the rows without their zeros and
never change the caller's.  A row that is not a mapping (no `items`) is
a TypeError (`k in row` would test a dense row's values, not its columns),
as is an entry whose type is not exactly int (a float, a Fraction or a
bool is refused, not coerced); a column outside range(n), or not an
int, is a ValueError, also where its entry is a stored zero.  Row
scaling is lazy: a row with a zero in the pivot column would only be
multiplied by pivot/prev, and those factors telescope, so it is left as
it is and keeps the pivot its values belong to.  The work
is O(sum of fill^2) over the steps, not O(n^3).  There is no rational
solve and no floating point anywhere.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]
SparseRows = Sequence[Mapping[int, int]]


def _copy(m: SparseRows) -> list[dict[int, int]]:
    """Fresh rows without zeros; refuses a row that is not a mapping, an
    entry that is not an int and a column outside range(len(m)), a stored
    zero's column too."""
    n = len(m)
    rows = []
    for i, row in enumerate(m):
        try:
            rows.append(dict(row.items()))
        except AttributeError:
            raise TypeError(
                f"row {i} must be a mapping {{column: entry}}, got {type(row).__name__}"
            ) from None
    if not set(map(type, chain.from_iterable(r.values() for r in rows))) <= {int}:
        for i, r in enumerate(rows):
            for j, x in r.items():
                if type(x) is not int:  # bool is an int subclass
                    raise TypeError(f"matrix entry [{i}][{j}] must be an int, got {x!r}")
    cols = set().union(*rows)
    if cols and (set(map(type, cols)) != {int} or min(cols) < 0 or max(cols) >= n):
        raise ValueError(f"a column outside 0..{n - 1}: non-square matrix")
    return [{j: x for j, x in r.items() if x} if 0 in r.values() else r for r in rows]


def det(m: SparseRows) -> int:
    """Determinant of a square integer matrix given by sparse rows (sparse
    fraction-free Bareiss).

    Step k takes the first live row with a nonzero in column k as the
    pivot row, swapping it into place; the sign counts the swaps, and
    the last pivot is the determinant of the row-permuted matrix.
    """
    n = len(m)
    rows = _copy(m)
    if n == 0:
        return 1
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n):
        hit = [i for i in range(k, n) if k in rows[i]]
        if not hit:
            return 0
        p = hit[0]
        if p != k:
            # rows k..p-1 have a zero in column k, so hit[1:] is unmoved
            rows[k], rows[p] = rows[p], rows[k]
            scale[k], scale[p] = scale[p], scale[k]
            sign = -sign
        prev = _eliminate(rows, scale, k, hit[1:], prev)
    return sign * prev


def signature_symmetric(m: SparseRows) -> int:
    """Signature of a symmetric integer matrix given by sparse rows, by
    symmetric sparse Bareiss.

    Symmetry is checked on the nonzeros, in O(nnz).  Symmetric swaps and
    row/column additions are congruences over Z, and each pivot is a
    leading principal minor of the congruent matrix, so pivot/prev is the
    k-th diagonal entry of a congruence diagonalization over Q.  The
    result is (#positive) - (#negative) of those entries, counted from
    the signs of pivot and prev; every division is exact.  A stored row
    differs from the current one by a positive or negative rational
    factor, so its zero pattern is that of the symmetric current matrix:
    the support of the pivot row lists the rows to update.
    """
    n = len(m)
    rows = _copy(m)
    for i, r in enumerate(rows):
        for j, x in r.items():
            if rows[j].get(i) != x:
                raise ValueError("signature of a non-symmetric matrix")
    scale = [1] * n
    order = list(range(n))
    sig = 0
    prev = 1
    for k in range(n):
        p = order[k]
        if p not in rows[p]:
            swap = next((j for j in range(k + 1, n) if order[j] in rows[order[j]]), None)
            if swap is not None:
                order[k], order[swap] = order[swap], order[k]
                p = order[k]
            elif not rows[p]:
                continue  # entire row/column is zero: null direction
            else:
                _add_row(rows, scale, p, next(iter(rows[p])), prev)
        pivot = _eliminate(rows, scale, p, None, prev)
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        prev = pivot
    return sig


def _current(rows, scale, i, prev) -> dict[int, int]:
    """Row i brought to the current step: one exact x * prev // scale[i] per entry."""
    s = scale[i]
    if s != prev:
        rows[i] = {j: x * prev // s for j, x in rows[i].items()}
        scale[i] = prev
    return rows[i]


def _eliminate(rows, scale, p, targets, prev) -> int:
    """One Bareiss step on pivot row p and column p; returns the pivot.

    targets are the rows with a nonzero in column p (None: the pivot row's
    support, for a symmetric matrix).  A target stores x = x' * s / prev
    at its own scale s, so the update (x' * pivot - f' * y) / prev of its
    current values x', f' is (x * pivot - f * y) / s: it is updated as
    stored, with an exact division, and its scale becomes the pivot.
    """
    pivot_row = _current(rows, scale, p, prev)
    pivot = pivot_row.pop(p)
    for i in pivot_row if targets is None else targets:
        r = rows[i]
        f = r.pop(p)
        s = scale[i]
        new = {j: x * pivot for j, x in r.items()}
        for j, y in pivot_row.items():
            new[j] = new.get(j, 0) - f * y
        rows[i] = {j: x // s for j, x in new.items() if x}
        scale[i] = pivot
    return pivot


def _add_row(rows, scale, k, off, prev) -> None:
    """Add row and column off to row and column k (a congruence over Z).

    Every live diagonal entry is zero here, so the new entry [k][k] is
    2 * [k][off] != 0.  Rows k and off are brought to the current step
    first; in any other row, entries [i][k] and [i][off] share a scale.
    """
    row_off = _current(rows, scale, off, prev)
    row_k = _current(rows, scale, k, prev)
    for j, y in row_off.items():
        row_k[j] = row_k.get(j, 0) + y
    rows[k] = {j: x for j, x in row_k.items() if x}
    for i in row_off:  # the rows with [i][off] != 0, k among them
        r = rows[i]
        x = r.get(k, 0) + r[off]
        if x:
            r[k] = x
        else:
            del r[k]  # x == 0 needs r[k] == -r[off] != 0
