"""Exact integer linear algebra, and the checked-leaf layer of `seifert`.

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

The rest is the code `seifert` runs only on a checked leaf, the matrix
that `SeifertMatrix(entries)` or `SeifertMatrix.from_rows` makes from a
caller's rows.  `seifert` imports this module exactly then, so a report
on table knots and their derived matrices compiles none of it:
  * the trust boundary, `check_ints` and `checked`: every entry an int,
    every column in range, an even size and det(V - V^T) = 1, taken once
    per distinct block (see `checked`); it returns V's rows without
    their zeros and its distinct blocks, the classes [B, plus, minus,
    det B] that the leaf keeps;
  * the leaf's invariants from those classes: `leaf_signature`, the sum
    of (plus - minus) * sigma(B + B^T); `block_dets`, each det B on first
    use, which is also the top coefficient of B's Delta, for
    `seifert.alexander_span`; and `leaf_alexander`, the product of the
    blocks' Delta, each interpolated from k/2 determinants for a block
    of size k (`_interpolated_alexander`).
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from math import comb
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .laurent import LaurentPoly

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


def check_ints(rows: list[dict[int, int]]) -> None:
    """An entry that is not an int (bool, float, str) is a ValueError naming [i][j]."""
    if set(map(type, chain.from_iterable(row.values() for row in rows))) <= {int}:
        return
    for i, row in enumerate(rows):
        for j, x in row.items():
            if type(x) is not int:  # bool is an int subclass
                raise ValueError(f"matrix entry [{i}][{j}] must be an integer, got {x!r}")


def checked(rows: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[list]]:
    """The int rows of V without their zeros and V's distinct blocks, once
    every column, stored zeros included, is in range, the size is even
    and det(V - V^T) = 1; or a ValueError.

    The blocks are those of `_blocks`, grouped up to sign and transpose
    into [B, plus, minus, None]: plus counts the blocks B and B^T, minus
    the blocks -B and -B^T, and `block_dets` fills in det B.  A block is
    keyed by its relabeled rows, sorted, and joins the class that holds
    one of its four keys.  One simultaneous permutation makes V - V^T
    block-diagonal, so det(V - V^T) is the product of the blocks'
    det(B - B^T); each is a Pfaffian square, >= 0 and 0 at odd size, and
    -B, B^T and -B^T share B's.  So det(V - V^T) = 1 exactly when
    det(B - B^T) = 1 for each distinct B, and that is what is taken.
    """
    n = len(rows)
    cols = set().union(*rows)
    if cols and (set(map(type, cols)) != {int} or min(cols) < 0 or max(cols) >= n):
        raise ValueError("Seifert matrix must be square")
    if n % 2 != 0:
        raise ValueError(f"Seifert matrix must have even size, got {n}")
    rows = [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in rows]
    parts: dict[tuple, list] = {}
    for block in _blocks(rows):
        key = tuple(tuple(sorted(row.items())) for row in block)
        for i, k in enumerate(_sign_and_transpose(key) if parts else ()):
            if k in parts:
                parts[k][1 + i % 2] += 1  # the keys of -B and -B^T come at odd i
                break
        else:
            parts[key] = [block, 1, 0, None]
    if any(det(_plus_transpose(block, -1)) != 1 for block, *_ in parts.values()):
        raise ValueError("det(V - V^T) must equal 1")
    return rows, list(parts.values())


def _plus_transpose(rows: SparseRows, s: int) -> list[dict[int, int]]:
    """Sparse rows of V + s * V^T, in O(nnz)."""
    out = [dict(row) for row in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            y = out[j].get(i, 0) + s * x
            if y:
                out[j][i] = y
            else:
                out[j].pop(i, None)
    return out


def _sign_and_transpose(key: tuple) -> Iterator[tuple]:
    """The keys of B, -B, B^T and -B^T, for B keyed by its sorted rows,
    each made only when the one before it is not the one looked for."""
    yield key
    yield tuple(tuple((j, -x) for j, x in row) for row in key)
    columns: list[list[tuple[int, int]]] = [[] for _ in key]
    for i, row in enumerate(key):
        for j, x in row:
            columns[j].append((i, x))  # i ascends, so each column is sorted
    transposed = tuple(map(tuple, columns))
    yield transposed
    yield tuple(tuple((j, -x) for j, x in row) for row in transposed)


def _blocks(rows: SparseRows) -> list[SparseRows]:
    """The principal blocks of V on the connected components of its support
    graph (i ~ j when V[i][j] != 0), each relabeled to 0..k-1, in
    O(nnz + n log n).

    One simultaneous permutation makes V, and so V - t*V^T, block-diagonal
    with these blocks, and det(P M P^T) = det M: Delta is the product of
    the blocks' determinants.  `checked` takes det(B - B^T), a Pfaffian
    square, of each distinct block, where det(V - V^T) is their product.
    A connected V is one block, its own rows.  A block keeps the order of
    its indices in V, so two blocks laid out alike in V get the same
    labels.
    """
    adjacent: list[list[int]] = [list(row) for row in rows]
    for i, row in enumerate(rows):
        for j in row:
            adjacent[j].append(i)
    seen = [False] * len(rows)
    position = [0] * len(rows)  # an index's label within its block
    blocks: list[list[int]] = []
    for root in range(len(rows)):
        if seen[root]:
            continue
        seen[root] = True
        members, stack = [], [root]
        while stack:
            i = stack.pop()
            members.append(i)
            for j in adjacent[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        members.sort()
        for label, i in enumerate(members):
            position[i] = label
        blocks.append(members)
    if len(blocks) == 1:
        return [rows]
    return [[{position[j]: x for j, x in rows[i].items()} for i in members] for members in blocks]


def leaf_signature(parts: list[list]) -> int:
    """sigma(V + V^T) of a checked leaf from its classes [B, plus, minus, _].

    A simultaneous permutation makes V + V^T block-diagonal, B^T + B is
    B + B^T and -B and -B^T negate it, so sigma is the sum of
    (plus - minus) * sigma(B + B^T), and a class with plus = minus, as in
    K # -K, takes no elimination.
    """
    return sum(
        (plus - minus) * signature_symmetric(_plus_transpose(block, 1))
        for block, plus, minus, _ in parts
        if plus != minus
    )


def block_dets(parts: list[list]) -> list[list]:
    """The classes [B, plus, minus, det B] of a checked leaf, each det B
    taken on first use and kept in its class.

    For B of even size k, det(-B + t*B^T) = (-1)^k det(B - t*B^T) and
    det(B^T - t*B) = det((B - t*B^T)^T), so -B, B^T and -B^T have B's
    det and Delta: a class adds plus + minus copies of B's.
    """
    if parts and parts[-1][3] is None:
        for part in parts:
            part[3] = det(part[0])
    return parts


def leaf_alexander(parts: list[list]) -> LaurentPoly:
    """Delta of a checked leaf: the product over its classes of plus +
    minus copies of the block's `_interpolated_alexander`.

    A simultaneous permutation makes V - t*V^T block-diagonal, so Delta
    is the product of the blocks' det(B - t*B^T).  A block of size k
    takes k/2 determinants of size k, det B (which `block_dets` may
    already have taken) and k/2 - 1 more, and a block equal to an
    earlier one up to sign or transpose takes none.  A sum of two g x g
    blocks then takes g determinants of size g, where the whole leaf
    would take g of size 2g, and K # -K takes g/2.
    """
    from dehn4.laurent import LaurentPoly

    delta = LaurentPoly.one()
    for block, plus, minus, top in block_dets(parts):
        block_delta = _interpolated_alexander(block, top)
        for _ in range(plus + minus):
            delta = delta * block_delta
    return delta


def _interpolated_alexander(rows: SparseRows, top: int) -> LaurentPoly:
    """det(V - t*V^T) from V's sparse rows and top = det V, for V of even
    size with det(V - V^T) = 1.

    For V of size n = 2m, f(t) = det(V - t*V^T) is palindromic,
    f(t) = t^n f(1/t), since (V - t*V^T)^T = -t(V - V^T/t) and n is even.
    So f(t)/t^m is an integer polynomial of degree <= m in Conway's
    variable u = (t - 1)^2/t: f(t) = sum_j c_j t^(m-j) (t - 1)^(2j).  The
    top coefficient is c_m = f(0) = det V, the given top, and the bottom
    one is free: t = 1 is u = 0, where f(1) = det(V - V^T) = 1, so
    c_0 = 1.  The rest come from `det` at the m - 1 integer nodes t = 2,
    -1, 3, -2, 4, ..., whose u are distinct and nonzero and whose |t|
    stays small (the entries of V - t*V^T grow with |t|), by exact Newton
    interpolation over Fractions of f(t)/t^m - c_m u^m, which has degree
    <= m - 1, on u = 0 and those nodes.  That is m - 1 determinants.  A
    c_j that is not an integer raises ArithmeticError.

    The result is centered (Delta(t) = Delta(1/t)) with Delta(1) = 1.
    """
    # imported on first use, so that a report that interpolates nothing skips them
    from fractions import Fraction

    from dehn4.laurent import LaurentPoly

    m = len(rows) // 2

    def f(t: int) -> int:
        return det(_plus_transpose(rows, -t))

    nodes = [2 + k // 2 if k % 2 == 0 else -1 - k // 2 for k in range(m - 1)]
    us = [Fraction(0)] + [Fraction((t - 1) ** 2, t) for t in nodes]
    dd = [Fraction(1)] + [Fraction(f(t), t**m) - top * u**m for t, u in zip(nodes, us[1:])]
    # in place: after step k, dd[i] is the divided difference on nodes i-k .. i
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (us[i] - us[i - k])
    # expand the Newton form dd[0] + dd[1](u - u0) + ... by Horner's rule,
    # lowest degree first: cs <- cs * (u - u_k) + dd[k]
    cs: list[Fraction] = []
    for k in range(m - 1, -1, -1):
        cs = [a - us[k] * b for a, b in zip([0] + cs, cs + [0])]
        cs[0] += dd[k]
    if any(c.denominator != 1 for c in cs):
        raise ArithmeticError("det(V - t*V^T) is not an integer polynomial in (t - 1)^2/t")
    # sum_j c_j t^(m-j) (t - 1)^(2j), expanded by binomials; LaurentPoly adds like terms
    return LaurentPoly(
        (m - j + i, (-1) ** i * comb(2 * j, i) * c)
        for j, c in enumerate([int(c) for c in cs] + [top])
        for i in range(2 * j + 1)
    ).normalized()
