"""Seifert matrices and algebraic concordance obstructions.

A Seifert matrix is a square integer matrix V of even size 2g with
det(V - V^T) = 1 (V - V^T is then a unimodular skew form, the intersection
form of a genus-g surface with one boundary component).  This module
provides constructors for a small table of knots, the usual algebra
(mirror, reverse, connected sum, parallel cabling), and the obstruction
chain: signature, Alexander polynomial, Fox-Milnor factorization test,
and a three-valued sliceness verdict.

`SeifertMatrix` keeps V as immutable sparse rows, the input form of the
`exact` kernels.  The public constructors, `SeifertMatrix(entries)` and
`SeifertMatrix.from_rows`, are the one trust boundary: every matrix that
enters there, from a `{"seifert": ...}` spec or a caller's rows, is
checked at once in this order: each entry an int, the matrix square (a
stored zero's column too), its size even, and det(V - V^T) = 1.  The last
is taken by `det` once per distinct block: `_checked` splits V into the
principal blocks on the components of its support graph (`_blocks`) and
groups them up to sign and transpose, and det(V - V^T) is the product of
the blocks' det(B - B^T), Pfaffian squares, so it is 1 exactly when each
is.  Such a matrix is a checked leaf, and keeps those classes.  Every
other matrix is a builder record made by `SeifertMatrix._from_origin`,
which stores only the size of V and its origin, one of:
  * a table knot and its parameters: the unknot, a twist knot, a
    Whitehead double or a torus knot;
  * ("signed", W, s, transposed), which is s * W^T or s * W for s = +-1:
    `mirror` is (-1, transposed), `reverse` (1, transposed) and
    `concordance_inverse` (-1, not transposed).  W is never itself
    signed: the signs multiply and the transposes cancel, so a chain of
    these is one level deep;
  * ("sum", summands), the flat tuple of a connected sum's summands, none
    of them a sum, so a chain of sums of any length is one level deep;
  * ("cable", W, n), the n-cable of W for n >= 2.
The rows are built from the origin on first read, in O(nonzeros), so a
report that never reads them builds none, and they are never checked.  A
table knot's rows are code, not input: nothing a user writes reaches them
but the parameters, so the tests, not the reports, take their
det(V - V^T) = 1: for every coprime 2 <= p < q <= 30, for twist knots
with -50 <= m <= 50, and for both clasps.  A derived matrix gets
det(V - V^T) = 1 from its parents by an identity that its builder's
docstring names, and the tests take that determinant again from a dense
oracle.  So `exact` is imported only when a checked leaf is made or runs
a kernel.  A pickle replays the origin's builder on its parameters or
parents (`_BUILDERS`), so a matrix unpickles with the same origin and
runs no kernel; a checked leaf re-enters through `from_rows`.  Only
`SeifertMatrix.entries`, a view for text and tests, is dense: JSON
reports write the sparse rows themselves.

The two invariants are evaluated over that record.  A table knot reads
them from closed forms.  A torus knot T(p, q) takes the signature from
the Gordon-Litherland-Murasugi lattice count in O(min(p, q)) steps
(Gordon, Litherland and Murasugi 1981), and Delta = (t^pq - 1)(t - 1) /
((t^p - 1)(t^q - 1)) by long division in O(pq) (Rolfsen 1976).  The
twist knot with m full twists has sigma = -2 for m < 0 and 0 for m >= 0,
and Delta = -m*t + (2m + 1) - m/t; a Whitehead double and the unknot
have sigma = 0 and Delta = 1 (each from its 2 x 2 matrix, see
`twist_knot_seifert` and `whitehead_double_seifert`).  A derived matrix
takes them from its parents, by the classical identities
(Seifert 1950; Lickorish 1997, ch. 6 and 8):
  * sigma(s * W^T) = sigma(s * W) = s * sigma(W), and Delta is kept;
  * a connected sum adds signatures and multiplies Alexander polynomials;
  * the n-cable has Delta_W(t^n), and sigma(W) for odd n and 0 for even
    n, by Litherland's satellite formula (Litherland 1979).
The -n-cable of W is the n-cable of W^T and the 1-cable is W itself, so
`parallel_cable` returns W or its reverse for n = +-1.  A cable with
|n| >= 2 nests one level and is |n| times its parent's size, so a chain
of depth d has size at least 2^d.  The kernels run only on the checked
leaves, one distinct block at a time (one block for a connected V): a
simultaneous permutation makes V + V^T and V - t*V^T block-diagonal.
`signature` passes the kernel the sparse rows of B + B^T, and a block
and its negative cancel, so K # -K takes no elimination.
`alexander_polynomial` is the product of the blocks' det(B - t*B^T),
each interpolated on its own from k/2 determinants for a block of size
k.  A sum of two g x g blocks then takes g determinants of size g, where
the whole leaf would take g of size 2g.  Blocks equal up to sign or
transpose share one Delta, so K # -K takes g/2.  The first of a block's
determinants, det B, is also its top coefficient, so `alexander_span`
reads the span of Delta from the record and from one det B per distinct
block: the Fox-Milnor test refuses a Delta wider than its bound before
any interpolation.  Each kernel result is kept on its immutable leaf, so
the one companion of a report is eliminated once however many class
knots are built from it.

Sign conventions (documented, tests pin them down):
  * the right-handed trefoil torus_knot_seifert(2, 3) has signature -2;
  * signatures of positive torus knots are negative.
"""
from __future__ import annotations

from enum import Enum
from functools import partial, reduce
from itertools import chain
from math import comb, gcd, isqrt, prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .laurent import LaurentPoly
# the two live in scenarios, so that the sphere reports and config files load no seifert
from .scenarios import is_single_line, parse_json

if TYPE_CHECKING:
    from .exact import IntMatrix, SparseRows


class SeifertMatrix:
    """Integer Seifert matrix V of even size 2g with det(V - V^T) = 1.

    V is kept as immutable sparse rows: `rows[i]` is a read-only mapping
    {j: V[i][j]} of the nonzeros of row i, the form the kernels take.
    `SeifertMatrix(entries)` takes dense rows and `SeifertMatrix.from_rows`
    sparse ones; both check what they are given (see the module
    docstring), and make a checked leaf.  A table knot or a derived matrix
    comes from `_from_origin` and builds its `rows` from its origin on
    first read.  Only a checked leaf runs the kernels, on the distinct
    blocks it keeps from its check, and keeps their results, the
    signature and the Alexander polynomial; every other matrix reads its
    invariants from its origin.  Equality and hashing read `rows` only,
    so neither the origin nor a kept result changes them.  `entries` is
    a dense view, a new tuple of tuples on each access.  The matrix is
    immutable, so a copy or a deep copy is the matrix itself, and a
    pickle replays how it was made.
    """

    __slots__ = ("_rows", "size", "_origin", "_signature", "_alexander", "_parts")

    def __init__(self, entries: Iterable[Iterable[int]]):
        dense = [list(row) for row in entries]
        if not set(map(type, chain.from_iterable(dense))) <= {int}:
            _check_ints([dict(enumerate(row)) for row in dense])
        if any(len(row) != len(dense) for row in dense):
            raise ValueError("Seifert matrix must be square")
        rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
        self._store(None, len(rows), *_checked(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, int]]) -> SeifertMatrix:
        """From sparse rows {column: entry}, one per row; zeros may be stored."""
        sparse = [dict(row) for row in rows]
        _check_ints(sparse)
        v = cls.__new__(cls)
        v._store(None, len(sparse), *_checked(sparse))
        return v

    @classmethod
    def _from_origin(cls, origin: tuple, size: int) -> SeifertMatrix:
        """V of the given size, unchecked, whose rows `_build_rows` makes
        from origin on first read.

        origin is a table knot: ("unknot",), ("twist", m) for the twist
        knot with m full twists, ("whitehead", clasp) for the untwisted
        Whitehead double with clasp "+" or "-", or ("torus", p, q) for the
        positive torus knot T(p, q) with 2 <= p < q coprime.  Or it is how
        V was built: ("signed", W, s, transposed) for s * W^T or s * W,
        with W not signed and s = +-1; ("sum", summands) with a flat tuple
        of summands, none of them a sum; or ("cable", W, n) with n >= 2.
        The caller vouches for the size, and each builder's docstring names
        the identity that gives a derived V det(V - V^T) = 1.  A table
        knot's rows are never checked here: the tests take their
        det(V - V^T).
        """
        v = cls.__new__(cls)
        v._store(origin, size, None, None)
        return v

    def _store(
        self, origin: tuple | None, size: int, rows: list[dict[int, int]] | None, parts: list | None
    ) -> None:
        object.__setattr__(self, "_origin", origin)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_rows", None if rows is None else _frozen(rows))
        object.__setattr__(self, "_signature", None)
        object.__setattr__(self, "_alexander", None)
        object.__setattr__(self, "_parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("SeifertMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("SeifertMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self.rows))

    def __repr__(self) -> str:
        return f"SeifertMatrix(entries={self.entries!r})"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        if self._origin is None:
            return SeifertMatrix.from_rows, ([dict(row) for row in self.rows],)
        return _BUILDERS[self._origin[0]], self._origin[1:]

    @property
    def rows(self) -> tuple[Mapping[int, int], ...]:
        if self._rows is None:
            object.__setattr__(self, "_rows", _frozen(_build_rows(self)))
        return self._rows

    @property
    def entries(self) -> IntMatrix:
        """V as new dense tuples, each filled once from its sparse row."""
        out = []
        for row in self.rows:
            dense = [0] * self.size
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    @property
    def genus(self) -> int:
        return self.size // 2


def _frozen(rows: list[dict[int, int]]) -> tuple[Mapping[int, int], ...]:
    return tuple(MappingProxyType(row) for row in rows)


def _check_ints(rows: list[dict[int, int]]) -> None:
    """An entry that is not an int (bool, float, str) is a ValueError naming [i][j]."""
    if set(map(type, chain.from_iterable(row.values() for row in rows))) <= {int}:
        return
    for i, row in enumerate(rows):
        for j, x in row.items():
            if type(x) is not int:  # bool is an int subclass
                raise ValueError(f"matrix entry [{i}][{j}] must be an integer, got {x!r}")


def _checked(rows: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[list]]:
    """The int rows of V without their zeros and V's distinct blocks, once
    every column, stored zeros included, is in range, the size is even
    and det(V - V^T) = 1; or a ValueError.

    The blocks are those of `_blocks`, grouped up to sign and transpose
    into [B, plus, minus, None]: plus counts the blocks B and B^T, minus
    the blocks -B and -B^T, and `_leaf_parts` fills in det B.  A block is
    keyed by its relabeled rows, sorted, and joins the class that holds
    one of its four keys.  One simultaneous permutation makes V - V^T
    block-diagonal, so det(V - V^T) is the product of the blocks'
    det(B - B^T); each is a Pfaffian square, >= 0 and 0 at odd size, and
    -B, B^T and -B^T share B's.  So det(V - V^T) = 1 exactly when
    det(B - B^T) = 1 for each distinct B, and that is what is taken.
    """
    # imported here, so that a report on table knots alone loads no exact
    from dehn4.exact import det

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


def _transpose(rows: SparseRows, s: int = 1) -> list[dict[int, int]]:
    """Sparse rows of s * V^T."""
    out: list[dict[int, int]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = s * x
    return out


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


def unknot() -> SeifertMatrix:
    """The empty (0x0) Seifert matrix of the unknot, one shared instance.

    A table leaf with sigma = 0 and Delta = 1, so nothing checks or
    eliminates it; a pickle of it unpickles as this instance.
    """
    return _UNKNOT


_UNKNOT = SeifertMatrix._from_origin(("unknot",), 0)


def torus_knot_seifert(p: int, q: int) -> SeifertMatrix:
    """Seifert matrix of the (p, q) torus knot on the fence basis.

    The surface is the Bennequin surface of the positive braid
    (s_1 ... s_{p-1})^q: p disks joined by q(p-1) bands.  The basis loops
    ("bricks") run through consecutive bands of one strand pair; brick
    (i, j) interacts only with its vertical neighbour (i, j+1) and the two
    interleaved bricks (i+1, j) and (i+1, j-1) on the next strand pair.
    The resulting matrix has size (p-1)(q-1) and the right-handed trefoil
    comes out as [[-1, 1], [0, -1]].

    The leaf records (a, b), the sorted |p| and |q|, and `signature` and
    `alexander_polynomial` read its invariants from closed forms: the
    Gordon-Litherland-Murasugi lattice count (Gordon, Litherland and
    Murasugi 1981) and Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    (Rolfsen 1976).  Its rows are built only when something reads them,
    and are not checked then: the fence basis is code, and the tests take
    its det(V - V^T) = 1 for every coprime 2 <= p < q <= 30.

    Negative parameters with p*q < 0 give the mirror image; (-p, -q) gives
    the same knot as (p, q).
    """
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")
    if abs(p) < 2 or abs(q) < 2:
        raise ValueError(f"torus knot parameters must have absolute value >= 2, got ({p}, {q})")
    mirrored = p * q < 0
    a, b = sorted((abs(p), abs(q)))
    v = SeifertMatrix._from_origin(("torus", a, b), (a - 1) * (b - 1))
    return mirror(v) if mirrored else v


def _positive_torus_bricks(p: int, q: int) -> list[dict[int, int]]:
    rows = q - 1
    n = (p - 1) * rows
    v: list[dict[int, int]] = [{} for _ in range(n)]

    def idx(i, j):
        return i * rows + j

    for i in range(p - 1):
        for j in range(rows):
            x = idx(i, j)
            v[x][x] = -1
            if j + 1 < rows:
                v[x][idx(i, j + 1)] = 1
            if i + 1 < p - 1:
                v[idx(i + 1, j)][x] = 1
                if j - 1 >= 0:
                    v[idx(i + 1, j - 1)][x] = -1
    return v


def _torus_signature(p: int, q: int) -> int:
    """sigma(T(p, q)) for coprime 2 <= p < q, by the Gordon-Litherland-
    Murasugi count: (p-1)(q-1) minus twice the number of pairs 0 < i < p,
    0 < j < q with pq < 2(iq + jp) < 3pq.  For each i those j form one
    open interval lo < 2pj < hi, counted by two floor divisions, so the
    count takes O(p) steps."""
    inside = 0
    for i in range(1, p):
        lo = max(p * q - 2 * i * q, 0)
        hi = min(3 * p * q - 2 * i * q, 2 * p * q)
        inside += (hi - 1) // (2 * p) - lo // (2 * p)
    return (p - 1) * (q - 1) - 2 * inside


def _torus_alexander(p: int, q: int) -> LaurentPoly:
    """Delta of T(p, q): the exact quotient of (t^pq - 1)(t - 1) by
    (t^p - 1)(t^q - 1) = 1 - t^p - t^q + t^(p+q), of degree n = (p-1)(q-1).

    Long division from the lowest degree, by a divisor with constant term
    1, gives c_k = a_k + c_(k-p) + c_(k-q) - c_(k-p-q), with a_k the
    numerator's coefficients: O(pq) steps, every c_k in {-1, 0, 1}.  The
    quotient is palindromic with value 1 at t = 1, so centering it
    normalizes it.
    """
    n = (p - 1) * (q - 1)
    numerator = {0: 1, 1: -1, p * q: -1, p * q + 1: 1}  # (t^pq - 1)(t - 1)
    c = [0] * (n + 1)
    for k in range(n + 1):
        c[k] = numerator.get(k, 0)
        if k >= p:
            c[k] += c[k - p]
        if k >= q:
            c[k] += c[k - q]
        if k >= p + q:
            c[k] -= c[k - p - q]
    return LaurentPoly((k - n // 2, x) for k, x in enumerate(c))


def twist_knot_seifert(m: int) -> SeifertMatrix:
    """Genus-1 matrix [[-1, 1], [0, m]] of the twist knot with m full twists.

    m = -1 is the right-handed trefoil, m = 1 the figure-eight,
    m = 2 the stevedore knot; m = 0 is a genus-1 surface for the unknot.

    The leaf records m, and `signature` and `alexander_polynomial` read
    its invariants from closed forms: V + V^T = [[-2, 1], [1, 2m]] has
    determinant -4m - 1, so sigma = -2 for m < 0 and 0 for m >= 0, and
    det(V - t*V^T) = t - m(t - 1)^2 gives Delta = -m*t + (2m + 1) - m/t.
    Its skew form V - V^T = [[0, 1], [-1, 0]] has determinant 1 for every
    m, and the tests check all three against the kernels.  An m that is
    not an int (a bool, a float) is a ValueError.
    """
    if type(m) is not int:  # bool is an int subclass
        raise ValueError(f"twist knot parameter m must be an integer, got {m!r}")
    return SeifertMatrix._from_origin(("twist", m), 2)


def whitehead_double_seifert(clasp: str) -> SeifertMatrix:
    """Untwisted Whitehead double with the given clasp sign ('+' or '-'):
    the genus-1 matrix [[c, 1], [0, 0]] with c = -1 for '+' and 1 for '-'.

    The untwisted double's Seifert form does not see the companion knot,
    so its Alexander polynomial is 1 for either clasp: det(V - t*V^T) = t.
    V + V^T = [[2c, 1], [1, 0]] has determinant -1, so sigma = 0.  The
    leaf records the clasp and reads both from those closed forms, which
    the tests check against the kernels.
    """
    if clasp not in ("+", "-"):
        raise ValueError(f"clasp must be '+' or '-', got {clasp!r}")
    return SeifertMatrix._from_origin(("whitehead", clasp), 2)


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Mirror image: -V^T."""
    return _signed(v, -1, True)


def reverse(v: SeifertMatrix) -> SeifertMatrix:
    """Orientation reverse: V^T."""
    return _signed(v, 1, True)


def concordance_inverse(v: SeifertMatrix) -> SeifertMatrix:
    """Reversed mirror -V, the inverse in algebraic concordance."""
    return _signed(v, -1, False)


def _signed(v: SeifertMatrix, s: int, transposed: bool) -> SeifertMatrix:
    """s * V^T when transposed, else s * V, for s = +-1.

    Unchecked: the skew form of s * V is s(V - V^T) and that of s * V^T is
    -s(V - V^T), and det(-A) = det A at even size.  On a V that is itself
    r * W^T or r * W the signs multiply and the transposes cancel, and W
    itself comes back when both do: a chain of these is one level deep.
    """
    match v._origin:
        case ("signed", w, r, t):
            v, s, transposed = w, r * s, t != transposed
    if s == 1 and not transposed:
        return v
    return SeifertMatrix._from_origin(("signed", v, s, transposed), v.size)


def connected_sum(v: SeifertMatrix, w: SeifertMatrix) -> SeifertMatrix:
    """V and W as the two diagonal blocks, recorded as the flat tuple of
    the summands of both, none of them a sum.

    Unchecked: the skew form is block-diagonal with blocks V - V^T and
    W - W^T, and a block-diagonal determinant is the product of its
    blocks, 1 * 1.
    """
    parts = [x._origin[1] if x._origin and x._origin[0] == "sum" else (x,) for x in (v, w)]
    return SeifertMatrix._from_origin(("sum", parts[0] + parts[1]), v.size + w.size)


def parallel_cable(v: SeifertMatrix, n: int) -> SeifertMatrix:
    """Seifert matrix built from n parallel copies of the surface of V.

    The copies are stacked in the positive pushoff direction, banded into
    one surface: diagonal blocks V, blocks above the diagonal V, blocks
    below V^T.  The boundary winds n times along the original knot, so the
    Alexander polynomial is Delta_V(t^n) up to units, by Seifert's
    satellite formula (Seifert 1950; Lickorish 1997, ch. 6):
    `alexander_polynomial` of a cable reads it from that formula.

    Negative n stacks |n| copies of the reversed surface (the curve runs
    backwards along the companion), so it is the |n|-cable of
    `reverse(V)`.  The rows of the 1-cable are V itself, so n = 1 returns
    V and n = -1 returns `reverse(V)`, so a chain of +-1 cables is V or
    its reverse.  Only an n >= 2 cable records its own origin.

    Unchecked: with B = V (n > 0) or V^T (n < 0), the skew form has
    diagonal blocks B - B^T and off-diagonal blocks B - (B^T)^T = 0, so it
    is block-diagonal with |n| copies of +-(V - V^T), each of determinant 1
    (det(-A) = det A at even size).
    """
    if n == 0:
        raise ValueError("parallel cable requires n != 0")
    if n < 0:
        v, n = reverse(v), -n
    return v if n == 1 else SeifertMatrix._from_origin(("cable", v, n), n * v.size)


# the builder that replays each origin on its parameters or parents, for pickles
_BUILDERS = {
    "unknot": unknot,
    "twist": twist_knot_seifert,
    "whitehead": whitehead_double_seifert,
    "torus": torus_knot_seifert,
    "signed": _signed,
    "sum": partial(reduce, connected_sum),
    "cable": parallel_cable,
}


def _build_rows(v: SeifertMatrix) -> list[dict[int, int]]:
    """The sparse rows of a V made by `_from_origin`, from its origin, in
    O(nonzeros).  A table knot's rows are code, unchecked: the tests take
    det(V - V^T) of `_positive_torus_bricks` and of the genus-1 rows, so
    no report takes it again.  Derived rows are built from their parents'
    `rows`."""
    match v._origin:
        case ("torus", p, q):
            return _positive_torus_bricks(p, q)
        case ("twist", m):
            return [{0: -1, 1: 1}, {1: m} if m else {}]
        case ("whitehead", clasp):
            return [{0: -1 if clasp == "+" else 1, 1: 1}, {}]
        case ("unknot",):
            return []
        case ("signed", w, s, transposed):
            if transposed:
                return _transpose(w.rows, s)
            return [{j: s * x for j, x in row.items()} for row in w.rows]
        case ("sum", parts):
            out, offset = [], 0
            for w in parts:
                out += ({j + offset: x for j, x in row.items()} for row in w.rows)
                offset += w.size
            return out
        case ("cable", w, n):
            base, base_t = w.rows, _transpose(w.rows)
            g2 = len(base)
            out = []
            for bi in range(n):
                for i in range(g2):
                    row = {}
                    for bj in range(n):
                        blk = base if bi <= bj else base_t
                        for j, x in blk[i].items():
                            row[bj * g2 + j] = x
                    out.append(row)
            return out
    raise AssertionError(f"internal error: no rows for origin {v._origin!r}")


def signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T.

    A table knot reads it from a closed form: a torus leaf from the
    Gordon-Litherland-Murasugi count, the twist knot with m full twists
    has -2 for m < 0 and 0 for m >= 0, and a Whitehead double and the
    unknot have 0.  A derived V takes it from its parents: s * W^T and
    s * W have s * sigma(W), a connected sum adds over its summands, and
    the n-cable has sigma(W) for odd n and 0 for even n.  The last is
    Litherland's satellite formula
    sigma_w(P(K)) = sigma_w(P) + sigma_(w^m)(K) at w = -1 (Litherland
    1979): the pattern P of `parallel_cable` is unknotted, with winding
    number m = n, and the Levine-Tristram signature sigma_1 is 0.  Only a
    checked leaf runs exact congruence diagonalization, once per distinct
    block B of `_checked`: a simultaneous permutation makes V + V^T
    block-diagonal, B^T + B is B + B^T and -B and -B^T negate it, so sigma
    is the sum of (plus - minus) * sigma(B + B^T), and a class with
    plus = minus, as in K # -K, takes no elimination.  The result is kept
    on the leaf.
    """
    match v._origin:
        case ("torus", p, q):
            return _torus_signature(p, q)
        case ("signed", w, s, _):
            return s * signature(w)
        case ("cable", w, n):
            return signature(w) if n % 2 else 0
        case ("sum", parts):
            return sum(map(signature, parts))
        case ("twist", m):
            return -2 if m < 0 else 0
        case ("whitehead", _) | ("unknot",):
            return 0
    if v._signature is None:
        from dehn4.exact import signature_symmetric

        sig = sum(
            (plus - minus) * signature_symmetric(_plus_transpose(block, 1))
            for block, plus, minus, _ in v._parts
            if plus != minus
        )
        object.__setattr__(v, "_signature", sig)
    return v._signature


def alexander_polynomial(v: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial det(V - t*V^T).

    A table knot reads it from a closed form: a torus leaf from
    `_torus_alexander`, the twist knot with m full twists has
    -m*t + (2m + 1) - m/t, and a Whitehead double and the unknot have 1.
    A derived V takes it from its parents: s * W^T and s * W keep Delta,
    a connected sum multiplies over its summands, and the n-cable of W
    has Delta_W(t^n) (Seifert's satellite formula).  Products and
    substitutions of normalized polynomials are normalized.  A checked
    leaf is the product over its distinct blocks (`_leaf_parts`) of their
    `_interpolated_alexander`: a block of size k takes k/2 determinants
    of size k, det B, which `alexander_span` may already have taken, and
    k/2 - 1 more; a block equal to an earlier one up to sign or transpose
    takes none.  It is computed once: the result is kept on the matrix.
    """
    match v._origin:
        case ("torus", p, q):
            return _torus_alexander(p, q)
        case ("signed", w, *_):
            return alexander_polynomial(w)
        case ("sum", parts):
            return prod(map(alexander_polynomial, parts), start=LaurentPoly.one())
        case ("cable", w, n):
            return alexander_polynomial(w).substituted(n)
        case ("twist", m):
            return LaurentPoly({-1: -m, 0: 2 * m + 1, 1: -m})
        case ("whitehead", _) | ("unknot",):
            return LaurentPoly.one()
    if v._alexander is None:
        delta = LaurentPoly.one()
        for block, plus, minus, top in _leaf_parts(v):
            block_delta = _interpolated_alexander(block, top)
            for _ in range(plus + minus):
                delta = delta * block_delta
        object.__setattr__(v, "_alexander", delta)
    return v._alexander


def alexander_span(v: SeifertMatrix) -> int:
    """The span of `alexander_polynomial(v)`, by the identities that give
    Delta, without building Delta where they allow.

    A torus leaf T(p, q) has span (p - 1)(q - 1), a twist knot 2 (0 at
    m = 0), a Whitehead double and the unknot 0.  s * W^T and s * W keep
    the span, a sum adds its summands', and the n-cable multiplies it by
    |n|.  In a checked leaf a block B of size k with det B != 0 adds k:
    f(t) = det(B - t*B^T) has f(0) = det B, and its top coefficient
    det(-B^T) = det B too, so Delta_B spans all of 0..k.  So a leaf
    whose blocks are all nonsingular takes one
    determinant per distinct block, and `_leaf_parts` keeps each det B
    for `alexander_polynomial`.  A leaf with a block of det B = 0 reads
    the span off Delta.
    """
    match v._origin:
        case ("torus", p, q):
            return (p - 1) * (q - 1)
        case ("signed", w, *_):
            return alexander_span(w)
        case ("sum", parts):
            return sum(map(alexander_span, parts))
        case ("cable", w, n):
            return n * alexander_span(w)
        case ("twist", m):
            return 2 if m else 0
        case ("whitehead", _) | ("unknot",):
            return 0
    parts = _leaf_parts(v)
    if all(top for *_, top in parts):
        return sum((plus + minus) * len(block) for block, plus, minus, _ in parts)
    return alexander_polynomial(v).span


def _leaf_parts(v: SeifertMatrix) -> list[list]:
    """The distinct blocks [B, plus, minus, det B] of the checked leaf v,
    as `_checked` groups them, each det B taken on first use and kept.

    For B of even size k, det(-B + t*B^T) = (-1)^k det(B - t*B^T) and
    det(B^T - t*B) = det((B - t*B^T)^T), so -B, B^T and -B^T have B's
    det and Delta: a class adds plus + minus copies of B's.
    """
    parts = v._parts
    if parts and parts[-1][3] is None:
        from dehn4.exact import det

        for part in parts:
            part[3] = det(part[0])
    return parts


def _sign_and_transpose(key: tuple) -> Iterable[tuple]:
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
    the blocks' determinants.  `_checked` takes det(B - B^T), a Pfaffian
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


def _interpolated_alexander(rows: SparseRows, top: int) -> LaurentPoly:
    """The kernel of `alexander_polynomial`: det(V - t*V^T) from V's sparse
    rows and top = det V, for V of even size with det(V - V^T) = 1.

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

    from dehn4.exact import det

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


class FactorizationBoundError(ValueError):
    """Polynomial degree exceeds the configured Fox-Milnor search bound."""


class FoxMilnorFailure(NamedTuple):
    kind: str  # "determinant" or "factorization"
    detail: str
    determinant: int | None = None


class FoxMilnorResult(NamedTuple):
    passed: bool
    factor: LaurentPoly | None = None
    failure: FoxMilnorFailure | None = None


FOX_MILNOR_DEGREE_BOUND = 16  # the widest span of Delta that fox_milnor factors


def fox_milnor(delta: LaurentPoly) -> FoxMilnorResult:
    """Test whether delta(t) = f(t) * f(1/t) up to units, exactly.

    delta is unit-normalized, so it is palindromic with delta(1) = 1, and
    the test fails in one of two ways, each with its witness:
      determinant    |delta(-1)| = f(-1)^2 is not a perfect square;
      factorization  a self-reciprocal irreducible factor over Z has odd
                     multiplicity.
    No other failure can happen: the integer content divides delta(1) = 1,
    and since delta(0) != 0 after shifting, unique factorization in Z[t]
    gives each factor g and its reciprocal g* the same multiplicity.
    Passing returns one f, checked by multiplying out; a factorization
    that broke either fact would be an internal error, never a verdict.

    The factors over Z come from `factor.factor_list`, in pure Python, so
    the test needs no dependency; sympy is its oracle in the tests only.
    They are read in the order (degree, multiplicity, coefficients): f
    takes the first of each pair {g, g*}, and a failure names the first
    self-reciprocal factor of odd multiplicity, printed as sympy's `sstr`
    prints it.

    Raises FactorizationBoundError when the polynomial degree exceeds
    FOX_MILNOR_DEGREE_BOUND (an "out of configured range" error, distinct
    from a failed test).  `algebraic_slice_verdict` refuses such a Delta
    with the same message from `alexander_span`, before Delta is built,
    so it calls this test only within the bound.
    """
    norm = delta.normalized()
    if norm.span > FOX_MILNOR_DEGREE_BOUND:
        raise FactorizationBoundError(_beyond_bound(norm.span))
    # Delta(-1), an integer: each term is +-c by the parity of its exponent
    det_int = abs(sum(-c if e % 2 else c for e, c in norm.coeffs.items()))
    if isqrt(det_int) ** 2 != det_int:
        return FoxMilnorResult(
            passed=False,
            failure=FoxMilnorFailure(
                kind="determinant",
                detail=f"|Delta(-1)| = {det_int} is not a perfect square",
                determinant=det_int,
            ),
        )
    if norm.is_one():
        return FoxMilnorResult(passed=True, factor=LaurentPoly.one())

    # imported on first use, so that a report that factors nothing skips it
    from .factor import factor_list

    shifted = norm.shifted(-norm.min_exp)  # ordinary polynomial, nonzero constant term
    coeffs = shifted.coeffs
    # the content is +-1 (it divides Delta(1) = 1), and factor_list gives
    # each irreducible factor once, with its multiplicity
    factors = factor_list([coeffs.get(e, 0) for e in range(norm.span, -1, -1)])

    f = LaurentPoly.one()
    seen: set[tuple[int, ...]] = set()
    for key, e in factors:
        if key in seen:
            continue
        rkey = _reciprocal_key(key)
        if rkey == key and e % 2 != 0:
            return FoxMilnorResult(
                passed=False,
                failure=FoxMilnorFailure(
                    kind="factorization",
                    detail=f"self-reciprocal factor {_poly_text(key)} has odd multiplicity {e}",
                ),
            )
        # g* has the multiplicity of g, so f takes g^e, or g^(e/2) when g = g*
        glaur = _to_laurent(key)
        for _ in range(e // 2 if rkey == key else e):
            f = f * glaur
        seen.update((key, rkey))

    product = (f * f.reciprocal()).normalized()
    if product != norm:
        raise AssertionError("internal error: paired factorization does not reproduce Delta")
    return FoxMilnorResult(passed=True, factor=f)


def _beyond_bound(span: int) -> str:
    return f"polynomial degree {span} exceeds bound {FOX_MILNOR_DEGREE_BOUND}"


def _poly_key(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients, leading first, of the one of +-g whose leading
    coefficient is positive."""
    return coeffs if coeffs[0] > 0 else tuple(-c for c in coeffs)


def _reciprocal_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """The key of g*(t) = t^deg g(1/t); no factor of Delta is divisible by
    t, so g(0) != 0 and g* has the degree of g."""
    return _poly_key(key[::-1])


def _to_laurent(key: tuple[int, ...]) -> LaurentPoly:
    deg = len(key) - 1
    return LaurentPoly({deg - i: c for i, c in enumerate(key)})


def _poly_text(key: tuple[int, ...]) -> str:
    """The polynomial in t with these coefficients, leading first and
    positive, as sympy's `sstr` prints it: terms by falling degree, `**`
    for powers, `*` after a coefficient other than 1, and no term for a
    zero coefficient, e.g. `2*t**2 - 5*t + 2`."""
    deg = len(key) - 1
    parts = []
    for i, c in enumerate(key):
        if c:
            e = deg - i
            power = "" if e == 0 else "t" if e == 1 else f"t**{e}"
            term = str(abs(c)) if e == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            parts.append(term if not parts else f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)


class SliceTag(Enum):
    OBSTRUCTED_BY_SIGNATURE = "ObstructedBySignature"
    OBSTRUCTED_BY_FOX_MILNOR = "ObstructedByFoxMilnor"
    UNKNOWN = "Unknown"


class SliceVerdict(NamedTuple):
    """Outcome of the algebraic sliceness obstruction chain.

    Obstructed verdicts always carry a reproducible witness: the nonzero
    signature, or the Fox-Milnor failure.  Unknown never asserts
    sliceness.
    """

    tag: SliceTag
    signature: int | None = None
    fox_milnor: FoxMilnorResult | None = None
    note: str | None = None


def algebraic_slice_verdict(v: SeifertMatrix, memo: dict | None = None) -> SliceVerdict:
    """Signature first, then Fox-Milnor; Unknown when neither obstructs.

    A Delta whose span exceeds FOX_MILNOR_DEGREE_BOUND is refused from
    `alexander_span(v)` before Delta is built, with the note of `fox_milnor`'s
    FactorizationBoundError.  memo, when given, maps each Delta already
    tested to its `fox_milnor` result: a caller that asks about several
    knots of one report can pass one dict, so a Delta they share is
    factored once.
    """
    sig = signature(v)
    if sig != 0:
        return SliceVerdict(tag=SliceTag.OBSTRUCTED_BY_SIGNATURE, signature=sig)
    span = alexander_span(v)
    if span > FOX_MILNOR_DEGREE_BOUND:
        return SliceVerdict(tag=SliceTag.UNKNOWN, signature=0, note=_beyond_bound(span))
    delta = alexander_polynomial(v)
    fm = None if memo is None else memo.get(delta)
    if fm is None:
        fm = fox_milnor(delta)
        if memo is not None:
            memo[delta] = fm
    if not fm.passed:
        return SliceVerdict(tag=SliceTag.OBSTRUCTED_BY_FOX_MILNOR, signature=0, fox_milnor=fm)
    return SliceVerdict(tag=SliceTag.UNKNOWN, signature=0, fox_milnor=fm)


class Knot(NamedTuple):
    """A named knot given by a Seifert matrix."""

    name: str
    matrix: SeifertMatrix


_NAMED_KNOTS = {
    "unknot": lambda: unknot(),
    "trefoil": lambda: torus_knot_seifert(2, 3),
    "right-trefoil": lambda: torus_knot_seifert(2, 3),
    "left-trefoil": lambda: mirror(torus_knot_seifert(2, 3)),
    "figure-eight": lambda: twist_knot_seifert(1),
    "stevedore": lambda: twist_knot_seifert(2),
    "whitehead-double-positive": lambda: whitehead_double_seifert("+"),
    "whitehead-double-negative": lambda: whitehead_double_seifert("-"),
}


def knot_names() -> tuple[str, ...]:
    return tuple(sorted(_NAMED_KNOTS))


def _spec_error(field: str, expected: str, value) -> ValueError:
    import json

    return ValueError(
        f"knot spec field {field!r} must be {expected}, got {json.dumps(value, default=repr)}"
    )


def _spec_int(value, field: str) -> int:
    if type(value) is not int:  # bool is an int subclass
        raise _spec_error(field, "an integer", value)
    return value


def knot_from_spec(spec) -> Knot:
    """Build a knot from a name or a JSON-style specification.

    Accepted forms:
      "trefoil"                        built-in name (see knot_names())
      {"name": "trefoil"}              same, as an object
      {"torus": [p, q]}                torus knot
      {"twist": m}                     twist knot
      {"whitehead": "+"}               untwisted Whitehead double
      {"seifert": [[...], ...]}        explicit Seifert matrix,
                                       optional "name" label
    A string that parses as JSON is treated as the object form.  Numbers
    must be integers (not booleans) and "name" a string without line
    breaks or control characters; anything else is a ValueError that
    names the field.
    """
    if isinstance(spec, Knot):
        return spec
    if isinstance(spec, str):
        stripped = spec.strip()
        if stripped.startswith("{"):
            try:
                data = parse_json(stripped)
            except ValueError as exc:
                raise ValueError(f"invalid knot JSON: {exc}") from None
            try:
                return knot_from_spec(data)
            except RecursionError:  # json.dumps of a value the decoder just managed
                raise ValueError("invalid knot JSON: nested too deeply") from None
        if stripped in _NAMED_KNOTS:
            return Knot(stripped, _NAMED_KNOTS[stripped]())
        raise ValueError(
            f"unknown knot name {stripped!r}; known names: {', '.join(knot_names())}"
        )
    if not isinstance(spec, dict):
        raise ValueError(f"cannot interpret knot spec of type {type(spec).__name__}")
    if "name" in spec and not isinstance(spec["name"], str):
        raise _spec_error("name", "a string", spec["name"])
    if "name" in spec and not is_single_line(spec["name"]):
        raise _spec_error(
            "name", "a string without line breaks or control characters", spec["name"]
        )
    keys = set(spec) - {"name"}
    if keys == set() and "name" in spec:
        return knot_from_spec(spec["name"])
    if keys == {"torus"}:
        pair = spec["torus"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise _spec_error("torus", "an array of two integers", pair)
        p, q = (_spec_int(x, f"torus[{i}]") for i, x in enumerate(pair))
        return Knot(spec.get("name", f"torus({p},{q})"), torus_knot_seifert(p, q))
    if keys == {"twist"}:
        m = _spec_int(spec["twist"], "twist")
        return Knot(spec.get("name", f"twist({m})"), twist_knot_seifert(m))
    if keys == {"whitehead"}:
        clasp = spec["whitehead"]
        if clasp not in ("+", "-"):
            raise _spec_error("whitehead", "\"+\" or \"-\"", clasp)
        return Knot(
            spec.get("name", f"whitehead-double({clasp})"), whitehead_double_seifert(clasp)
        )
    if keys == {"seifert"}:
        rows = spec["seifert"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise _spec_error("seifert", "an array of arrays of integers", rows)
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    _spec_int(x, f"seifert[{i}][{j}]")
        return Knot(spec.get("name", "custom"), SeifertMatrix(rows))
    raise ValueError(f"unrecognized knot spec fields: {sorted(keys)}")
