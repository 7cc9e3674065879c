import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod
from pathlib import Path
from typing import NamedTuple

import hypothesis.strategies as st
from hypothesis import settings

from dehn4.laurent import LaurentPoly
from dehn4.seifert import SeifertMatrix

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")

# the JSON schema of dehn4 reports
SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text())


def read_rows(seifert) -> SeifertMatrix:
    """The matrix of a JSON report's "seifert" field, one {column: entry} object per row."""
    return SeifertMatrix.from_rows({int(j): x for j, x in row.items()} for row in seifert)


def evaluate(p: LaurentPoly, t) -> Fraction:
    """The value of p at t, an int or a Fraction, as a Fraction.

    With lo = min(min_exp, 0), the value is the polynomial
    sum c * t^(e - lo), taken in t's own type, over t^(-lo): one exact
    division, not one Fraction power per term.
    """
    coeffs = p.coeffs
    lo = min(min(coeffs, default=0), 0)
    return Fraction(sum(c * t ** (e - lo) for e, c in coeffs.items()), t**-lo)


def build_seifert(g, lower, skew=None):
    """Assemble V with V - V^T the standard symplectic form of genus g.

    lower supplies the diagonal-and-below entries; entries above the
    diagonal are forced by V[i][j] = V[j][i] + J[i][j].
    """
    n = 2 * g
    m = [[0] * n for _ in range(n)]
    it = iter(lower)
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = next(it)
    for i in range(n):
        for j in range(i + 1, n):
            jij = 1 if (j == i + 1 and i % 2 == 0) else 0
            m[i][j] = m[j][i] + jij
    return SeifertMatrix(m)


def freeze(rows):
    """Immutable copy; an entry that is not an int (bool, float, str) is a ValueError."""
    frozen = tuple(tuple(row) for row in rows)
    for i, row in enumerate(frozen):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"matrix entry [{i}][{j}] must be an integer, got {x!r}")
    return frozen


def sparse_rows(m):
    """The sparse rows of a dense square matrix; a non-square one is a ValueError.

    Every entry is kept, zeros included: the kernels' copy drops the int
    zeros and refuses an entry that is not an int, a float 0.0 among them.
    """
    if any(len(row) != len(m) for row in m):
        raise ValueError("non-square matrix")
    return [dict(enumerate(row)) for row in m]


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(row[i] for row in m) for i in range(len(m[0])))


def block_diagonal(*blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(b)
    return freeze(out)


# Dense oracles for the sparse Seifert builders: each takes and returns
# tuples of tuples, as the builders did before they worked on sparse rows.


def dense_torus_bricks(p, q):
    """The fence-basis matrix of the positive torus knot T(p, q), p < q."""
    rows = q - 1
    n = (p - 1) * rows
    v = [[0] * n for _ in range(n)]

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
    return freeze(v)


def dense_mirror(e):
    return tuple(tuple(-x for x in row) for row in transpose(e))


def dense_reverse(e):
    return transpose(e)


def dense_concordance_inverse(e):
    return tuple(tuple(-x for x in row) for row in e)


def dense_connected_sum(e, f):
    return block_diagonal(e, f)


def dense_parallel_cable(e, n):
    base = e if n > 0 else transpose(e)
    k = abs(n)
    g2 = len(base)
    base_t = transpose(base)
    out = [[0] * (g2 * k) for _ in range(g2 * k)]
    for bi in range(k):
        for bj in range(k):
            blk = base if bi <= bj else base_t
            for i in range(g2):
                for j in range(g2):
                    out[bi * g2 + i][bj * g2 + j] = blk[i][j]
    return freeze(out)


def dense_congruence(e, seed):
    """P e P^T for a seeded unimodular P = L U, L unit lower and U unit upper
    triangular with their other entries drawn from {-1, 0, 1}.

    det P = 1, so a Seifert matrix keeps det(V - V^T) = 1, its signature
    and det(V - t*V^T); and P is dense, so the support graph of a block
    sum becomes one block.
    """
    rng = random.Random(seed)
    n = len(e)

    def unit_lower():
        return [[rng.choice((-1, 0, 1)) if j < i else int(i == j) for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    p = mul(unit_lower(), transpose(unit_lower()))
    return freeze(mul(mul(p, e), transpose(p)))


def skew_det(v):
    """det(V - V^T) by the dense oracle, independent of `exact.det`."""
    e = v.entries
    n = len(e)
    return dense_det([[e[i][j] - e[j][i] for j in range(n)] for i in range(n)])


@st.composite
def seifert_matrices(draw, max_genus=3, coeff=4):
    g = draw(st.integers(min_value=1, max_value=max_genus))
    n = 2 * g
    count = n * (n + 1) // 2
    lower = draw(
        st.lists(
            st.integers(min_value=-coeff, max_value=coeff),
            min_size=count,
            max_size=count,
        )
    )
    return build_seifert(g, lower)


@st.composite
def int_matrices(draw, max_dim=5, coeff=9):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return tuple(
        tuple(
            draw(st.integers(min_value=-coeff, max_value=coeff)) for _ in range(cols)
        )
        for _ in range(rows)
    )


def dense_det(m):
    """Dense fraction-free Bareiss: the oracle for `exact.det`.

    Every entry of the live block is updated at every step, so nothing
    is scaled lazily; the first row with a nonzero in the pivot column is
    swapped into place.
    """
    n = len(m)
    if n == 0:
        return 1
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


def euclid_det(m):
    """det over Z by unimodular row operations: the oracle for a banded
    matrix too large for `dense_det`.

    Column by column, Euclid's algorithm on the entries at and below the
    diagonal leaves one nonzero, which is swapped onto the diagonal; det
    is the product of the diagonal.  No step divides, so every entry stays
    an integer.  A row operation runs only up to the last nonzero column
    of the row it adds, so a matrix of band b costs O(n^2 + n b^2).
    """
    n = len(m)
    a = [list(row) for row in m]
    last = [n - 1 - [*map(bool, reversed(row)), True].index(True) for row in a]
    sign = 1
    for k in range(n):
        live = [i for i, row in enumerate(a[k:], k) if row[k]]
        if not live:
            return 0
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(a[i][k]))
            hi = last[piv] + 1
            rest = []
            for i in live:
                if i != piv:
                    c = a[i][k] // a[piv][k]
                    a[i][k:hi] = [x - c * y for x, y in zip(a[i][k:hi], a[piv][k:hi])]
                    last[i] = max(last[i], last[piv])
                    if a[i][k]:
                        rest.append(i)
            live = [piv, *rest]
        if live[0] != k:
            i = live[0]
            a[k], a[i], last[k], last[i] = a[i], a[k], last[i], last[k]
            sign = -sign
    return sign * prod(a[k][k] for k in range(n))


def newton_alexander(v):
    """det(V - t*V^T) from all n + 1 nodes: the oracle for `seifert.alexander_polynomial`.

    The determinant, of degree at most n = size(V), is taken by `dense_det`
    at the integers -n/2 .. n/2 and recovered by Newton interpolation; on
    consecutive nodes the order-k divided difference of an integer
    polynomial is an integer, so each step divides exactly by k.  Nothing
    here uses the palindromic symmetry that the code under test relies on.
    """
    n, e = v.size, v.entries
    nodes = range(-(n // 2), n // 2 + 1)
    dd = [dense_det([[e[i][j] - t * e[j][i] for j in range(n)] for i in range(n)]) for t in nodes]
    # in place: after step k, dd[i] is the divided difference on nodes i-k .. i
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            dd[i], rem = divmod(dd[i] - dd[i - 1], k)
            assert rem == 0
    # expand the Newton form dd[0] + dd[1](t - x0) + ... by Horner's rule,
    # lowest degree first: coeffs <- coeffs * (t - x_k) + dd[k]
    coeffs: list[int] = []
    for k in range(n, -1, -1):
        coeffs = [a - nodes[k] * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += dd[k]
    return LaurentPoly(dict(enumerate(coeffs))).normalized()


def dense_signature_symmetric(m):
    """Dense symmetric Bareiss: the oracle for `exact.signature_symmetric`.

    A zero pivot is replaced by the first later nonzero diagonal entry
    (symmetric swap); when every remaining diagonal entry is zero, a row
    and column with a nonzero off-diagonal entry is added to the pivot's
    (a[k][k] becomes 2*a[k][off]); a null row is skipped.
    """
    n = len(m)
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
                    continue
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


@st.composite
def structured_matrices(draw, symmetric=False, max_dim=10, coeff=6):
    """Square (or symmetric) matrices weighted toward the paths of sparse Bareiss.

    Sparse, banded and block-diagonal patterns leave rows untouched for
    several steps before a pivot hits them; a zero diagonal gives zero
    pivots (and, when symmetric, an all-zero live diagonal, so the add-row
    rule); zeroed rows and columns give null rows; a dense row (or, after
    a transpose, column) meets every pivot.
    """
    n = draw(st.integers(0, max_dim))
    tenths = draw(st.sampled_from((3, 6, 10)))  # share of nonzero entries
    entry = st.sampled_from([x for x in range(-coeff, coeff + 1) if x])
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            x = draw(entry) if draw(st.integers(0, 9)) < tenths else 0
            a[i][j] = x
            if symmetric:
                a[j][i] = x
    shape = draw(st.sampled_from(("plain", "banded", "blocks")))
    if shape == "banded":
        width = draw(st.integers(0, 3))
        for i in range(n):
            for j in range(n):
                if abs(i - j) > width:
                    a[i][j] = 0
    elif shape == "blocks":
        cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3)))
        block = [sum(1 for c in cuts if c <= i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if block[i] != block[j]:
                    a[i][j] = 0
    if n and draw(st.booleans()):
        dense = draw(st.integers(0, n - 1))
        for j in range(n):
            a[dense][j] = draw(entry)
            if symmetric:
                a[j][dense] = a[dense][j]
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    if n and draw(st.integers(0, 3)) == 0:
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            for j in range(n):
                a[i][j] = 0
                if symmetric:
                    a[j][i] = 0
    if not symmetric and draw(st.booleans()):
        a = [list(col) for col in zip(*a)]
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cols = order if symmetric else range(n)
        a = [[a[i][j] for j in cols] for i in order]
    return tuple(tuple(row) for row in a)


def invariant_factors(m):
    """Diagonal d1 | d2 | ... of the Smith normal form over Z, the oracle
    for `first_homology`.

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


def determinantal_divisors(m):
    """D_1, ..., D_r with D_k the gcd of all k x k minors of m (r = min(rows, cols)).

    The minors come from the dense oracle `dense_det`, so this check of
    `invariant_factors` does not depend on `exact.det`.

    The Smith diagonal is determined by them: d_1 * ... * d_k = D_k.
    """
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, dense_det([[m[i][j] for j in cs] for i in rs]))
        out.append(g)
    return out


def homology_diagonal(report):
    """The 2x2 Smith diagonal a HomologyReport stands for: units, torsion, zeros."""
    torsion = report.torsion_coefficients
    units = 2 - report.free_rank - len(torsion)
    return (1,) * units + torsion + (0,) * report.free_rank


def smith_diagonal_well_formed(m, diag):
    """diag is nonnegative, a divisibility chain with zeros last, and its
    partial products are the determinantal divisors of m."""
    assert len(diag) == min(len(m), len(m[0]))
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    product = 1
    for d, divisor in zip(diag, determinantal_divisors(m)):
        product *= d
        assert product == divisor


# The general linking layer, the oracle for the closed forms in n that the
# torus scenarios write (`scenarios._torus_pipeline`): first homology of any
# symmetric 2x2 linking matrix, Hoste's self-linking through bordered
# determinants, the self-linking form from three curves, and its zero
# classes by factoring over Z and by a grid search.  It uses nothing from
# dehn4.


@dataclass(frozen=True)
class HomologyReport:
    """First homology of the surgered manifold presented by a linking matrix."""

    torsion_coefficients: tuple
    free_rank: int

    @property
    def is_homology_sphere(self):
        return self.free_rank == 0 and not self.torsion_coefficients

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion_coefficients]
        return " + ".join(parts) if parts else "0"


def first_homology(b):
    """Torsion and free rank of coker(B) for a symmetric 2x2 matrix B.

    The Smith diagonal is d1 = D1 = gcd of the entries and d2 = D2 / D1
    with D2 = |det B| (d2 = 0 when D1 = 0, the zero matrix).
    """
    if len(b) != 2 or any(len(row) != 2 for row in b) or b[0][1] != b[1][0]:
        raise ValueError("linking matrix must be a symmetric 2x2 matrix")
    (p, q), (_, r) = b
    d1 = gcd(p, q, r)
    diag = (d1, abs(p * r - q * q) // d1 if d1 else 0)
    torsion = tuple(x for x in diag if x > 1)
    return HomologyReport(torsion_coefficients=torsion, free_rank=diag.count(0))


class SingularLinkingMatrix(ValueError):
    """The linking matrix is singular over Q; the curves need not be
    homologically trivial, so the surgery linking number is undefined."""


def hoste_linking(b, a, self_lk):
    """Self-linking in the surgered manifold of a homologically trivial
    curve with linking vector a and S^3 pushoff self-linking self_lk, by
    Hoste's formula lk_Y = lk_S3 - a . B^-1 . a^T.

    The correction is a bordered determinant over det B,
    a . B^-1 . a^T = -det([[B, a^T], [a, 0]]) / det(B), both taken by
    `dense_det`; exact rational output.  An entry of B or a that is not an
    int, a float zero included, is a TypeError.
    """
    if len(a) != len(b):
        raise ValueError("curve linking vector does not match the matrix size")
    if any(len(row) != len(b) for row in b):
        raise ValueError("non-square matrix")
    bordered = [list(row) + [y] for row, y in zip(b, a)]
    bordered.append(list(a) + [0])
    for i, row in enumerate(bordered):
        for j, x in enumerate(row):
            if type(x) is not int:  # bool is an int subclass
                raise TypeError(f"matrix entry [{i}][{j}] must be an int, got {x!r}")
    det_b = dense_det(b)
    if det_b == 0:
        raise SingularLinkingMatrix(
            "linking matrix is singular; surgery linking numbers are undefined"
        )
    return self_lk + Fraction(dense_det(bordered), det_b)


@dataclass(frozen=True)
class SelfLinkingForm:
    """Integer quadratic form Q(x, y) = a*x^2 + b*x*y + c*y^2 on H_1(T)."""

    a: int
    b: int
    c: int

    def evaluate(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    @property
    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self):
        terms = []
        for coeff, mono in ((self.a, "x^2"), (self.b, "x*y"), (self.c, "y^2")):
            if coeff == 0:
                continue
            body = mono if abs(coeff) == 1 else f"{abs(coeff)}*{mono}"
            if not terms:
                terms.append(body if coeff > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def self_linking_form(b):
    """Quadratic form giving the surgery self-linking of x*alpha + y*beta.

    Hoste's formula at alpha, beta and alpha + beta, whose linking vectors
    are (1, 0), (0, 1), (1, 1) and S^3 self-linkings 0, 0, 1.
    """
    q10 = hoste_linking(b, (1, 0), 0)
    q01 = hoste_linking(b, (0, 1), 0)
    q11 = hoste_linking(b, (1, 1), 1)
    coeffs = (q10, q11 - q10 - q01, q01)
    if any(v.denominator != 1 for v in coeffs):
        raise ValueError(f"self-linking form is not integral (coefficients {coeffs})")
    return SelfLinkingForm(*map(int, coeffs))


@dataclass(frozen=True)
class ZeroClasses:
    """Primitive classes with vanishing self-linking, up to sign.

    Canonical sign: y > 0, or y = 0 and x > 0.  all_classes flags the
    identically zero form (every class qualifies).
    """

    classes: tuple
    all_classes: bool = False


def zero_classes(form):
    """All primitive integer zeros of the form, by factoring over Z.

    A binary quadratic form has rational zero directions exactly when its
    discriminant is a perfect square; each linear factor contributes one
    primitive class.
    """
    a, b, c = form.a, form.b, form.c
    if a == 0 and b == 0 and c == 0:
        return ZeroClasses(classes=(), all_classes=True)
    found = set()
    if a == 0:
        # Q = y*(b*x + c*y): the y = 0 direction, plus the b*x + c*y = 0 line
        found.add(canonical_class(1, 0))
        if b != 0:
            found.add(canonical_class(-c, b))
    else:
        disc = form.discriminant
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return ZeroClasses(classes=())
        r = isqrt(disc)
        # roots of a*r^2 + b*r + c with r = x/y
        for sign in (1, -1):
            found.add(canonical_class(-b + sign * r, 2 * a))
    return ZeroClasses(classes=tuple(sorted(found)))


def canonical_class(x, y):
    """The primitive class of (x, y), signed so that y > 0, or y = 0 and x > 0."""
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ValueError("(0, 0) is not a class")
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return (x, y)


def zero_set_bruteforce(form, bound=20):
    """The primitive zeros of the form with |x|, |y| <= bound, up to sign."""
    out = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            if form.evaluate(x, y) == 0:
                out.add(canonical_class(x, y))
    return out


# The Legendrian layer, the oracle for the literal smooth side of
# torus-top-vs-smooth: tb and rot from the counts of a front, the Stein
# condition framing = tb - 1 on each 2-handle, and the slice-Bennequin
# bound tb + |rot| <= 2g - 1 on the slice genus of a curve in the boundary
# of a Stein domain.  A front is modeled by the counts tb and rot need
# (writhe, down and up cusps), not by a front word.


# the fields; the public subclass checks them in __new__, which a NamedTuple
# may not define in its own body
class _FrontData(NamedTuple):
    writhe: int
    down_cusps: int
    up_cusps: int


class FrontData(_FrontData):
    """Signed crossing count and cusp counts of a Legendrian front."""

    __slots__ = ()

    def __new__(cls, writhe: int, down_cusps: int, up_cusps: int):
        for name, value in zip(cls._fields, (writhe, down_cusps, up_cusps)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if down_cusps < 0 or up_cusps < 0:
            raise ValueError("cusp counts must be nonnegative")
        total = down_cusps + up_cusps
        if total < 2 or total % 2 != 0:
            raise ValueError(f"a front has an even number (>= 2) of cusps, got {total}")
        return super().__new__(cls, writhe, down_cusps, up_cusps)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def tb(front):
    """Thurston-Bennequin number: writhe - (number of cusps)/2."""
    return front.writhe - (front.down_cusps + front.up_cusps) // 2


def rot(front):
    """Rotation number: (down cusps - up cusps)/2, an integer since a
    FrontData has an even number of cusps."""
    return (front.down_cusps - front.up_cusps) // 2


class HandleCheck(NamedTuple):
    name: str
    framing: int
    tb: int

    @property
    def satisfied(self):
        return self.framing == self.tb - 1


def stein_condition(handles):
    """framing = tb - 1 on every (name, framing, front) 2-handle: the
    conjunction and a check per handle; vacuously true on no handles."""
    checks = tuple(HandleCheck(name, framing, tb(front)) for name, framing, front in handles)
    return all(c.satisfied for c in checks), checks


def slice_bennequin_genus_bound(tb_value, rot_value):
    """Smallest g >= 0 allowed by tb + |rot| <= 2g - 1.  A positive result
    bounds the slice genus in any Stein filling from below; 0 concludes
    nothing (never "slice")."""
    bound = tb_value + abs(rot_value) + 1
    return 0 if bound <= 0 else (bound + 1) // 2


# The fronts of the paper's Stein handle picture.  The counts realize the
# target invariants (tb, rot) of the named curves; they are not a literal
# front drawing.
NAMED_FRONTS = {
    "unknot-max-tb": (0, 1, 1),
    "alpha": (1, 1, 1),
    "handle-1": (1, 1, 1),
    "handle-2": (2, 1, 1),
}
STEIN_FRAMINGS = {"handle-1": -1, "handle-2": 0}


def load_named_fronts():
    """The named fronts as FrontData, and the Stein framings of the handles."""
    return {name: FrontData(*counts) for name, counts in NAMED_FRONTS.items()}, dict(STEIN_FRAMINGS)


def smooth_side_steps():
    """The smooth-side trace steps of torus-top-vs-smooth, as
    (operation, inputs, output), derived from the named fronts."""
    fronts, framings = load_named_fronts()
    ok, checks = stein_condition(
        [(name, framings[name], fronts[name]) for name in sorted(framings)]
    )
    tb_a, rot_a = tb(fronts["alpha"]), rot(fronts["alpha"])
    return [
        (
            "stein_condition",
            {"handles": [[c.name, c.framing] for c in checks]},
            {
                "stein": ok,
                "checks": [
                    {"name": c.name, "framing": c.framing, "tb": c.tb, "ok": c.satisfied}
                    for c in checks
                ],
            },
        ),
        ("tb_rot", {"front": "alpha"}, {"tb": tb_a, "rot": rot_a}),
        (
            "slice_bennequin_genus_bound",
            {"tb": tb_a, "rot": rot_a},
            {"genus_lower_bound": slice_bennequin_genus_bound(tb_a, rot_a)},
        ),
    ]


# Dehn twists along the boundary torus, the oracle for the literal steps of
# twist-extension.  The twists that extend over a fixed 4-manifold form a
# subgroup of H_1(T) = Z^2, and a class is an (x, y) pair of ints.


def seifert_orbit_class(p, q):
    """Orbit class of the circle action on a torus-knot exterior:
    lambda + pq*mu, written as (pq, 1) in the (mu, lambda) basis."""
    if gcd(abs(p), abs(q)) != 1 or abs(p) < 2 or abs(q) < 2:
        raise ValueError(f"({p}, {q}) are not parameters of a nontrivial torus knot")
    return (p * q, 1)


def to_alpha_beta(c):
    """A (mu, lambda) class in the (alpha, beta) torus basis: alpha -> mu
    and beta -> mu + lambda, so mu = alpha and lambda = beta - alpha."""
    u, v = c
    return (u - v, v)


def extension_subgroup(a, b):
    """Index in Z^2 of the subgroup that the classes a and b generate:
    |det [a; b]|, 0 when they are dependent."""
    return abs(a[0] * b[1] - a[1] * b[0])


def twist_steps(p, q):
    """The first three trace steps of twist-extension, as
    (operation, inputs, output), derived by the twist layer."""
    orbit = seifert_orbit_class(p, q)
    orbit_str = f"{orbit[0]}*mu + {orbit[1]}*lambda"
    ab = to_alpha_beta(orbit)
    meridian = (1, 0)
    return [
        ("seifert_orbit_class", {"p": p, "q": q}, orbit_str),
        ("to_alpha_beta", {"class": orbit_str}, f"{ab[0]}*alpha + {ab[1]}*beta"),
        (
            "extension_subgroup",
            {"generators": [list(meridian), list(ab)]},
            {"rows": [[1, 0], [0, 1]], "rank": 2, "index": extension_subgroup(meridian, ab)},
        ),
    ]
