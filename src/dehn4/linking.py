"""Homology of surgered manifolds and linking numbers of boundary curves.

Smith normal form drives the homology computation; Hoste's surgery formula

    lk_Y(sigma, eta) = lk_{S^3}(sigma, eta) - a . B^{-1} . b^T

(a, b the curves' component-linking vectors, B the linking matrix) gives
linking numbers of homologically trivial curves in the surgered manifold.
The correction term is a bordered determinant,
a . B^{-1} . b^T = -det([[B, b^T], [a, 0]]) / det(B), so Bareiss `det` is
the only elimination involved.
From it we read off the self-linking quadratic form on a boundary torus
and enumerate the primitive classes on which it vanishes.

Sign convention: the correction term is subtracted as written above; when
sigma != eta the S^3 term is lk(sigma, eta+), read from the recorded
pushoff pair.  With the standard two-component data this yields the form
n*x^2 - x*y on the torus basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from .exact import IntMatrix, det, freeze, identity, is_symmetric
from .surgery import CurveSpec, TorusCurveBasis


class SingularLinkingMatrix(ValueError):
    """The linking matrix is singular over Q; the curves need not be
    homologically trivial, so the surgery linking number is undefined."""


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form over Z: returns (U, D, V) with D = U*M*V.

    D is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular.  Exact integer arithmetic throughout.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[int(x) for x in row] for row in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # clear the pivot column, then the pivot row
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:  # remainder became the new, smaller pivot
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            if dirty:
                continue
            # divisibility: the pivot must divide the whole tail submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            negate_row(i)  # keep D = U*M*V exact with nonnegative diagonal
    return freeze(u), freeze(a), freeze(v)


@dataclass(frozen=True)
class HomologyReport:
    """First homology of the surgered manifold presented by a linking matrix."""

    torsion_coefficients: tuple[int, ...]
    free_rank: int

    @property
    def is_homology_sphere(self) -> bool:
        return self.free_rank == 0 and not self.torsion_coefficients

    def __str__(self) -> str:
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion_coefficients]
        return " + ".join(parts) if parts else "0"


def first_homology(b: Sequence[Sequence[int]]) -> HomologyReport:
    """Torsion and free rank of coker(B) read off the Smith form."""
    if not is_symmetric(b):
        raise ValueError("linking matrix must be symmetric")
    _, d, _ = smith_normal_form(b)
    diag = [d[i][i] for i in range(len(d))]
    torsion = tuple(x for x in diag if x > 1)
    free = sum(1 for x in diag if x == 0)
    return HomologyReport(torsion_coefficients=torsion, free_rank=free)


def hoste_linking(
    b: Sequence[Sequence[int]], sigma: CurveSpec, eta: CurveSpec
) -> Fraction:
    """Linking number of two homologically trivial curves in the surgered
    manifold, by Hoste's formula.

    For sigma == eta (same id) the S^3 term is the recorded tangential
    pushoff self-linking; otherwise it is lk(sigma, eta+) from the
    recorded cross-pushoff pair.  Exact rational output; an integer
    whenever |det B| = 1.
    """
    n = len(b)
    if len(sigma.component_linkings) != n or len(eta.component_linkings) != n:
        raise ValueError("curve linking vectors do not match the matrix size")
    det_b = det(b)
    if det_b == 0:
        raise SingularLinkingMatrix(
            "linking matrix is singular; surgery linking numbers are undefined"
        )
    if sigma.id == eta.id:
        s3 = sigma.pushoff_self_linking
    else:
        pair = sigma.cross_pair(eta.id)
        if pair is not None:
            s3 = pair[0]
        else:
            pair = eta.cross_pair(sigma.id)
            if pair is None:
                raise ValueError(
                    f"no pushoff data recorded between curves {sigma.id!r} and {eta.id!r}"
                )
            s3 = pair[1]
    bordered = [list(row) + [y] for row, y in zip(b, eta.component_linkings)]
    bordered.append(list(sigma.component_linkings) + [0])
    return s3 + Fraction(det(bordered), det_b)


@dataclass(frozen=True)
class SelfLinkingForm:
    """Integer quadratic form Q(x, y) = a*x^2 + b*x*y + c*y^2 on H_1(T)."""

    a: int
    b: int
    c: int

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self) -> str:
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


def combined_curve(basis: TorusCurveBasis, x: int, y: int) -> CurveSpec:
    """Linking data of a curve in class x*[alpha] + y*[beta].

    Component linkings are linear; the pushoff self-linking expands
    bilinearly through the recorded pushoff pairs.
    """
    alpha, beta = basis.alpha, basis.beta
    ab, ba = basis.cross_data()
    vector = tuple(
        x * u + y * w for u, w in zip(alpha.component_linkings, beta.component_linkings)
    )
    self_lk = (
        x * x * alpha.pushoff_self_linking
        + x * y * (ab + ba)
        + y * y * beta.pushoff_self_linking
    )
    return CurveSpec(
        id=f"{x}*{alpha.id}+{y}*{beta.id}",
        component_linkings=vector,
        pushoff_self_linking=self_lk,
    )


def self_linking_form(
    b: Sequence[Sequence[int]], basis: TorusCurveBasis
) -> SelfLinkingForm:
    """Quadratic form giving the surgery self-linking of x*alpha + y*beta."""
    q10 = hoste_linking(b, *2 * (combined_curve(basis, 1, 0),))
    q01 = hoste_linking(b, *2 * (combined_curve(basis, 0, 1),))
    q11 = hoste_linking(b, *2 * (combined_curve(basis, 1, 1),))
    coeffs = (q10, q11 - q10 - q01, q01)
    if any(v.denominator != 1 for v in coeffs):
        raise ValueError(
            f"self-linking form is not integral (coefficients {coeffs}); "
            "the boundary classes are only rationally defined"
        )
    return SelfLinkingForm(int(coeffs[0]), int(coeffs[1]), int(coeffs[2]))


@dataclass(frozen=True)
class ZeroClasses:
    """Primitive classes with vanishing self-linking, up to sign.

    Canonical sign: y > 0, or y = 0 and x > 0.  all_classes flags the
    identically zero form (every class qualifies).
    """

    classes: tuple[tuple[int, int], ...]
    all_classes: bool = False


def canonical_class(x: int, y: int) -> tuple[int, int]:
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ValueError("(0, 0) is not a class")
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return (x, y)


def zero_classes(form: SelfLinkingForm) -> ZeroClasses:
    """All primitive integer zeros of the form, by factoring over Z.

    A binary quadratic form has rational zero directions exactly when its
    discriminant is a perfect square; each linear factor contributes one
    primitive class.  No searching is involved (the bounded grid search
    lives in the test suite as an independent oracle).
    """
    a, b, c = form.a, form.b, form.c
    if a == 0 and b == 0 and c == 0:
        return ZeroClasses(classes=(), all_classes=True)
    found: set[tuple[int, int]] = set()
    if a == 0:
        # Q = y*(b*x + c*y): the y = 0 direction, plus the b*x + c*y = 0 line
        found.add(canonical_class(1, 0))
        if b != 0:
            found.add(canonical_class(-c, b))
    else:
        disc = form.discriminant
        if disc < 0:
            return ZeroClasses(classes=())
        r = isqrt(disc)
        if r * r != disc:
            return ZeroClasses(classes=())
        # roots of a*r^2 + b*r + c with r = x/y
        for sign in (1, -1):
            num = -b + sign * r
            den = 2 * a
            found.add(canonical_class(num, den))
    return ZeroClasses(classes=tuple(sorted(found)))
