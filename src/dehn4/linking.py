"""The torus presentation, its homology, and Hoste's linking numbers.

Every torus in the scenarios lies on the boundary of one presentation: a
dotted circle L1 and an n-framed circle L2 linking it once, with linking
matrix B = [[0, 1], [1, n]].  The boundary torus has the basis alpha
(linking L1 once) and beta (linking L2 once), with pushoff data
lk(alpha, beta+) = 0 and lk(beta, alpha+) = 1, so x*alpha + y*beta has
linking vector (x, y) and S^3 self-linking x*y.

The first homology of a 2x2 linking matrix comes from its determinantal
divisors.  Hoste's surgery formula

    lk_Y(sigma, sigma+) = lk_{S^3}(sigma, sigma+) - a . B^{-1} . a^T

(a the curve's linking vector) gives the self-linking of a homologically
trivial curve in the surgered manifold.  The correction term is a
bordered determinant, a . B^{-1} . a^T = -det([[B, a^T], [a, 0]]) / det(B),
so Bareiss `det` is all it needs.  Evaluated on alpha, beta and
alpha + beta it gives the self-linking quadratic form, n*x^2 - x*y for
the presentation above, whose primitive zero classes are then enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from .exact import IntMatrix, det, is_symmetric, sparse_rows


def torus_presentation(n: int) -> tuple[str, IntMatrix]:
    """The presentation carrying the boundary torus: trace text and B."""
    text = (
        "component L1 dotted\n"
        f"component L2 framed {n}\n"
        "lk L1 L2 1\n"
        "curve alpha lk ( 1 0 ) self 0\n"
        "curve beta lk ( 0 1 ) self 0\n"
        "pushoff alpha beta 0 1\n"
    )
    return text, ((0, 1), (1, n))


class SingularLinkingMatrix(ValueError):
    """The linking matrix is singular over Q; the curves need not be
    homologically trivial, so the surgery linking number is undefined."""


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
    """Torsion and free rank of coker(B) for a symmetric 2x2 matrix B.

    The Smith diagonal is d1 = D1 = gcd of the entries and d2 = D2 / D1
    with D2 = |det B| (d2 = 0 when D1 = 0, the zero matrix).
    """
    if len(b) != 2 or not is_symmetric(b):
        raise ValueError("linking matrix must be a symmetric 2x2 matrix")
    (p, q), (_, r) = b
    d1 = gcd(p, q, r)
    diag = (d1, abs(p * r - q * q) // d1 if d1 else 0)
    torsion = tuple(x for x in diag if x > 1)
    return HomologyReport(torsion_coefficients=torsion, free_rank=diag.count(0))


def hoste_linking(b: Sequence[Sequence[int]], a: Sequence[int], self_lk: int) -> Fraction:
    """Self-linking in the surgered manifold of a homologically trivial
    curve with linking vector a and S^3 pushoff self-linking self_lk, by
    Hoste's formula.

    Exact rational output; an integer whenever |det B| = 1.
    """
    if len(a) != len(b):
        raise ValueError("curve linking vector does not match the matrix size")
    det_b = det(sparse_rows(b))
    if det_b == 0:
        raise SingularLinkingMatrix(
            "linking matrix is singular; surgery linking numbers are undefined"
        )
    bordered = [list(row) + [y] for row, y in zip(b, a)]
    bordered.append(list(a) + [0])
    return self_lk + Fraction(det(sparse_rows(bordered)), det_b)


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


def self_linking_form(b: Sequence[Sequence[int]]) -> SelfLinkingForm:
    """Quadratic form giving the surgery self-linking of x*alpha + y*beta.

    Hoste's formula at alpha, beta and alpha + beta, whose linking vectors
    are (1, 0), (0, 1), (1, 1) and S^3 self-linkings 0, 0, 1.
    """
    q10 = hoste_linking(b, (1, 0), 0)
    q01 = hoste_linking(b, (0, 1), 0)
    q11 = hoste_linking(b, (1, 1), 1)
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
