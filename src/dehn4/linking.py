"""The torus presentation and its boundary torus in closed form.

Every torus in the scenarios lies on the boundary of one presentation: a
dotted circle L1 and an n-framed circle L2 linking it once, with linking
matrix B = [[0, 1], [1, n]].  The boundary torus has the basis alpha
(linking L1 once) and beta (linking L2 once), with pushoff data
lk(alpha, beta+) = 0 and lk(beta, alpha+) = 1, so x*alpha + y*beta has
linking vector (x, y) and S^3 self-linking x*y.

det B = -1 for every n, so the surgered manifold is a homology sphere.
Hoste's surgery formula (Hoste 1986)

    lk_Y(sigma, sigma+) = lk_{S^3}(sigma, sigma+) - a . B^{-1} . a^T

(a the curve's linking vector) with B^{-1} = [[-n, 1], [1, 0]] gives the
self-linking x*y - (2*x*y - n*x^2) = n*x^2 - x*y.  This form is
x*(n*x - y), so its primitive zero classes are beta = (0, 1) and
alpha = (1, n), up to sign.  All three are read off n here.  The tests
derive them again from B, by Hoste's formula through bordered
determinants and by a grid search for the zeros.
"""
from __future__ import annotations

from math import gcd

from .exact import IntMatrix


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


def torus_form(n: int) -> str:
    """The self-linking form n*x^2 - x*y on the boundary torus, as text.

    A coefficient of +-1 is written as a bare sign and a zero term is left
    out, so n = 0 gives "-x*y".
    """
    if n == 0:
        return "-x*y"
    square = "x^2" if abs(n) == 1 else f"{abs(n)}*x^2"
    return f"{'-' if n < 0 else ''}{square} - x*y"


def canonical_class(x: int, y: int) -> tuple[int, int]:
    """The primitive class of (x, y), signed so that y > 0, or y = 0 and x > 0."""
    g = gcd(abs(x), abs(y))
    if g == 0:
        raise ValueError("(0, 0) is not a class")
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return (x, y)


def torus_zero_classes(n: int) -> tuple[tuple[int, int], ...]:
    """The two primitive zero classes of n*x^2 - x*y, beta and alpha, sorted."""
    return tuple(sorted(((0, 1), canonical_class(1, n))))
