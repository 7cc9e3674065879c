"""Dehn twists along a boundary torus, modeled by their H_1(T) classes.

The twist with slope a + b is the composite of the twists with slopes a
and b, so the set of twist classes that extend over a fixed 4-manifold is
a subgroup of Z^2: this module computes the subgroup generated by given
classes (canonical Hermite form plus rank and index) and the class
arithmetic the torus-knot argument needs, namely the Seifert orbit class
lambda + pq*mu and the change of basis between the (mu, lambda) peripheral
basis and the (alpha, beta) basis on the torus (alpha -> mu,
beta -> mu + lambda).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd


class TwistBasis(Enum):
    ALPHA_BETA = "alpha-beta"
    MU_LAMBDA = "mu-lambda"


class BasisMismatch(ValueError):
    """Arithmetic between twist classes written in different bases."""


@dataclass(frozen=True)
class TwistClass:
    """An element of H_1(T^2) = Z^2, tagged with the basis it is written in."""

    vector: tuple[int, int]
    basis: TwistBasis

    def __post_init__(self):
        vector = tuple(self.vector)
        if len(vector) != 2:
            raise ValueError(f"twist class vector must have two entries, got {vector!r}")
        for i, x in enumerate(vector):
            if type(x) is not int:  # bool is an int subclass
                raise ValueError(f"twist class vector[{i}] must be an integer, got {x!r}")
        object.__setattr__(self, "vector", vector)

    def __str__(self) -> str:
        names = ("alpha", "beta") if self.basis is TwistBasis.ALPHA_BETA else ("mu", "lambda")
        x, y = self.vector
        return f"{x}*{names[0]} + {y}*{names[1]}"


@dataclass(frozen=True)
class Subgroup2:
    """A subgroup of Z^2 in canonical (Hermite) form.

    rows is the canonical generator matrix: empty for the trivial
    subgroup, one primitive-direction row for rank 1, and
    [[a, b], [0, c]] with a > 0, c > 0, 0 <= b < c for rank 2.  index is
    the index in Z^2 (None when infinite).
    """

    rows: tuple[tuple[int, int], ...]
    rank: int
    index: int | None

    @property
    def is_full(self) -> bool:
        return self.index == 1


def extension_subgroup(classes: list[TwistClass]) -> Subgroup2:
    """Subgroup of H_1(T) generated by the given twist classes.

    All classes must share a basis tag.  Index 1 means every twist along
    the torus is a composite of the given ones.
    """
    bases = {c.basis for c in classes}
    if len(bases) > 1:
        raise BasisMismatch("generators are written in different bases")
    return _hermite([c.vector for c in classes])


def _hermite(vectors: list[tuple[int, int]]) -> Subgroup2:
    rows = [[int(v[0]), int(v[1])] for v in vectors]
    rows = [r for r in rows if r != [0, 0]]
    if not rows:
        return Subgroup2(rows=(), rank=0, index=None)

    # gcd row operations reduce the first column to one nonzero entry
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        pivot = nz[0]
        for r in nz[1:]:
            q = r[0] // pivot[0]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
        rows = [r for r in rows if r != [0, 0]]

    top = next((r for r in rows if r[0] != 0), None)
    second = 0
    for r in rows:
        if r is not top:
            second = gcd(second, abs(r[1]))
    if top is None:
        return Subgroup2(rows=((0, second),), rank=1, index=None)
    if top[0] < 0:
        top = [-top[0], -top[1]]
    if second == 0:
        return Subgroup2(rows=((top[0], top[1]),), rank=1, index=None)
    return Subgroup2(
        rows=((top[0], top[1] % second), (0, second)),
        rank=2,
        index=top[0] * second,
    )


def seifert_orbit_class(p: int, q: int) -> TwistClass:
    """Orbit class of the circle action on a torus-knot exterior:
    lambda + pq*mu, written as (pq, 1) in the (mu, lambda) basis."""
    if gcd(abs(p), abs(q)) != 1 or abs(p) < 2 or abs(q) < 2:
        raise ValueError(f"({p}, {q}) are not parameters of a nontrivial torus knot")
    return TwistClass((p * q, 1), TwistBasis.MU_LAMBDA)


def to_alpha_beta(c: TwistClass) -> TwistClass:
    """Rewrite a (mu, lambda) class in the (alpha, beta) torus basis.

    The identification sends alpha -> mu and beta -> mu + lambda, so
    mu = alpha and lambda = beta - alpha; the map is unimodular, hence
    exact on classes.
    """
    if c.basis is not TwistBasis.MU_LAMBDA:
        raise BasisMismatch("expected a class in the (mu, lambda) basis")
    u, v = c.vector
    return TwistClass((u - v, v), TwistBasis.ALPHA_BETA)
