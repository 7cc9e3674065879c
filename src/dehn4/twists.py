"""Dehn twists along a boundary torus, modeled by their H_1(T) classes.

The twist with slope a + b is the composite of the twists with slopes a
and b, so the twists that extend over a fixed 4-manifold form a subgroup
of H_1(T) = Z^2.  A class is a plain (x, y) pair of ints.  The torus-knot
argument needs three pieces of arithmetic: the Seifert orbit class
lambda + pq*mu, the change from the (mu, lambda) peripheral basis to the
(alpha, beta) basis on the torus (alpha -> mu, beta -> mu + lambda), and
the index of the subgroup that two classes generate.
"""
from __future__ import annotations

from math import gcd


def seifert_orbit_class(p: int, q: int) -> tuple[int, int]:
    """Orbit class of the circle action on a torus-knot exterior:
    lambda + pq*mu, written as (pq, 1) in the (mu, lambda) basis."""
    if gcd(abs(p), abs(q)) != 1 or abs(p) < 2 or abs(q) < 2:
        raise ValueError(f"({p}, {q}) are not parameters of a nontrivial torus knot")
    return (p * q, 1)


def to_alpha_beta(c: tuple[int, int]) -> tuple[int, int]:
    """Rewrite a (mu, lambda) class in the (alpha, beta) torus basis.

    The identification sends alpha -> mu and beta -> mu + lambda, so
    mu = alpha and lambda = beta - alpha; the map is unimodular, hence
    exact on classes.
    """
    u, v = c
    return (u - v, v)


def extension_subgroup(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Index in Z^2 of the subgroup generated by the classes a and b: the
    absolute determinant |det [a; b]|, 0 when they are dependent.

    Index 1 means every twist along the torus is a composite of the twists
    along a and b.
    """
    return abs(a[0] * b[1] - a[1] * b[0])
