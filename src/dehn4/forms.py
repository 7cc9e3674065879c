"""Arithmetic of even unimodular forms and of lens-space bounding.

Covers the pieces the smooth-ball obstruction needs: the classes
a*E8 + b*H of indefinite even unimodular forms (Milnor-Husemoller) as
rank and signature bookkeeping, enumeration of splittings of an even class
constrained by signature congruences mod 16 (the Rokhlin constraint for
spin fillings of homology spheres), and the quadratic-residue criterion
for a lens space to bound a simply connected topological 4-manifold with
second Betti number one.  That criterion is decided from the prime-power
factorization of p: Euler's criterion at each odd prime power and a check
mod 4 or 8 at the power of 2, so a witness takes O(sqrt(p)) time to find,
O(1) pow calls per prime power to check again, and no list of residues.

E8 is the positive definite form (signature +8); a negative e8_count
counts copies of -E8, its orientation reversal.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple


# the fields; the public subclass checks them in __new__, which a NamedTuple
# may not define in its own body
class _EvenFormClass(NamedTuple):
    e8_count: int
    h_count: int


class EvenFormClass(_EvenFormClass):
    """Isomorphism class a*E8 + b*H of an indefinite (or zero) even form.

    e8_count is signed: its sign is the sign of the signature.  h_count is
    the number of hyperbolic summands.
    """

    __slots__ = ()

    def __new__(cls, e8_count: int, h_count: int):
        if h_count < 0:
            raise ValueError("h_count must be nonnegative")
        return super().__new__(cls, e8_count, h_count)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return 8 * abs(self.e8_count) + 2 * self.h_count

    @property
    def signature(self) -> int:
        return 8 * self.e8_count

    def __str__(self) -> str:
        parts = []
        if self.e8_count:
            sign = "-" if self.e8_count < 0 else ""
            mult = f"{abs(self.e8_count)}*" if abs(self.e8_count) != 1 else ""
            parts.append(f"{mult}{sign}E8")
        if self.h_count:
            mult = f"{self.h_count}*" if self.h_count != 1 else ""
            parts.append(f"{mult}H")
        return " + ".join(parts) if parts else "0"


class SignatureCongruence(NamedTuple):
    """A constraint sigma == residue (mod modulus) on a side's signature."""

    residue: int
    modulus: int = 16

    def admits(self, sig: int) -> bool:
        return (sig - self.residue) % self.modulus == 0

    def __str__(self) -> str:
        return f"sigma == {self.residue} (mod {self.modulus})"


def rohlin_constraint(rho: int) -> SignatureCongruence:
    """Signature congruence mod 16 for even forms bounded by a homology
    sphere with the given Rokhlin invariant (0 or 1)."""
    if rho not in (0, 1):
        raise ValueError("Rokhlin invariant must be 0 or 1")
    return SignatureCongruence(residue=8 * rho, modulus=16)


def enumerate_even_splittings(
    total: EvenFormClass,
    side1: SignatureCongruence | None = None,
    side2: SignatureCongruence | None = None,
) -> tuple[tuple[EvenFormClass, EvenFormClass], ...]:
    """All ordered pairs of even classes summing to `total` in rank and
    signature and satisfying the per-side congruences.

    An empty result means the splitting is obstructed.
    """
    out = []
    rank = total.rank
    for e1 in range(-(rank // 8), rank // 8 + 1):
        e2 = total.e8_count - e1
        hsum2 = rank - 8 * abs(e1) - 8 * abs(e2)
        if hsum2 < 0 or hsum2 % 2 != 0:
            continue
        hsum = hsum2 // 2
        if side1 is not None and not side1.admits(8 * e1):
            continue
        if side2 is not None and not side2.admits(8 * e2):
            continue
        for h1 in range(hsum + 1):
            out.append((EvenFormClass(e1, h1), EvenFormClass(e2, hsum - h1)))
    out.sort(key=lambda pair: (pair[0].e8_count, pair[0].h_count))
    return tuple(out)


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers l^k || n of an n >= 2, as ascending (l, k) pairs.

    Trial division up to the square root of the unfactored part: O(sqrt(n))
    steps when n is prime.
    """
    out = []
    ell = 2
    while ell * ell <= n:
        if n % ell == 0:
            k = 0
            while n % ell == 0:
                n //= ell
                k += 1
            out.append((ell, k))
        ell += 1 if ell == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def square_check(a: int, ell: int, k: int) -> int:
    """The value that is 1 exactly when the unit a is a square mod l^k.

    Odd l: Euler's criterion a^((l-1)/2) mod l (Hensel lifts a root mod l
    to l^k).  l = 2: a mod 2^min(k, 3), since 1 is the only odd square
    mod 2, 4 and 8 and a unit is a square mod 2^k (k >= 3) iff it is one
    mod 8 (Cohen, A Course in Computational Algebraic Number Theory, 1.4).
    """
    if ell == 2:
        return a % (1 << min(k, 3))
    return pow(a, (ell - 1) // 2, ell)


class LensWitness(NamedTuple):
    """The re-checkable answer of lens_qr_bounding for L(p, q).

    factors holds the prime powers l^k || p; q_checks and minus_q_checks
    hold, for each of them in the same order, square_check of q and of
    p - q.  A unit is a square mod p iff each of its checks is 1, so anyone
    can recompute the verdict with pow and % from the factorization.
    """

    factors: tuple[tuple[int, int], ...]
    q_checks: tuple[int, ...]
    minus_q_checks: tuple[int, ...]

    @property
    def q_is_residue(self) -> bool:
        return all(v == 1 for v in self.q_checks)

    @property
    def minus_q_is_residue(self) -> bool:
        return all(v == 1 for v in self.minus_q_checks)

    @property
    def bounds(self) -> bool:
        return self.q_is_residue or self.minus_q_is_residue


def lens_qr_bounding(p: int, q: int) -> LensWitness:
    """Whether L(p, q) bounds a simply connected topological 4-manifold
    with b2 = 1 (true iff +q or -q is a quadratic residue mod p), with the
    prime-power checks that prove it.

    p is factored once and both signs are checked at each prime power;
    the exhaustive search over k in [0, p) lives in the test suite as the
    oracle.
    """
    if p < 2:
        raise ValueError("lens space parameter p must be at least 2")
    if not 0 < q < p:
        raise ValueError("lens space parameter q must satisfy 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("lens space parameters must be coprime")
    factors = factor(p)
    return LensWitness(
        factors,
        tuple(square_check(q, ell, k) for ell, k in factors),
        tuple(square_check(p - q, ell, k) for ell, k in factors),
    )
