"""Arithmetic of even unimodular forms and of lens-space bounding.

Covers the pieces the smooth-ball obstruction needs: the classes
a*E8 + b*H of indefinite even unimodular forms (Milnor-Husemoller) as
rank and signature bookkeeping, enumeration of splittings of an even class
constrained by signature congruences mod 16 (the Rokhlin constraint for
spin fillings of homology spheres), and the quadratic-residue criterion
for a lens space to bound a simply connected topological 4-manifold with
second Betti number one.

E8 is the positive definite form (signature +8); a negative e8_count
counts copies of -E8, its orientation reversal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class EvenFormClass:
    """Isomorphism class a*E8 + b*H of an indefinite (or zero) even form.

    e8_count is signed: its sign is the sign of the signature.  h_count is
    the number of hyperbolic summands.
    """

    e8_count: int
    h_count: int

    def __post_init__(self):
        if self.h_count < 0:
            raise ValueError("h_count must be nonnegative")

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


@dataclass(frozen=True)
class SignatureCongruence:
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


def quadratic_residues(p: int) -> tuple[int, ...]:
    """The nonzero squares mod p, sorted (used as the report witness set)."""
    return tuple(sorted({(k * k) % p for k in range(1, p)} - {0}))


def is_square_mod(a: int, p: int) -> bool:
    """Whether a, a unit mod p, is a square mod p.

    Factors p by trial division and tests each prime power l^k || p:
    Euler's criterion a^((l-1)/2) == 1 (mod l) for odd l (Hensel lifts a
    root mod l to l^k), a == 1 (mod 4) when 4 || p and a == 1 (mod 8) when
    8 | p (Cohen, A Course in Computational Algebraic Number Theory, 1.4).
    """
    if p < 2:
        raise ValueError("modulus must be at least 2")
    if gcd(a, p) != 1:
        raise ValueError("a must be coprime to the modulus")
    twos = (p & -p).bit_length() - 1
    if (twos == 2 and a % 4 != 1) or (twos >= 3 and a % 8 != 1):
        return False
    m = p >> twos
    ell = 3
    while ell * ell <= m:
        if m % ell == 0:
            if pow(a, (ell - 1) // 2, ell) != 1:
                return False
            while m % ell == 0:
                m //= ell
        ell += 2
    return m == 1 or pow(a, (m - 1) // 2, m) == 1


def lens_qr_bounding(p: int, q: int) -> bool:
    """Whether L(p, q) bounds a simply connected topological 4-manifold
    with b2 = 1: true iff +q or -q is a quadratic residue mod p.

    Uses the prime-power criterion of is_square_mod (composite moduli
    included); the exhaustive search over k in [0, p) lives in the test
    suite as the oracle.
    """
    if p < 2:
        raise ValueError("lens space parameter p must be at least 2")
    if not 0 < q < p:
        raise ValueError("lens space parameter q must satisfy 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("lens space parameters must be coprime")
    return is_square_mod(q, p) or is_square_mod(p - q, p)
