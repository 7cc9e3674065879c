import random
import re
import time
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import block_diagonal, sparse_rows
from dehn4.exact import det, signature_symmetric
from dehn4.forms import (
    EvenFormClass,
    SignatureCongruence,
    enumerate_even_splittings,
    factor,
    lens_qr_bounding,
    rohlin_constraint,
)
from dehn4.scenarios import Verdict, build_scenario, run_scenario

# Cartan matrix of E8: the positive definite even unimodular form of rank 8.
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)
H = ((0, 1), (1, 0))


def negated(m):
    return tuple(tuple(-x for x in row) for row in m)


def block_sum(a, b):
    """A representative of the class a*E8 + b*H: |a| copies of +-E8, then b of H."""
    e8 = E8 if a >= 0 else negated(E8)
    return block_diagonal(*[e8] * abs(a), *[H] * b)


def test_signature_examples():
    assert signature_symmetric(sparse_rows(E8)) == 8
    assert signature_symmetric(sparse_rows(H)) == 0
    both = block_diagonal(E8, H)
    assert signature_symmetric(sparse_rows(both)) == 8
    assert len(both) == 10


def test_negation_flips_signature():
    assert signature_symmetric(sparse_rows(negated(E8))) == -8


def test_classify_round_trips_block_sums():
    """Rank and signature of the block sum recover the class a*E8 + b*H."""
    for a in range(-2, 3):
        for b in range(0, 4):
            cls = EvenFormClass(a, b)
            m = block_sum(a, b)
            assert cls.rank == len(m)
            assert cls.signature == signature_symmetric(sparse_rows(m))
            assert abs(det(sparse_rows(m))) == 1
            e8, rem = divmod(cls.signature, 8)
            assert rem == 0
            assert EvenFormClass(e8, (len(m) - 8 * abs(e8)) // 2) == cls


def test_even_class_rank_signature():
    cls = EvenFormClass(-2, 3)
    assert cls.rank == 22
    assert cls.signature == -16
    assert str(cls) == "2*-E8 + 3*H"
    with pytest.raises(ValueError):
        EvenFormClass(0, -1)


def test_rohlin_constraint_values():
    assert rohlin_constraint(1) == SignatureCongruence(8, 16)
    assert rohlin_constraint(0) == SignatureCongruence(0, 16)
    assert not rohlin_constraint(1).admits(0)
    assert rohlin_constraint(1).admits(8)
    assert rohlin_constraint(1).admits(-8)
    assert rohlin_constraint(0).admits(16)
    with pytest.raises(ValueError):
        rohlin_constraint(2)


def test_enumerate_the_two_splittings():
    pairs = enumerate_even_splittings(
        EvenFormClass(1, 1), rohlin_constraint(1), rohlin_constraint(0)
    )
    assert pairs == (
        (EvenFormClass(1, 0), EvenFormClass(0, 1)),
        (EvenFormClass(1, 1), EvenFormClass(0, 0)),
    )


def test_enumerate_hyperbolic_with_rho_one_is_empty():
    assert enumerate_even_splittings(EvenFormClass(0, 1), rohlin_constraint(1)) == ()


def test_enumerate_trivial_total():
    pairs = enumerate_even_splittings(
        EvenFormClass(0, 0), rohlin_constraint(0), rohlin_constraint(0)
    )
    assert pairs == ((EvenFormClass(0, 0), EvenFormClass(0, 0)),)


@given(
    a=st.integers(-1, 2),
    b=st.integers(0, 3),
    r1=st.sampled_from([None, 0, 1]),
    r2=st.sampled_from([None, 0, 1]),
)
def test_enumerated_splittings_sum_and_satisfy(a, b, r1, r2):
    total = EvenFormClass(a, b)
    c1 = rohlin_constraint(r1) if r1 is not None else None
    c2 = rohlin_constraint(r2) if r2 is not None else None
    for s1, s2 in enumerate_even_splittings(total, c1, c2):
        assert s1.rank + s2.rank == total.rank
        assert s1.signature + s2.signature == total.signature
        if c1 is not None:
            assert c1.admits(s1.signature)
        if c2 is not None:
            assert c2.admits(s2.signature)


def test_signature_additivity_under_direct_sum():
    forms = [E8, H, negated(E8), ((1,),)]
    for q1 in forms:
        for q2 in forms:
            assert signature_symmetric(sparse_rows(block_diagonal(q1, q2))) == (
                signature_symmetric(sparse_rows(q1)) + signature_symmetric(sparse_rows(q2))
            )


def squares_mod(m):
    """The exhaustive oracle: every k^2 mod m for k in [0, m)."""
    return {k * k % m for k in range(m)}


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_lens_qr_examples():
    assert lens_qr_bounding(5, 2).bounds is False
    assert lens_qr_bounding(5, 1).bounds is True
    assert lens_qr_bounding(7, 3).bounds is True  # -3 = 4 = 2^2 mod 7
    w = lens_qr_bounding(5, 2)
    assert (w.factors, w.q_checks, w.minus_q_checks) == (((5, 1),), (4,), (4,))
    # 2 || p reports the trivial a mod 2 = 1; 4 || p checks a mod 4
    w = lens_qr_bounding(36, 5)
    assert (w.factors, w.q_checks, w.minus_q_checks) == (((2, 2), (3, 2)), (1, 2), (3, 1))
    assert lens_qr_bounding(18, 5).factors == ((2, 1), (3, 2))
    assert lens_qr_bounding(18, 5).q_checks == (1, 2)


def test_factor_examples():
    assert factor(2) == ((2, 1),)
    assert factor(37800) == ((2, 3), (3, 3), (5, 2), (7, 1))
    assert factor(1009**3) == ((1009, 3),)
    assert factor(10**9 + 7) == ((10**9 + 7, 1),)
    assert factor(2 * (10**9 + 7)) == ((2, 1), (10**9 + 7, 1))


def test_lens_qr_validation():
    with pytest.raises(ValueError, match="coprime"):
        lens_qr_bounding(9, 3)
    with pytest.raises(ValueError):
        lens_qr_bounding(5, 5)
    with pytest.raises(ValueError):
        lens_qr_bounding(1, 1)


def test_lens_qr_against_exhaustive_search_small():
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            exhaustive = any(
                (k * k - q) % p == 0 or (k * k + q) % p == 0 for k in range(p)
            )
            assert lens_qr_bounding(p, q).bounds == exhaustive, (p, q)


def test_qr_against_exhaustive_search_to_2000():
    """The residue facts of lens_qr_bounding against the set of squares
    k^2 mod p, k in [0, p): every q coprime to p up to p = 300, then a
    seeded sample of q for each p up to 2000 (primes, prime powers, 4 || p
    and 8 | p among them)."""
    rng = random.Random(2000)
    for p in range(2, 2001):
        squares = squares_mod(p)
        units = [q for q in range(1, p) if gcd(p, q) == 1]
        for q in units if p <= 300 else rng.sample(units, min(len(units), 12)):
            w = lens_qr_bounding(p, q)
            assert (w.q_is_residue, w.minus_q_is_residue) == (q in squares, p - q in squares)
            assert w.bounds == (q in squares or p - q in squares), (p, q)


ODD_PRIMES = [ell for ell in range(3, 72) if is_prime(ell)]


@st.composite
def lens_moduli(draw, bound=5000):
    """p <= bound, mostly odd prime powers, 4 || p and 8 | p."""
    kind = draw(st.sampled_from(["any", "odd-prime-power", "4||p", "8|p"]))
    if kind == "any":
        return draw(st.integers(2, bound))
    if kind == "odd-prime-power":
        ell = draw(st.sampled_from(ODD_PRIMES))
        k_max = next(k for k in range(1, 20) if ell ** (k + 1) > bound)
        return ell ** draw(st.integers(1, k_max))
    if kind == "4||p":
        return 4 * (2 * draw(st.integers(0, (bound // 4 - 1) // 2)) + 1)
    return 8 * draw(st.integers(1, bound // 8))


_POWER_CHECK = re.compile(r"^(\d+)\^(\d+):(\d+)$")
_WITNESS = re.compile(r"^neither (\d+) mod (\d+\^\d+) nor (\d+) mod (\d+\^\d+) is a square$")


@settings(max_examples=300)
@given(p=lens_moduli(), q_seed=st.integers(1, 10**6))
def test_lens_witness_rechecks_against_exhaustive_search(p, q_seed):
    """The sphere-lens report's witness, read back from the report alone:
    its prime powers multiply to p, every check recomputes with pow or %,
    the verdict is the exhaustive search's, and an Obstructed detail names
    for each sign a prime power modulo which it is not a square."""
    q = 1 + q_seed % (p - 1)
    assume(gcd(p, q) == 1)
    report = run_scenario(build_scenario("sphere-lens", p=p, q=q))
    step = next(t for t in report.trace if t.operation == "lens_qr_bounding")
    euler = step.output["euler"]
    checked = []
    for a, entry in zip((q, p - q), euler):
        powers = {}
        for c in entry.split(" "):
            ell, k, v = map(int, _POWER_CHECK.match(c).groups())
            assert is_prime(ell) and k >= 1 and ell not in {e for e, _ in powers}
            assert v == (a % 2 ** min(k, 3) if ell == 2 else pow(a, (ell - 1) // 2, ell))
            powers[ell, k] = v
        assert prod(ell**k for ell, k in powers) == p
        checked.append(powers)
    squares = squares_mod(p)
    residue = [all(v == 1 for v in powers.values()) for powers in checked]
    assert residue == [q in squares, p - q in squares]
    assert [step.output["q_is_residue"], step.output["minus_q_is_residue"]] == residue
    bounds = q in squares or p - q in squares
    assert step.output["bounds_b2_one_filling"] == bounds
    assert report.verdict is (Verdict.NOT_OBSTRUCTED if bounds else Verdict.OBSTRUCTED)
    if not bounds:
        a, at_a, b, at_b = _WITNESS.match(report.detail["witness"]).groups()
        assert (int(a), int(b)) == (q, p - q)
        for x, at, powers in ((q, at_a, checked[0]), (p - q, at_b, checked[1])):
            ell, k = map(int, at.split("^"))
            assert powers[ell, k] != 1
            assert x % ell**k not in squares_mod(ell**k)


def test_lens_qr_large_prime_is_prompt():
    start = time.perf_counter()
    # p = 10^9 + 7 = 7 mod 8, so 2 is a square mod p
    assert lens_qr_bounding(10**9 + 7, 2).bounds is True
    assert lens_qr_bounding(1009**3, 11).bounds is False  # 11 and -11 are non-squares mod 1009
    assert time.perf_counter() - start < 2.0
