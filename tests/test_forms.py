import random
import time
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dehn4.forms import (
    EvenFormClass,
    Parity,
    SignatureCongruence,
    SymUnimodularForm,
    classify_indefinite_even,
    e8_form,
    enumerate_even_splittings,
    exact_signature,
    hyperbolic_form,
    is_square_mod,
    lens_qr_bounding,
    parity,
    quadratic_residues,
    rohlin_constraint,
    zero_form,
)

E8 = e8_form()
H = hyperbolic_form()


def test_parity_examples():
    assert parity(H) is Parity.EVEN
    assert parity(SymUnimodularForm(((1,),))) is Parity.ODD
    assert parity(E8) is Parity.EVEN


def test_signature_examples():
    assert exact_signature(E8) == 8
    assert exact_signature(H) == 0
    both = E8.direct_sum(H)
    assert exact_signature(both) == 8
    assert both.rank == 10


def test_form_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SymUnimodularForm(((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="unimodular"):
        SymUnimodularForm(((2,),))
    assert zero_form().rank == 0


def test_negation_flips_signature():
    assert exact_signature(E8.negated()) == -8


def test_classify_examples():
    assert classify_indefinite_even(E8.direct_sum(H)) == EvenFormClass(1, 1)
    assert classify_indefinite_even(H) == EvenFormClass(0, 1)
    assert classify_indefinite_even(zero_form()) == EvenFormClass(0, 0)


def test_classify_rejects_odd_and_definite():
    with pytest.raises(ValueError, match="even"):
        classify_indefinite_even(SymUnimodularForm(((1,),)))
    with pytest.raises(ValueError, match="definite"):
        classify_indefinite_even(E8)


@given(a=st.integers(-2, 2), b=st.integers(0, 3))
def test_classify_round_trips_block_sums(a, b):
    cls = EvenFormClass(a, b)
    if a != 0 and b == 0:
        with pytest.raises(ValueError, match="definite"):
            classify_indefinite_even(cls.matrix())
    else:
        assert classify_indefinite_even(cls.matrix()) == cls


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
    forms = [E8, H, E8.negated(), SymUnimodularForm(((1,),))]
    for q1 in forms:
        for q2 in forms:
            assert exact_signature(q1.direct_sum(q2)) == exact_signature(
                q1
            ) + exact_signature(q2)


def test_lens_qr_examples():
    assert lens_qr_bounding(5, 2) is False
    assert lens_qr_bounding(5, 1) is True
    assert lens_qr_bounding(7, 3) is True  # -3 = 4 = 2^2 mod 7
    assert quadratic_residues(5) == (1, 4)


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
            assert lens_qr_bounding(p, q) == exhaustive, (p, q)


def test_qr_against_exhaustive_search_to_2000():
    """Both criteria against the set of squares k^2 mod p, k in [0, p): every
    q coprime to p up to p = 300, then a seeded sample of q for each p up to
    2000 (primes, prime powers, 4 || p and 8 | p among them)."""
    rng = random.Random(2000)
    for p in range(2, 2001):
        squares = {k * k % p for k in range(p)}
        units = [q for q in range(1, p) if gcd(p, q) == 1]
        for q in units if p <= 300 else rng.sample(units, min(len(units), 12)):
            assert is_square_mod(q, p) == (q in squares), (p, q)
            assert is_square_mod(p - q, p) == (p - q in squares), (p, q)
            assert lens_qr_bounding(p, q) == (q in squares or p - q in squares), (p, q)


def test_is_square_mod_reduces_a_and_validates():
    assert is_square_mod(-1, 5) is True  # -1 = 4 = 2^2 mod 5
    assert is_square_mod(-1, 7) is False
    assert is_square_mod(17, 8) is True  # 17 = 1 mod 8
    with pytest.raises(ValueError, match="coprime"):
        is_square_mod(3, 9)
    with pytest.raises(ValueError):
        is_square_mod(1, 1)


def test_lens_qr_large_prime_is_prompt():
    start = time.perf_counter()
    # p = 10^9 + 7 = 7 mod 8, so 2 is a square mod p
    assert lens_qr_bounding(10**9 + 7, 2) is True
    assert lens_qr_bounding(1009**3, 11) is False  # 11 and -11 are non-squares mod 1009
    assert time.perf_counter() - start < 2.0
