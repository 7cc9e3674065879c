"""Factorization over Z of integer polynomials of small degree.

`factor_list` splits a primitive polynomial into its irreducible factors
with their multiplicities.  It first divides out the cyclotomic
polynomials Phi_n of degree at most 16, the 32 of `CYCLOTOMIC`, each as
often as it divides, by exact division over Z.  A division is tried only
when Phi_n(2) divides f(2).  Those are the factors dehn4 meets most: the
Alexander polynomial of T(p, q) is the product of the Phi_d with d | pq,
d not dividing p or q (Rolfsen, *Knots and Links*, 1976), and Delta(t^n)
of a cyclotomic Delta is again a product of them.
Each Phi_n is irreducible over Z, so what divides out is part of the
factorization.  The general route below is slow on such products: small
primes divide their discriminants, so Berlekamp runs at p = 11-17 and
many modular factors are lifted and recombined.  Bradford and Davenport
("Effective tests for cyclotomic polynomials", ISSAC 1988, LNCS 358) find
the cyclotomic factors of a polynomial of any degree; the degree bound of
the Fox-Milnor test lets a fixed table do it here.

What is left, if it has degree >= 1, goes the classical route (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14-15):

  * square-free decomposition by Yun's algorithm (Yun 1976), with gcds
    taken by the primitive remainder sequence;
  * a square-free part of degree 1 is irreducible, and one of degree 2
    splits over Z exactly when its discriminant is a perfect square, into
    the primitive parts of 2a*t + b -+ sqrt(b^2 - 4ac); neither goes on;
  * Berlekamp's algorithm on each square-free part mod a small prime p
    (Berlekamp 1967).  The primes that keep the degree and leave the part
    square-free mod p are tried in increasing order, up to PRIMES_TRIED of
    them, and the one with the fewest modular factors is kept (the
    smallest on a tie).  A part that is irreducible mod p is irreducible,
    and the search stops there;
  * quadratic multifactor Hensel lifting along a balanced factor tree, to
    a power of p past twice the Mignotte bound;
  * recombination: the products of the lifted factors over subsets of
    increasing size, each candidate tried by division over Z (Zassenhaus
    1969).

No choice is random, so the factors and their order are the same on
every run.  Recombination is exponential in the number of modular
factors, so the module is meant for small degree: it serves the
Fox-Milnor test, whose polynomials have degree at most 16.

Inside the module a polynomial is a list of int coefficients, lowest
degree first, without trailing zeros (the zero polynomial is []).  Mod m,
the coefficients lie in [0, m).
"""
from __future__ import annotations

from itertools import combinations, count
from math import gcd, isqrt
from typing import Iterator, Sequence

PRIMES_TRIED = 3  # good primes tried before the one with the fewest factors is kept

# Phi_n for the 32 n with phi(n) <= 16, as tuples, lowest degree first;
# written out, so that importing the module computes nothing
CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    12: (1, 0, -1, 0, 1),
    13: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    14: (1, -1, 1, -1, 1, -1, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
    17: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    18: (1, 0, 0, -1, 0, 0, 1),
    20: (1, 0, -1, 0, 1, 0, -1, 0, 1),
    21: (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1),
    22: (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
    26: (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1),
    28: (1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1),
    30: (1, 1, 0, -1, -1, -1, 0, 1, 1),
    32: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    34: (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1),
    36: (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1),
    40: (1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1),
    42: (1, 1, 0, -1, -1, 0, 1, 0, -1, -1, 0, 1, 1),
    48: (1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1),
    60: (1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1),
}
# Phi_n(2) for the same n: Phi_n | f over Z gives Phi_n(2) | f(2), so an
# n whose value does not divide f(2) needs no trial division
CYCLOTOMIC_AT_2 = {
    1: 1, 2: 3, 3: 7, 4: 5, 5: 31, 6: 3, 7: 127, 8: 17, 9: 73, 10: 11, 11: 2047,
    12: 13, 13: 8191, 14: 43, 15: 151, 16: 257, 17: 131071, 18: 57, 20: 205,
    21: 2359, 22: 683, 24: 241, 26: 2731, 28: 3277, 30: 331, 32: 65537,
    34: 43691, 36: 4033, 40: 61681, 42: 5419, 48: 65281, 60: 80581,
}


def factor_list(coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The irreducible factors over Z of a primitive integer polynomial.

    coeffs lists the coefficients, leading first; the constant term must
    be nonzero.  Each irreducible factor comes once, with its multiplicity,
    as a coefficient tuple, leading coefficient first and positive.  Their
    product, each to its multiplicity, is the polynomial up to sign.  The
    list is sorted by (degree, multiplicity, coefficients), the order of
    sympy's `factor_list`.
    """
    f = _trim(list(coeffs)[::-1])
    if not f or not f[0] or gcd(*f) != 1:
        raise ValueError("factor_list takes a primitive polynomial with a nonzero constant term")
    f = _primitive(f)
    at_2 = sum(c << i for i, c in enumerate(f))  # f(2); at f(2) = 0 no Phi_n is skipped
    factors = []
    for n, phi in CYCLOTOMIC.items():
        k, phi_2 = 0, CYCLOTOMIC_AT_2[n]
        while len(f) >= len(phi) and at_2 % phi_2 == 0 and (q := _divide(f, phi)) is not None:
            f, at_2, k = q, at_2 // phi_2, k + 1
        if k:
            factors.append((phi, k))
    if len(f) > 1:
        factors += _factor_general(f)
    return sorted(
        ((tuple(reversed(g)), k) for g, k in factors), key=lambda gk: (len(gk[0]), gk[1], gk[0])
    )


def _factor_general(f: list[int]) -> list[tuple[list[int], int]]:
    """[(g, k)]: the irreducible factors g of f, each with its multiplicity
    k, by Yun, Berlekamp, Hensel lifting and Zassenhaus, for f primitive
    of degree >= 1 with positive leading coefficient."""
    return [(g, k) for part, k in _square_free_parts(f) for g in _zassenhaus(part)]


def _square_free_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun: [(a_i, i)] with f = prod a_i^i, each a_i square-free, primitive,
    of degree >= 1 and with positive leading coefficient, for f primitive
    with positive leading coefficient.  Every division is exact over Z,
    since each divisor is primitive (Gauss's lemma)."""
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    parts = []
    for i in count(1):
        if len(b) == 1:
            return parts
        d = _sub(c, _derivative(b))
        a = _gcd(b, d)
        b, c = _divide(b, a), _divide(d, a)
        if len(a) > 1:
            parts.append((a, i))


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors of f, square-free and primitive with positive
    leading coefficient, each primitive with positive leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:
        # a t^2 + b t + c has the roots (-b +- sqrt(d)) / 2a, d = b^2 - 4ac: it
        # splits over Z exactly when d is a square, and then 4a f is
        # (2a t + b - sqrt(d))(2a t + b + sqrt(d)), so by Gauss's lemma f is
        # the product of their primitive parts
        c, b, a = f
        d = b * b - 4 * a * c
        if d < 0 or isqrt(d) ** 2 != d:
            return [f]
        r = isqrt(d)
        return [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])]
    best = None
    tried = 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        fp = _monic(_mod(f, p), p)
        if len(_gcd_mod(fp, _mod(_derivative(fp), p), p)) > 1:
            continue
        basis = _berlekamp_basis(fp, p)
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        tried += 1
        if len(basis) == 1 or tried == PRIMES_TRIED:
            break
    p, fp, basis = best
    if len(basis) == 1:
        return [f]
    # a factor g of f has |g|_1 <= 2^n |f|_2 |lc(g) / lc(f)| (Mignotte), so
    # lc(f) g / lc(g), the lifted image of g, lies below half the modulus,
    # with the margin lc(f) of von zur Gathen and Gerhard's Algorithm 15.19
    bound = 2 * f[-1] * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, _berlekamp_split(fp, basis, p), p, modulus)
    return _recombine(f, lifted, modulus)


def _primes() -> Iterator[int]:
    for n in count(2):
        if all(n % d for d in range(2, isqrt(n) + 1)):
            yield n


def _berlekamp_basis(f: list[int], p: int) -> list[list[int]]:
    """A basis of {v : v^p = v mod f}, for f monic and square-free mod p; its
    size is the number of irreducible factors of f mod p.

    v^p = sum v_i x^(ip), so the basis spans the left null space of Q - I,
    whose row i holds x^(ip) mod f.  It is read off the reduced row echelon
    form of (Q - I)^T.
    """
    n = len(f) - 1
    q_rows = []
    r = [1] + [0] * (n - 1)  # x^k mod f, as n coefficients, for k = 0, 1, ...
    for k in range((n - 1) * p + 1):
        if k % p == 0:
            q_rows.append(r)
        top = r[-1]
        r = [0] + r[:-1]
        if top:  # x^n = -(f_0 + ... + f_(n-1) x^(n-1)) mod f
            r = [(x - top * c) % p for x, c in zip(r, f)]
    a = [[(q_rows[i][j] - (i == j)) % p for i in range(n)] for j in range(n)]
    pivots = []
    for col in range(n):
        row = next((i for i in range(len(pivots), n) if a[i][col]), None)
        if row is None:
            continue
        top = len(pivots)
        a[top], a[row] = a[row], a[top]
        inv = pow(a[top][col], -1, p)
        a[top] = [x * inv % p for x in a[top]]
        for i in range(n):
            c = a[i][col]
            if i != top and c:
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[top])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = -a[i][free] % p
        basis.append(_trim(v))
    return basis


def _berlekamp_split(f: list[int], basis: list[list[int]], p: int) -> list[list[int]]:
    """The monic irreducible factors of f mod p: every factor g of f is the
    product of gcd(g, v - c) over c in F_p, for each v in the basis."""
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        split = []
        for g in factors:
            for c in range(p):
                if len(g) == 1:
                    break
                h = _gcd_mod(g, _mod([v[0] - c, *v[1:]], p), p)
                if len(h) > 1:
                    split.append(h)
                    g = _divmod_monic(g, h, p)[0]
        factors = split
    return factors


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, modulus: int) -> list[list[int]]:
    """Monic factors of f mod modulus, a power p^(2^k), lifted from the
    pairwise coprime monic factors of f = lc(f) prod factors mod p; f need
    only be known mod modulus.  The list is split in halves and each split
    is lifted by quadratic Hensel steps, then each half in turn."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [_mod([c * inv for c in f], modulus)]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mod(_mul(g, u), p)
    h = [1]
    for u in factors[k:]:
        h = _mod(_mul(h, u), p)
    s, t = _xgcd_mod(g, h, p)
    m = p
    while m < modulus:
        m *= m
        g, h, s, t = _hensel_step(f, g, h, s, t, m, m < modulus)
    return _hensel_lift(g, factors[:k], p, modulus) + _hensel_lift(h, factors[k:], p, modulus)


def _hensel_step(f, g, h, s, t, m, lift_st):
    """From f = g h and s g + t h = 1 mod r, with m = r^2, h monic,
    deg s < deg h and deg t < deg g, the same four mod m (von zur Gathen
    and Gerhard, Algorithm 15.10); s and t stay as they are unless
    lift_st, since the last step needs no more."""
    e = _mod(_sub(f, _mul(g, h)), m)
    q, r = _divmod_monic(_mul(s, e), h, m)
    g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), m)
    h = _mod(_add(h, r), m)
    if not lift_st:
        return g, h, s, t
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
    c, d = _divmod_monic(_mul(s, b), h, m)
    s = _mod(_sub(s, d), m)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return g, h, s, t


def _recombine(f: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    """The irreducible factors of f: a true factor g lifts to
    lc(f) g / lc(g) = lc(f) prod of some lifted factors, in the symmetric
    range mod modulus.  Subsets are tried by increasing size; each factor
    found is divided out of f, with its lifted factors."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mod(_mul(g, lifted[i]), modulus)
            g = [c - modulus if 2 * c > modulus else c for c in g]
            if not g[0] or f[-1] * f[0] % g[0]:  # its constant term divides lc(f) f(0)
                continue
            g = _primitive(g)
            q = _divide(f, g)
            if q is not None:
                found.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


# --- arithmetic over Z -----------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + a[len(b):])


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _add(a, [-y for y in b])


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    n = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + n] = [z + x * y for z, y in zip(out[i : i + n], b)]
    return out


def _derivative(a: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _primitive(a: list[int]) -> list[int]:
    """a over its content, with positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _divide(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None when b does not divide a; b != 0."""
    a = a[:]
    db = len(b) - 1
    if len(a) <= db:
        return [] if not a else None
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(a[k + db], b[-1])
        if rem:
            return None
        q[k] = c
        if c:
            a[k : k + db] = [x - c * y for x, y in zip(a[k : k + db], b)]
    return None if any(a[:db]) else q


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of lc(b)^k a by b, for some k >= 0."""
    a = a[:]
    lc = b[-1]
    while len(a) >= len(b):
        c, shift = a.pop(), len(a) + 1 - len(b)
        a = [x * lc for x in a[:shift]] + [x * lc - c * y for x, y in zip(a[shift:], b)]
        _trim(a)
    return a


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd over Z, with positive leading coefficient; a != 0."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    return a


# --- arithmetic mod m ------------------------------------------------------


def _mod(a: list[int], m: int) -> list[int]:
    return _trim([x % m for x in a])


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m of a by b, whose leading coefficient is
    1 mod m."""
    r = a[:]
    db = len(b) - 1
    if len(r) <= db:
        return [], _mod(r, m)
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] % m
        if c:
            r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
    return _trim(q), _mod(r[:db], m)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd mod the prime p; a != 0."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic(a, p)


def _xgcd_mod(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s g + t h = 1 mod the prime p, deg s < deg h and
    deg t < deg g, for g and h coprime mod p."""
    r0, r1 = g, h
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        q, r = _divmod_monic(r0, [x * inv for x in r1], p)
        q = [x * inv for x in q]
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _mod([x * inv for x in s0], p), _mod([x * inv for x in t0], p)
