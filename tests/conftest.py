from itertools import combinations
from math import gcd

import hypothesis.strategies as st
from hypothesis import settings

from dehn4.exact import det, freeze
from dehn4.seifert import SeifertMatrix

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def build_seifert(g, lower, skew=None):
    """Assemble V with V - V^T the standard symplectic form of genus g.

    lower supplies the diagonal-and-below entries; entries above the
    diagonal are forced by V[i][j] = V[j][i] + J[i][j].
    """
    n = 2 * g
    m = [[0] * n for _ in range(n)]
    it = iter(lower)
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = next(it)
    for i in range(n):
        for j in range(i + 1, n):
            jij = 1 if (j == i + 1 and i % 2 == 0) else 0
            m[i][j] = m[j][i] + jij
    return SeifertMatrix(freeze(m))


@st.composite
def seifert_matrices(draw, max_genus=3, coeff=4):
    g = draw(st.integers(min_value=1, max_value=max_genus))
    n = 2 * g
    count = n * (n + 1) // 2
    lower = draw(
        st.lists(
            st.integers(min_value=-coeff, max_value=coeff),
            min_size=count,
            max_size=count,
        )
    )
    return build_seifert(g, lower)


@st.composite
def int_matrices(draw, max_dim=5, coeff=9):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return tuple(
        tuple(
            draw(st.integers(min_value=-coeff, max_value=coeff)) for _ in range(cols)
        )
        for _ in range(rows)
    )


def determinantal_divisors(m):
    """D_1, ..., D_r with D_k the gcd of all k x k minors of m (r = min(rows, cols)).

    The Smith diagonal is determined by them: d_1 * ... * d_k = D_k.
    """
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det([[m[i][j] for j in cs] for i in rs]))
        out.append(g)
    return out


def smith_diagonal_well_formed(m, diag):
    """diag is nonnegative, a divisibility chain with zeros last, and its
    partial products are the determinantal divisors of m."""
    assert len(diag) == min(len(m), len(m[0]))
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    product = 1
    for d, divisor in zip(diag, determinantal_divisors(m)):
        product *= d
        assert product == divisor
