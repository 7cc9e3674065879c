"""The Fox-Milnor condition on an Alexander polynomial.

A knot that is slice, or only algebraically slice, has an Alexander
polynomial of the form f(t) * f(1/t) up to units (Fox and Milnor 1966).
`fox_milnor` tests that exactly and returns a `FoxMilnorResult`: the
factor f when the test passes, or a `FoxMilnorFailure` that names its
witness.  `seifert.algebraic_slice_verdict` is its one caller in dehn4,
and imports this module only when it has a Delta to test within
`seifert.FOX_MILNOR_DEGREE_BOUND` that its memo has not seen, so a report
whose verdicts the signature decides, or that refuses Delta from its
span, compiles none of it.  `factor` is imported only when the test has
to factor.  The bound and its message stay in `seifert`, whose span
refusal reads them first.  `dehn4.seifert` still serves `fox_milnor`,
`FoxMilnorResult`, `FoxMilnorFailure` and `FactorizationBoundError` by
those names, loading this module on first access, so callers and
pickles that name them there keep working.
"""
from __future__ import annotations

from math import isqrt
from typing import NamedTuple

import dehn4.seifert as seifert
from dehn4.laurent import LaurentPoly


class FactorizationBoundError(ValueError):
    """Polynomial degree exceeds the configured Fox-Milnor search bound."""


class FoxMilnorFailure(NamedTuple):
    kind: str  # "determinant" or "factorization"
    detail: str
    determinant: int | None = None


class FoxMilnorResult(NamedTuple):
    passed: bool
    factor: LaurentPoly | None = None
    failure: FoxMilnorFailure | None = None


def fox_milnor(delta: LaurentPoly) -> FoxMilnorResult:
    """Test whether delta(t) = f(t) * f(1/t) up to units, exactly.

    delta is unit-normalized, so it is palindromic with delta(1) = 1, and
    the test fails in one of two ways, each with its witness:
      determinant    |delta(-1)| = f(-1)^2 is not a perfect square;
      factorization  a self-reciprocal irreducible factor over Z has odd
                     multiplicity.
    No other failure can happen: the integer content divides delta(1) = 1,
    and since delta(0) != 0 after shifting, unique factorization in Z[t]
    gives each factor g and its reciprocal g* the same multiplicity.
    Passing returns one f, checked by multiplying out; a factorization
    that broke either fact would be an internal error, never a verdict.

    The factors over Z come from `factor.factor_list`, in pure Python, so
    the test needs no dependency; sympy is its oracle in the tests only.
    They are read in the order (degree, multiplicity, coefficients): f
    takes the first of each pair {g, g*}, and a failure names the first
    self-reciprocal factor of odd multiplicity, printed as sympy's `sstr`
    prints it.

    Raises FactorizationBoundError when the polynomial degree exceeds
    `seifert.FOX_MILNOR_DEGREE_BOUND`, read at each call (an "out of
    configured range" error, distinct from a failed test).  `algebraic_slice_verdict` refuses such a Delta
    with the same message from `alexander_span`, before Delta is built,
    so it calls this test only within the bound.
    """
    norm = delta.normalized()
    if norm.span > seifert.FOX_MILNOR_DEGREE_BOUND:
        raise FactorizationBoundError(seifert._beyond_bound(norm.span))
    # Delta(-1), an integer: each term is +-c by the parity of its exponent
    det_int = abs(sum(-c if e % 2 else c for e, c in norm.coeffs.items()))
    if isqrt(det_int) ** 2 != det_int:
        return FoxMilnorResult(
            passed=False,
            failure=FoxMilnorFailure(
                kind="determinant",
                detail=f"|Delta(-1)| = {det_int} is not a perfect square",
                determinant=det_int,
            ),
        )
    if norm.is_one():
        return FoxMilnorResult(passed=True, factor=LaurentPoly.one())

    # imported on first use, so that a report that factors nothing skips it
    from .factor import factor_list

    shifted = norm.shifted(-norm.min_exp)  # ordinary polynomial, nonzero constant term
    coeffs = shifted.coeffs
    # the content is +-1 (it divides Delta(1) = 1), and factor_list gives
    # each irreducible factor once, with its multiplicity
    factors = factor_list([coeffs.get(e, 0) for e in range(norm.span, -1, -1)])

    f = LaurentPoly.one()
    seen: set[tuple[int, ...]] = set()
    for key, e in factors:
        if key in seen:
            continue
        rkey = _reciprocal_key(key)
        if rkey == key and e % 2 != 0:
            return FoxMilnorResult(
                passed=False,
                failure=FoxMilnorFailure(
                    kind="factorization",
                    detail=f"self-reciprocal factor {_poly_text(key)} has odd multiplicity {e}",
                ),
            )
        # g* has the multiplicity of g, so f takes g^e, or g^(e/2) when g = g*
        glaur = _to_laurent(key)
        for _ in range(e // 2 if rkey == key else e):
            f = f * glaur
        seen.update((key, rkey))

    product = (f * f.reciprocal()).normalized()
    if product != norm:
        raise AssertionError("internal error: paired factorization does not reproduce Delta")
    return FoxMilnorResult(passed=True, factor=f)


def _poly_key(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients, leading first, of the one of +-g whose leading
    coefficient is positive."""
    return coeffs if coeffs[0] > 0 else tuple(-c for c in coeffs)


def _reciprocal_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """The key of g*(t) = t^deg g(1/t); no factor of Delta is divisible by
    t, so g(0) != 0 and g* has the degree of g."""
    return _poly_key(key[::-1])


def _to_laurent(key: tuple[int, ...]) -> LaurentPoly:
    deg = len(key) - 1
    return LaurentPoly({deg - i: c for i, c in enumerate(key)})


def _poly_text(key: tuple[int, ...]) -> str:
    """The polynomial in t with these coefficients, leading first and
    positive, as sympy's `sstr` prints it: terms by falling degree, `**`
    for powers, `*` after a coefficient other than 1, and no term for a
    zero coefficient, e.g. `2*t**2 - 5*t + 2`."""
    deg = len(key) - 1
    parts = []
    for i, c in enumerate(key):
        if c:
            e = deg - i
            power = "" if e == 0 else "t" if e == 1 else f"t**{e}"
            term = str(abs(c)) if e == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            parts.append(term if not parts else f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)
