"""Integer Laurent polynomials with exact arithmetic.

Used for Alexander polynomials: values are carried as sparse
exponent -> coefficient maps, multiplication and substitution are exact,
and normalization centers a palindromic polynomial at degree zero with
value +1 at t = 1.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # the types are checked in one pass; the loop only names a term that is not an int
        if isinstance(coeffs, Mapping):
            pairs, terms = coeffs.items(), coeffs
            types = {*map(type, coeffs), *map(type, coeffs.values())}
        else:
            pairs, terms = list(coeffs), {}
            types = set(map(type, chain.from_iterable(pairs)))
        if not types <= {int}:
            for exp, c in pairs:
                if type(exp) is not int or type(c) is not int:  # bool is an int subclass
                    raise ValueError(
                        f"exponent {exp!r} and its coefficient {c!r} must be integers"
                    )
        if terms is not coeffs:  # pairs may repeat an exponent
            for exp, c in pairs:
                terms[exp] = terms.get(exp, 0) + c
        self._coeffs = tuple(sorted([term for term in terms.items() if term[1]]))

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == ((0, 1),)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._coeffs[0][0]

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._coeffs[-1][0]

    @property
    def span(self) -> int:
        """max_exp - min_exp; 0 for monomials and for the zero polynomial."""
        return 0 if not self._coeffs else self.max_exp - self.min_exp

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs:
            for e2, c2 in other._coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs})

    def substituted(self, n: int) -> "LaurentPoly":
        """The polynomial with t replaced by t**n (n may be negative)."""
        if n == 0:
            raise ValueError("substitution t -> t**0 is not defined")
        return LaurentPoly({e * n: c for e, c in self._coeffs})

    def reciprocal(self) -> "LaurentPoly":
        """The polynomial with t replaced by 1/t."""
        return self.substituted(-1)

    def is_palindromic(self) -> bool:
        """True if coefficients read the same from both ends (up to t-shift)."""
        if not self._coeffs:
            return True
        # the k-th term from the low end pairs with the k-th from the high end
        center = self.min_exp + self.max_exp
        return all(
            e + f == center and c == d
            for (e, c), (f, d) in zip(self._coeffs, reversed(self._coeffs))
        )

    def normalized(self) -> "LaurentPoly":
        """Unit-normalize: center the exponents and make the value at 1 positive.

        Requires a palindromic polynomial with even span and value +-1 at
        t = 1 (every Alexander polynomial of a knot satisfies this).
        """
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if not self.is_palindromic():
            raise ValueError("polynomial is not palindromic up to units")
        total = self.min_exp + self.max_exp
        if total % 2 != 0:
            raise ValueError("polynomial has odd span; cannot center")
        centered = self.shifted(-total // 2)
        at_one = sum(c for _, c in self._coeffs)
        if abs(at_one) != 1:
            raise ValueError(f"value at t=1 is {at_one}, expected +-1")
        return -centered if at_one < 0 else centered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs, reverse=True):
            if e == 0:
                term = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self._coeffs)!r})"

