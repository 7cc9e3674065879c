"""Seeded request lists for the four benchmark workloads, with expected verdicts.

The expected verdicts come from outside the code under test: a hand-written
table for the fixed scenario inputs, and Euler's criterion at every
prime-power factor of p for the lens-space moduli.  The seed picks the
moduli and q on `lens-sweep` and the order of the requests elsewhere; the
amount of work per pass stays the same for every seed.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

WORKLOADS = ("cli-cold", "lens-sweep", "twist-sweep", "alexander-ladder")
FORMATS = ("text", "json")


@dataclass(frozen=True)
class Request:
    """One report: CLI arguments (cold process) or build_scenario keywords."""

    fmt: str
    verdict: str
    tags: tuple[str, ...] | None = None  # slice tags in trace order, when checked
    argv: tuple[str, ...] | None = None
    kwargs: dict | None = None

    def to_json(self) -> str:
        return json.dumps(
            {"fmt": self.fmt, "verdict": self.verdict, "tags": self.tags,
             "argv": self.argv, "kwargs": self.kwargs}
        )


# --- cli-cold: the six scenarios at their defaults plus the README examples ---
# (the README's `--p 5 --q 2` and `{"whitehead": "+"}` examples repeat the
# defaults of their scenarios, so they are left out)

_CLI_CASES = (
    (("--scenario", "sphere-lens"), "Obstructed"),
    (("--scenario", "sphere-smooth-h"), "Obstructed"),
    (("--scenario", "sphere-smooth-e8h"), "Obstructed"),
    (("--scenario", "torus-solid"), "Obstructed"),
    (("--scenario", "torus-top-vs-smooth"), "Mixed"),
    (("--scenario", "twist-extension"), "Mixed"),
    (("--scenario", "torus-solid", "--knot-j", '{"torus": [3, 5]}'), "Obstructed"),
    # the stevedore is slice, so the (0, 1) class carries no obstruction
    (("--scenario", "torus-solid", "--knot-j", '{"twist": 2}'), "Inconclusive"),
    # left # right trefoil is slice, so the (1, 1) class carries no obstruction
    (("--scenario", "torus-solid", "--knot-j", '{"seifert": [[-1, 1], [0, -1]]}'),
     "Inconclusive"),
)


def _cli_requests() -> list[Request]:
    return [
        Request(fmt=fmt, verdict=verdict, argv=("report", *args, "--format", fmt))
        for args, verdict in _CLI_CASES
        for fmt in FORMATS
    ]


# --- lens-sweep: a ladder of moduli from 10^3 to 10^6 in five arithmetic classes ---

# 10^3, 10^4.5, 10^5.5, 10^5.75, 10^6.  The median report falls on the middle
# rung: below about 10^5.5 the O(p) work fits in cache and its time swings
# far more with other load on the machine than it does at the top rungs.
_LENS_TARGETS = (1_000, 31_623, 316_228, 562_341, 1_000_000)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def _prime_at_least(n: int) -> int:
    n = max(n, 3)
    while not _is_prime(n):
        n += 1
    return n


def _lens_modulus(kind: str, target: int, rng: random.Random) -> dict[int, int]:
    """Factorization {prime: exponent} of a modulus near target of the given kind."""
    near = int(target * (1 + rng.random() / 100))
    if kind == "prime":
        return {_prime_at_least(near): 1}
    if kind == "prime-square":
        return {_prime_at_least(isqrt(near)): 2}
    if kind == "prime-cube":
        return {_prime_at_least(round(near ** (1 / 3))): 3}
    if kind == "4||p":
        return {2: 2, _prime_at_least(near // 4): 1}
    return {2: 3, _prime_at_least(near // 8): 1}  # 8 | p


# Five kinds on each of five rungs give 25 reports a pass, which puts p50 and
# p75 inside one input's samples (see TAIL_PCT in run.py).
_LENS_KINDS = ("prime", "prime-square", "prime-cube", "4||p", "8|p")


def is_square_mod(a: int, factors: dict[int, int]) -> bool:
    """Whether a unit a is a square modulo prod(l**k), one prime power at a time.

    Odd l: Euler's criterion a^((l-1)/2) = 1 mod l (Hensel lifts it to l^k).
    l = 2: no condition for 2, a = 1 mod 4 for 4, a = 1 mod 8 for 8 | p.
    """
    for ell, k in factors.items():
        if ell == 2:
            if (k == 2 and a % 4 != 1) or (k >= 3 and a % 8 != 1):
                return False
        elif pow(a, (ell - 1) // 2, ell) != 1:
            return False
    return True


def lens_request(factors: dict[int, int], q: int, fmt: str) -> Request:
    p = 1
    for ell, k in factors.items():
        p *= ell**k
    bounds = is_square_mod(q, factors) or is_square_mod(p - q, factors)
    return Request(
        fmt=fmt,
        verdict="NotObstructed" if bounds else "Obstructed",
        kwargs={"name": "sphere-lens", "p": p, "q": q},
    )


def _lens_requests(rng: random.Random, targets) -> list[Request]:
    out = []
    for i, target in enumerate(targets):
        for j, kind in enumerate(_LENS_KINDS):
            factors = _lens_modulus(kind, target, rng)
            p = 1
            for ell, k in factors.items():
                p *= ell**k
            q = rng.randrange(1, p)
            while gcd(p, q) != 1:
                q = rng.randrange(1, p)
            out.append(lens_request(factors, q, FORMATS[(i + j) % 2]))
    return out


# --- twist-sweep: every coprime pair 2 <= p < q <= 9 ---

def _twist_requests(bound: int) -> list[Request]:
    pairs = [
        (p, q) for p in range(2, bound) for q in range(p + 1, bound + 1) if gcd(p, q) == 1
    ]
    # a torus-knot companion has nonzero signature, so every class is obstructed
    return [
        Request(fmt=FORMATS[i % 2], verdict="Mixed",
                kwargs={"name": "twist-extension", "p": p, "q": q})
        for i, (p, q) in enumerate(pairs)
    ]


# --- alexander-ladder: Alexander polynomials and all three Fox-Milnor branches ---

def torus_seifert(p: int, q: int) -> list[list[int]]:
    """Seifert matrix of T(p, q), 2 <= p < q coprime, on the fence basis of the
    Bennequin surface of the braid (s_1 ... s_{p-1})^q."""
    rows = q - 1
    n = (p - 1) * rows
    v = [[0] * n for _ in range(n)]
    for i in range(p - 1):
        for j in range(rows):
            x = i * rows + j
            v[x][x] = -1
            if j + 1 < rows:
                v[x][x + 1] = 1
            if i + 1 < p - 1:
                v[x + rows][x] = 1
                if j >= 1:
                    v[x + rows - 1][x] = -1
    return v


def _minus_sum(v: list[list[int]]) -> list[list[int]]:
    """Seifert matrix of K # -K: the block sum of V and its concordance inverse -V."""
    n = len(v)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = v[i][j]
            out[n + i][n + j] = -v[i][j]
    return out


_UNKNOWN2 = ("Unknown", "Unknown")


def _alexander_requests(ladder_top: int, sums) -> list[Request]:
    reqs = []
    for p in range(2, ladder_top + 1):
        # Delta(T(p, p+1)) is not 1, so the topological side fails; the
        # longitudinal class -J has nonzero signature.
        reqs.append(("Inconclusive", ("ObstructedBySignature",), {
            "name": "torus-top-vs-smooth", "n": 1, "knot_j": {"torus": [p, p + 1]},
        }))
    for p, q in sums:
        # signature 0 and Delta = Delta_T^2: Fox-Milnor passes (factorization)
        # when the span 2(p-1)(q-1) is at most 16, and is out of bound otherwise.
        spec = {"seifert": _minus_sum(torus_seifert(p, q)), "name": f"T({p},{q})#-T({p},{q})"}
        reqs.append(("Inconclusive", _UNKNOWN2, {
            "name": "torus-solid", "n": 1, "knot_j": spec, "knot_k": "unknot",
        }))
    # figure-eight: |Delta(-1)| = 5 is not a square (the determinant witness);
    # stevedore: Delta = (2t - 1)(t - 2)/t passes Fox-Milnor.
    reqs.append(("Obstructed", ("ObstructedByFoxMilnor",) * 2, {
        "name": "torus-solid", "n": 1, "knot_j": "figure-eight", "knot_k": "unknot",
    }))
    reqs.append(("Inconclusive", _UNKNOWN2, {
        "name": "torus-solid", "n": 1, "knot_j": "stevedore", "knot_k": "unknot",
    }))
    return [
        Request(fmt=FORMATS[i % 2], verdict=verdict, tags=tags, kwargs=kwargs)
        for i, (verdict, tags, kwargs) in enumerate(reqs)
    ]


_SUMS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5))


def make_requests(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """One pass of the workload; tiny is the smoke-test size.

    The lens ladder keeps its ascending order, so each report follows the
    same one on every seed; the other workloads run in seeded order.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lens-sweep":
        return _lens_requests(rng, _LENS_TARGETS[:2] if tiny else _LENS_TARGETS)
    if workload == "cli-cold":
        reqs = _cli_requests()
    elif workload == "twist-sweep":
        reqs = _twist_requests(5 if tiny else 9)
    elif workload == "alexander-ladder":
        reqs = _alexander_requests(3, _SUMS[:1]) if tiny else _alexander_requests(7, _SUMS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs[:2] if tiny and workload == "cli-cold" else reqs


def passes(workload: str, seed: int, tiny: bool = False) -> Iterator[list[Request]]:
    """Endless passes over make_requests(workload, seed, tiny), each holding
    every request once.  Outside the lens ladder each pass after the first
    is shuffled again, so that across a run every report follows many
    others: what a report costs depends a little on the one before it
    (caches, the allocator), and a fixed order would make that a property
    of the seed."""
    reqs = make_requests(workload, seed, tiny)
    rng = random.Random(f"{workload}:{seed}:passes")
    while True:
        yield reqs
        if workload != "lens-sweep":
            reqs = rng.sample(reqs, len(reqs))


def warmup_request(workload: str) -> Request:
    """The fixed, seed-independent first report that set-up time ends with."""
    if workload == "cli-cold":
        return _cli_requests()[0]
    if workload == "lens-sweep":
        return lens_request({1009: 1}, 2, "text")
    if workload == "twist-sweep":
        return _twist_requests(3)[0]
    return _alexander_requests(2, ())[0]


_TEXT_VERDICT = re.compile(r"^verdict: (\S+)$", re.MULTILINE)
_JSON_VERDICT = re.compile(r'^  "verdict": "([^"]*)",?$', re.MULTILINE)
_TEXT_TAG = re.compile(r"^ +tag: (\S+)$", re.MULTILINE)
_JSON_TAG = re.compile(r'^ +"tag": "([^"]*)",?$', re.MULTILINE)


def check(req: Request, output: str) -> str | None:
    """None when the rendered report matches the expectation, else the mismatch."""
    if req.fmt == "json":
        if not (output.startswith("{") and output.endswith("}\n")):
            return "output is not a JSON object"
        verdicts, tags = _JSON_VERDICT.findall(output), _JSON_TAG.findall(output)
    else:
        verdicts, tags = _TEXT_VERDICT.findall(output), _TEXT_TAG.findall(output)
    if verdicts != [req.verdict]:
        return f"verdict {verdicts} != expected {req.verdict}"
    if req.tags is not None and tuple(tags) != req.tags:
        return f"slice tags {tags} != expected {list(req.tags)}"
    return None
