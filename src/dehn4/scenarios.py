"""Named obstruction scenarios wired through the library modules.

Each scenario reproduces one case analysis as a deterministic report: a
computed trace (operation, inputs, output per step), hypothesis flags for
imported facts (each with a mandatory provenance string, rendered apart
from computed steps), a verdict, and citations.

Scenarios:
  sphere-lens          no topological ball bounded by the separating
                       sphere between lens-space summands (quadratic
                       residue criterion)
  sphere-smooth-h      no smooth ball: hyperbolic intersection form vs a
                       Rokhlin-invariant-1 summand
  sphere-smooth-e8h    no smooth ball: E8+H splits only two ways, both
                       excluded by cited facts
  torus-solid          no embedded solid torus: every zero self-linking
                       curve class on the torus is algebraically
                       non-slice
  torus-top-vs-smooth  topological solid torus exists (Alexander
                       polynomial one) but no smooth one (Stein +
                       slice-Bennequin)
  twist-extension      every boundary twist along the torus extends, yet
                       no smooth solid torus (torus-knot orbit classes)
"""
from __future__ import annotations

import sys
from enum import Enum
from functools import partial
from math import gcd
from typing import TYPE_CHECKING, Callable, NamedTuple

# Each library module serves only some scenarios, so the run functions and
# the knot branches import it on first use: forms the three sphere
# scenarios and seifert the three torus scenarios.  seifert in turn
# imports laurent where it builds an Alexander polynomial, foxmilnor for
# a Delta to test, and exact only for a checked leaf, from a
# {"seifert": ...} spec.  `import dehn4` and a sphere report load no torus
# code, and a torus report whose signatures decide loads seifert alone.
# The imports are absolute, since a relative `from . import x` also runs
# two importlib functions in Python each time: about 1 us in a report
# against 0.5 us.
# A report builds only what its inputs change: default flags and the Stein
# steps are built once, at import (`_fixed_flags`, `_STEIN_STEPS`), the
# boundary head of the torus scenarios once per framing n
# (`_torus_pipeline`), and twist-extension makes its companion record from
# (p, q) without build_scenario.
if TYPE_CHECKING:
    from .seifert import Knot, SliceVerdict


class Verdict(Enum):
    OBSTRUCTED = "Obstructed"
    NOT_OBSTRUCTED = "NotObstructed"
    EXTENDS = "Extends"
    MIXED = "Mixed"
    INCONCLUSIVE = "Inconclusive"


# the code points of Unicode's Cc, Zl and Zp categories
_LINE_BREAKING = frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]))


def is_single_line(text: str) -> bool:
    """No line break and no control character, so text renders as part of one report line."""
    return _LINE_BREAKING.isdisjoint(text)


def parse_json(text: str):
    """json.loads, with each way it refuses a text as one ValueError whose
    message says why: the decoder's own, "nested too deeply", or the
    integer digit limit of int(str) (sys.set_int_max_str_digits)."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(str(exc)) from None
    except RecursionError:
        raise ValueError("nested too deeply") from None
    except ValueError:  # the only other ValueError of json.loads on a str
        limit = getattr(sys, "get_int_max_str_digits", None)  # Python >= 3.10.7
        bound = f"the limit of {limit()} digits" if limit else "the digit limit"
        raise ValueError(f"an integer exceeds {bound}") from None


# the fields; the public subclass checks them in __new__, which a NamedTuple
# may not define in its own body
class _HypothesisFlag(NamedTuple):
    name: str
    value: bool
    provenance: str


class HypothesisFlag(_HypothesisFlag):
    """An imported (not computed) fact, always carrying its provenance."""

    __slots__ = ()

    def __new__(cls, name: str, value: bool, provenance: str):
        if not provenance:
            raise ValueError(f"hypothesis flag {name!r} is missing its provenance")
        if not is_single_line(provenance):
            raise ValueError(
                f"hypothesis flag {name!r}: provenance must not contain "
                f"line breaks or control characters, got {provenance!r}"
            )
        return super().__new__(cls, name, value, provenance)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class TraceStep(NamedTuple):
    operation: str
    inputs: dict
    output: object


class _FixedStep(TraceStep):
    """A step that no report parameter moves, built once and shared by every
    report that holds it; `report` keeps its rendered text body and JSON
    item in its __dict__ on first render.  It shows, copies and pickles as
    a plain TraceStep, so no pickle names this class."""

    def __repr__(self) -> str:
        return repr(TraceStep(*self))

    def __reduce__(self):
        return TraceStep, tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"a TraceStep takes no attribute {name!r}")


class Report(NamedTuple):
    """A scenario's computed trace, verdict, detail and citations.

    Reports share trace payloads: a fixed step, such as the boundary head
    of the torus scenarios at one framing n, is one object in every report
    that holds it, with its inputs and output.  So the payloads are
    read-only; `copy.deepcopy` gives a report whose payloads are its own.
    """

    scenario: "Scenario"
    trace: tuple[TraceStep, ...]
    verdict: Verdict
    detail: dict | None = None
    citations: tuple[str, ...] = ()


# what a scenario's run function returns; run_scenario makes the Report
_Run = tuple[list[TraceStep], Verdict, "dict | None"]

# the parameters a scenario may take, in the order reports list them
PARAMS = ("p", "q", "n", "knot_j", "knot_k")
_INT_PARAMS = ("p", "q", "n")  # the others are knots


class Scenario(NamedTuple):
    name: str
    p: int | None = None
    q: int | None = None
    n: int | None = None
    knot_j: Knot | None = None
    knot_k: Knot | None = None
    flags: tuple[HypothesisFlag, ...] = ()

    def parameters(self) -> dict:
        out: dict = {}
        for param in PARAMS:
            value = getattr(self, param)
            if value is not None:
                out[param] = value if param in _INT_PARAMS else value.name
        return out


class ScenarioError(ValueError):
    pass


_ROKHLIN_P = "Rokhlin invariant of the Poincare homology sphere is 1 (classical)"
_ROKHLIN_PP = (
    "Rokhlin invariants add under connected sum, so the double of the "
    "Poincare sphere has invariant 0 (classical)"
)
_DONALDSON = (
    "a smooth filling of the Poincare sphere with intersection form E8 would "
    "close up against the E8-plumbing to a definite E8+E8 manifold, "
    "contradicting Donaldson's diagonalization theorem"
)
_FS_ACYCLIC = (
    "Fintushel-Stern: the double of the Poincare sphere bounds no acyclic "
    "smooth 4-manifold"
)
_GABAI_SOLID_TORUS = (
    "surgery on a knot in a solid torus meeting a meridional disk once is "
    "never a solid torus and leaves the boundary incompressible "
    "(Gabai; Bing-Martin)"
)
_GABAI_ZERO_SURGERY = (
    "Gabai: zero-framed surgery on a nontrivial knot is irreducible"
)
_FREEDMAN_ALEX_ONE = (
    "Freedman: a knot with Alexander polynomial one is topologically slice"
)
_GOMPF_MERIDIAN = (
    "Gompf: the twist along the meridional class of the torus extends over "
    "the contractible 4-manifold (infinite-order cork construction)"
)
_ORBIT_ISOTOPY = (
    "a twist along the orbit class of the circle action on a torus-knot "
    "exterior is isotopic to the identity rel boundary"
)
_SIGNATURE_OBSTRUCTS = (
    "a nonzero knot signature obstructs sliceness in a homology ball "
    "(computed from any Seifert matrix)"
)
_FOX_MILNOR_CITE = (
    "Fox-Milnor: a slice knot's Alexander polynomial factors as f(t)f(1/t)"
)
_HOSTE_CITE = (
    "Hoste's surgery formula for linking numbers of homologically trivial "
    "curves: lk_Y = lk_S3 - a.B^(-1).b^T"
)
_LENS_QR_CITE = (
    "a lens space L(p,q) bounds a simply connected topological 4-manifold "
    "with b2 = 1 iff +q or -q is a quadratic residue mod p (linking form "
    "1/p vs +-q/p)"
)
_EVEN_FORM_CLASSIFICATION = (
    "classification of indefinite even unimodular forms: every class is "
    "a*E8 + b*H (Milnor-Husemoller)"
)
_ROKHLIN_CONGRUENCE = (
    "an even (spin) filling of a homology sphere with Rokhlin invariant rho "
    "has signature congruent to 8*rho mod 16"
)
_STEIN_CONDITION_CITE = (
    "a 2-handlebody is Stein iff each 2-handle is attached along a "
    "Legendrian curve with framing tb - 1 (Eliashberg; Gompf)"
)
_SLICE_BENNEQUIN_CITE = (
    "slice-Bennequin inequality in a Stein domain: tb + |rot| <= 2g - 1 "
    "(Akbulut-Matveyev; Lisca-Matic)"
)
_EMBEDDING_CRITERION = (
    "embedding criterion: a separating torus bounds an embedded solid torus "
    "once some homologically essential curve on it is slice with the torus "
    "framing and the corresponding surgered manifold is irreducible "
    "(ambient 2-handle plus 3-handle attachment)"
)
_FREEDMAN_CONTRACTIBLE = (
    "the boundary of the surgery presentation is a homology sphere, so the "
    "torus extends at least to a map of a solid torus"
)


def build_scenario(
    name: str,
    p: int | None = None,
    q: int | None = None,
    n: int | None = None,
    knot_j=None,
    knot_k=None,
    flags: tuple[HypothesisFlag, ...] | None = None,
) -> Scenario:
    """Fill in per-scenario defaults; reject what the scenario does not take.

    A parameter left as None takes the scenario's default.  Each given
    flag replaces the default flag of its name, and must be one of the
    scenario's flags; a flag not given keeps its default, so the scenario
    lists every flag it reads.  It lists `torus-incompressible` too,
    which records Gabai's fact for the torus scenarios, though no verdict
    reads it.
    """
    kind = _kind(name)
    given = dict(zip(PARAMS, (p, q, n, knot_j, knot_k)))
    args = dict(kind.params)
    for param, value in given.items():
        if value is None:
            continue
        if param not in kind.params:
            raise ScenarioError(
                f"scenario {name!r} takes no parameter {param!r}; "
                f"it takes {', '.join(kind.params) or 'none'}"
            )
        if param in _INT_PARAMS:
            _check_int(param, value)
        args[param] = value
    for param in ("knot_j", "knot_k"):
        if param in args:
            import dehn4.seifert as seifert

            try:
                args[param] = seifert.knot_from_spec(args[param])
            except ValueError as exc:
                raise ScenarioError(f"{param}: {exc}") from None
    if kind.check is not None:
        kind.check(args)
    defaults = kind.flags(args)
    if not flags:
        return Scenario(name, flags=defaults, **args)
    known = [f.name for f in defaults]
    given_flags: dict[str, HypothesisFlag] = {}
    for flag in flags:
        if flag.name not in known:
            raise ScenarioError(
                f"scenario {name!r} reads no flag {flag.name!r}; "
                f"its flags are {', '.join(known) or 'none'}"
            )
        if flag.name in given_flags:
            raise ScenarioError(f"flag {flag.name!r} is given twice")
        given_flags[flag.name] = flag
    merged = tuple(given_flags.get(f.name, f) for f in defaults)
    return Scenario(name, flags=merged, **args)


def run_scenario(scenario: Scenario) -> Report:
    """Deterministic report for a scenario made by build_scenario.

    A scenario made otherwise that lacks a known name, a parameter or a
    flag the run reads, or holds a parameter of the wrong type, fails with
    a ScenarioError that names it.
    """
    kind = _kind(scenario.name)
    for param in kind.params:
        value = getattr(scenario, param)
        if value is None:
            raise ScenarioError(
                f"scenario {scenario.name!r} is missing parameter {param!r}"
            )
        if param in _INT_PARAMS:
            _check_int(param, value)
            continue
        import dehn4.seifert as seifert

        if not isinstance(value, seifert.Knot):
            raise ScenarioError(
                f"parameter {param!r} must be a Knot, got {type(value).__name__}"
            )
    trace, verdict, detail = kind.run(scenario)
    return Report(scenario, tuple(trace), verdict, detail, kind.citations)


def _check_int(param: str, value) -> None:
    if type(value) is not int:
        raise ScenarioError(
            f"parameter {param!r} must be an integer, got {type(value).__name__}"
        )


def _kind(name: str) -> _Kind:
    kind = _SCENARIOS.get(name)
    if kind is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    return kind


def _verdict_dict(v: SliceVerdict) -> dict:
    out: dict = {"tag": v.tag.value}
    if v.signature is not None:
        out["signature"] = v.signature
    if v.fox_milnor is not None:
        fm = v.fox_milnor
        out["fox_milnor"] = {
            "passed": fm.passed,
            "factor": str(fm.factor) if fm.factor is not None else None,
            "failure": (
                {"kind": fm.failure.kind, "detail": fm.failure.detail}
                if fm.failure is not None
                else None
            ),
        }
    if v.note:
        out["note"] = v.note
    return out


def _run_sphere_lens(s: Scenario) -> _Run:
    import dehn4.forms as forms

    p, q = s.p, s.q
    trace = [
        TraceStep(
            "homology-splitting-argument",
            {"p": p, "q": q},
            "a topological ball bounded by the separating sphere would split "
            "the manifold as a boundary-connected sum of two simply connected "
            "fillings; relative second homology is torsion-free, so each side "
            "is a b2 = 1 filling of a lens space",
        )
    ]
    w = forms.lens_qr_bounding(p, q)
    powers = [f"{ell}^{k}" for ell, k in w.factors]
    signs = (w.q_checks, w.minus_q_checks)
    trace.append(
        TraceStep(
            "lens_qr_bounding",
            {"p": p, "q": q},
            {
                "bounds_b2_one_filling": w.bounds,
                "euler": [
                    " ".join(f"{pk}:{v}" for pk, v in zip(powers, checks))
                    for checks in signs
                ],
                "q_is_residue": w.q_is_residue,
                "minus_q_is_residue": w.minus_q_is_residue,
            },
        )
    )
    if w.bounds:
        return trace, Verdict.NOT_OBSTRUCTED, None
    fails = [next(pk for pk, v in zip(powers, checks) if v != 1) for checks in signs]
    return trace, Verdict.OBSTRUCTED, {
        "conclusion": "no topologically embedded ball",
        "witness": f"neither {q} mod {fails[0]} nor {p - q} mod {fails[1]} is a square",
    }


def _run_sphere_smooth(s: Scenario, total: tuple[int, int], exclusions: bool) -> _Run:
    """total is the (e8_count, h_count) pair of the even form class to split."""
    import dehn4.forms as forms

    total = forms.EvenFormClass(*total)
    rho1 = 1 if _flag_value(s, "rho-y1") else 0
    rho2 = 1 if _flag_value(s, "rho-y2") else 0
    c1 = forms.rohlin_constraint(rho1)
    c2 = forms.rohlin_constraint(rho2)
    trace = [
        TraceStep("rohlin_constraint", {"side": 1, "rho": rho1}, str(c1)),
        TraceStep("rohlin_constraint", {"side": 2, "rho": rho2}, str(c2)),
    ]
    pairs = forms.enumerate_even_splittings(total, c1, c2)
    trace.append(
        TraceStep(
            "enumerate_even_splittings",
            {"total": str(total), "side1": str(c1), "side2": str(c2)},
            {"count": len(pairs), "splittings": [[str(a), str(b)] for a, b in pairs]},
        )
    )
    if not exclusions:
        if pairs:
            return trace, Verdict.NOT_OBSTRUCTED, None
        return trace, Verdict.OBSTRUCTED, {
            "conclusion": "no smoothly embedded ball",
            "witness": "empty splitting enumeration",
        }

    rows = []
    survivors = 0
    for a, b in pairs:
        excluded_by = None
        if a == forms.EvenFormClass(1, 0) and _flag_value(s, "no-e8-filling-y1"):
            excluded_by = "no-e8-filling-y1"
        elif b == forms.EvenFormClass(0, 0) and _flag_value(s, "no-acyclic-filling-y2"):
            excluded_by = "no-acyclic-filling-y2"
        if excluded_by is None:
            survivors += 1
        rows.append({"splitting": [str(a), str(b)], "excluded_by": excluded_by})
    trace.append(TraceStep("exclude_splittings", {"count": len(pairs)}, rows))
    if survivors:
        return trace, Verdict.NOT_OBSTRUCTED, None
    return trace, Verdict.OBSTRUCTED, {
        "conclusion": "no smoothly embedded ball",
        "witness": "every splitting in the enumeration is excluded",
    }


def _flag_value(s: Scenario, name: str) -> bool:
    """The value of a flag; build_scenario lists every flag a scenario reads."""
    for flag in s.flags:
        if flag.name == name:
            return flag.value
    raise ScenarioError(f"scenario {s.name!r} is missing flag {name!r}")


def _class_knots(s: Scenario, classes: tuple[tuple[int, int], ...]) -> list[Knot]:
    """Knots carrying the algebraic concordance classes of zero classes.

    The zero classes of n*x^2 - x*y are beta = (0, 1) and alpha = (1, n),
    up to sign (`_torus_pipeline`), so any class but beta is alpha; a sign
    flip reverses the curve, which does not move the algebraic
    obstructions.
    """
    import dehn4.seifert as seifert

    j, k, n = s.knot_j, s.knot_k, s.n
    knots = []
    for cls in classes:
        if cls == (0, 1):
            knot = seifert.Knot(f"-({j.name})", seifert.concordance_inverse(j.matrix))
        elif n == 0:
            knot = seifert.Knot(k.name, k.matrix)
        else:
            cable = seifert.parallel_cable(j.matrix, n)
            knot = seifert.Knot(
                f"{k.name} # cable({j.name}; {n})",
                seifert.connected_sum(k.matrix, cable),
            )
        knots.append(knot)
    return knots


# the boundary head of a torus report: its five steps, the two zero classes
# sorted, and alpha
_Head = tuple[tuple[TraceStep, ...], tuple[tuple[int, int], ...], tuple[int, int]]

# The head depends on n and the step-name prefix alone, so each (n, prefix)
# is built once and its steps are shared by every report at that n.  n is
# any int, so the memo is cleared once it holds _HEADS_MAX heads.  Two
# threads may both build one head; the builds are equal, so either serves.
_HEADS_MAX = 8
_HEADS: dict[tuple[int, str], _Head] = {}


def _torus_pipeline(n: int, prefix: str = "") -> _Head:
    """Shared head of the torus scenarios: presentation through zero classes.

    Returns the five steps, each named with prefix, the two zero classes
    sorted, and alpha.  The steps are fixed steps, built once per
    (n, prefix) by `_torus_head` and kept, with their rendered text and
    JSON, in a memo of at most _HEADS_MAX entries.  Every step is a closed
    form in n.  Every torus lies on the boundary of one
    presentation: a dotted circle L1 and an n-framed circle L2 linking it
    once, with linking matrix B = [[0, 1], [1, n]].  The boundary torus has
    the basis alpha (linking L1 once) and beta (linking L2 once), with
    pushoff data lk(alpha, beta+) = 0 and lk(beta, alpha+) = 1, so
    x*alpha + y*beta has linking vector (x, y) and S^3 self-linking x*y.

    det B = -1 for every n, so H_1 = 0: the surgered manifold is a homology
    sphere.  Hoste's surgery formula (Hoste 1986)

        lk_Y(sigma, sigma+) = lk_{S^3}(sigma, sigma+) - a . B^{-1} . a^T

    (a the curve's linking vector) with B^{-1} = [[-n, 1], [1, 0]] gives
    the self-linking x*y - (2*x*y - n*x^2) = n*x^2 - x*y.  This form is
    x*(n*x - y), so its primitive zero classes are beta = (0, 1) and
    alpha = (1, n), each signed so that y > 0, or y = 0 and x > 0: alpha
    is (-1, -n) for n < 0.  The form is written with a coefficient of +-1
    as a bare sign and a zero term left out, so n = 0 gives "-x*y".  The
    tests derive every step again from B, by Hoste's formula through
    bordered determinants and by a grid search for the zeros.
    """
    key = (n, prefix)
    head = _HEADS.get(key)
    if head is None:
        if len(_HEADS) >= _HEADS_MAX:
            _HEADS.clear()
        head = _HEADS[key] = _torus_head(n, prefix)
    return head


def _torus_head(n: int, prefix: str) -> _Head:
    """Build the head that `_torus_pipeline` describes."""
    text = (
        "component L1 dotted\n"
        f"component L2 framed {n}\n"
        "lk L1 L2 1\n"
        "curve alpha lk ( 1 0 ) self 0\n"
        "curve beta lk ( 0 1 ) self 0\n"
        "pushoff alpha beta 0 1\n"
    )
    matrix = [[0, 1], [1, n]]
    if n == 0:
        form = "-x*y"
    else:
        square = "x^2" if abs(n) == 1 else f"{abs(n)}*x^2"
        form = f"{'-' if n < 0 else ''}{square} - x*y"
    alpha = (1, n) if n >= 0 else (-1, -n)
    classes = tuple(sorted(((0, 1), alpha)))
    steps = (
        _FixedStep(prefix + "parse_presentation", {"n": n}, {"text": text}),
        _FixedStep(prefix + "boundary_linking_matrix", {}, matrix),
        _FixedStep(
            prefix + "first_homology",
            {"matrix": matrix},
            {"group": "0", "is_homology_sphere": True},
        ),
        _FixedStep(
            prefix + "self_linking_form",
            {"basis": ["alpha", "beta"]},
            {"coefficients": [n, -1, 0], "form": form},
        ),
        _FixedStep(
            prefix + "zero_classes",
            {"form": form},
            {"classes": [list(c) for c in classes], "all_classes": False},
        ),
    )
    return steps, classes, alpha


def _run_torus_solid(s: Scenario, prefix: str = "") -> _Run:
    """The torus-solid run, each step named with prefix: twist-extension
    runs its companion as "companion."."""
    import dehn4.seifert as seifert

    head, classes, _ = _torus_pipeline(s.n, prefix)
    trace = [*head]
    notes = []
    # -J and K # cable(J; n) often share Delta (K with Delta = 1 and n = 1),
    # so the two classes share one Fox-Milnor test: a plain dict from Delta
    # to its result, which lives for this report only
    memo: dict = {}
    for cls, knot in zip(classes, _class_knots(s, classes)):
        trace.append(
            TraceStep(
                prefix + "curve_class_knot",
                {"class": list(cls)},
                {"knot": knot.name, "genus": knot.matrix.genus},
            )
        )
        verdict = seifert.algebraic_slice_verdict(knot.matrix, memo)
        trace.append(
            TraceStep(
                prefix + "algebraic_slice_verdict",
                {"class": list(cls), "knot": knot.name},
                _verdict_dict(verdict),
            )
        )
        if verdict.tag is seifert.SliceTag.UNKNOWN:
            notes.append(f"class {list(cls)} carries no algebraic obstruction")
    if notes:
        return trace, Verdict.INCONCLUSIVE, {"notes": notes}
    return trace, Verdict.OBSTRUCTED, {
        "conclusion": "no embedded solid torus",
        "witness": "every zero self-linking class is algebraically non-slice",
    }


# The Stein handle picture is fixed, and no parameter or flag moves it, so
# its three steps are built once, at import.  Its Legendrian fronts, as
# (writhe, down cusps, up cusps), are handle-1 (1, 1, 1) at framing -1 and
# handle-2 (2, 1, 1) at framing 0, so tb = writhe - cusps/2 is 0 and 1 and
# framing = tb - 1 holds for both; alpha is (1, 1, 1), so tb = 0 and
# rot = (down - up)/2 = 0, and tb + |rot| <= 2g - 1 needs g >= 1.  The
# tests derive these steps from the front counts.
_STEIN_STEPS = (
    _FixedStep(
        "stein_condition",
        {"handles": [["handle-1", -1], ["handle-2", 0]]},
        {
            "stein": True,
            "checks": [
                {"name": "handle-1", "framing": -1, "tb": 0, "ok": True},
                {"name": "handle-2", "framing": 0, "tb": 1, "ok": True},
            ],
        },
    ),
    _FixedStep("tb_rot", {"front": "alpha"}, {"tb": 0, "rot": 0}),
    _FixedStep("slice_bennequin_genus_bound", {"tb": 0, "rot": 0}, {"genus_lower_bound": 1}),
)


def _run_torus_top_vs_smooth(s: Scenario) -> _Run:
    import dehn4.seifert as seifert

    head, classes, alpha_class = _torus_pipeline(s.n)
    trace = [*head]
    notes = []

    # --- topological side: the (1, n) class bounds a topological disk ---
    alpha_knot, beta_knot = _class_knots(s, (alpha_class, (0, 1)))
    delta = seifert.alexander_polynomial(alpha_knot.matrix)
    trace.append(
        TraceStep(
            "alexander_polynomial",
            {"class": list(alpha_class), "knot": alpha_knot.name},
            str(delta),
        )
    )
    topological_ok = delta.is_one()
    if not topological_ok:
        notes.append("Alexander polynomial of the surgery curve is not 1")
    if not _flag_value(s, "alexander-one-slice") or not _flag_value(
        s, "surgered-manifold-irreducible"
    ):
        topological_ok = False
        notes.append("a hypothesis flag for the embedding criterion is unset")
    trace.append(
        TraceStep(
            "solid_torus_embedding_criterion",
            {
                "class_nonzero": alpha_class in classes,
                "topologically_slice": topological_ok,
                "irreducible": _flag_value(s, "surgered-manifold-irreducible"),
            },
            {"topological_solid_torus": topological_ok},
        )
    )

    # --- smooth side: Stein structure plus slice-Bennequin kills alpha ---
    trace.extend(_STEIN_STEPS)

    beta_verdict = seifert.algebraic_slice_verdict(beta_knot.matrix)
    trace.append(
        TraceStep(
            "algebraic_slice_verdict",
            {"class": [0, 1], "knot": beta_knot.name},
            _verdict_dict(beta_verdict),
        )
    )
    beta_dead = beta_verdict.tag is not seifert.SliceTag.UNKNOWN
    if not beta_dead:
        notes.append("the longitudinal class carries no algebraic obstruction")

    # alpha and beta are the only zero classes of n*x^2 - x*y
    if topological_ok and beta_dead:
        return trace, Verdict.MIXED, {"topological": "yes", "smooth": "no"}
    if topological_ok:
        return trace, Verdict.EXTENDS, {
            "topological": "yes",
            "smooth": "undetermined",
            "notes": notes,
        }
    return trace, Verdict.INCONCLUSIVE, {"notes": notes}


def _check_torus_pair(p: int, q: int) -> None:
    if gcd(abs(p), abs(q)) != 1 or abs(p) < 2 or abs(q) < 2:
        raise ScenarioError(
            "parameters 'p' and 'q' must be those of a nontrivial torus knot "
            f"(coprime, each at least 2 in absolute value), got ({p}, {q})"
        )


def _run_twist_extension(s: Scenario) -> _Run:
    import dehn4.seifert as seifert

    p, q = s.p, s.q
    _check_torus_pair(p, q)  # build_scenario checks them; a record made otherwise may not
    # The orbit class of the circle action on the T(p, q) exterior is
    # lambda + pq*mu, (pq, 1) in the (mu, lambda) basis.  The torus basis
    # has alpha -> mu and beta -> mu + lambda, so the class is (pq - 1, 1)
    # there.  With the meridian (1, 0) it has determinant 1 for every p and
    # q, so the two generate all of H_1(T): the index is 1.
    pq = p * q
    orbit = f"{pq}*mu + 1*lambda"
    trace = [
        TraceStep("seifert_orbit_class", {"p": p, "q": q}, orbit),
        TraceStep("to_alpha_beta", {"class": orbit}, f"{pq - 1}*alpha + 1*beta"),
        TraceStep(
            "extension_subgroup",
            {"generators": [[1, 0], [pq - 1, 1]]},
            {"rows": [[1, 0], [0, 1]], "rank": 2, "index": 1},
        ),
    ]
    unset = [
        name
        for name in ("meridian-twist-extends", "orbit-twist-extends")
        if not _flag_value(s, name)
    ]

    # The companion is the torus-solid record of J = T(p, q) and K the
    # unknot at n = -1, made here with the names a {"torus": [p, q]} spec
    # and "unknot" get, so its steps are those of build_scenario's record,
    # each named "companion." where it is made.  It skips the spec parser
    # and the default flags, which _run_torus_solid does not read.
    # torus_knot_seifert is looked up on the module at each call, so a
    # patched builder reaches the companion.
    companion = Scenario(
        "torus-solid",
        n=-1,
        knot_j=seifert.Knot(f"torus({p},{q})", seifert.torus_knot_seifert(p, q)),
        knot_k=seifert.Knot("unknot", seifert.unknot()),
    )
    companion_trace, companion_verdict, _ = _run_torus_solid(companion, "companion.")
    trace.extend(companion_trace)
    if unset:
        return trace, Verdict.INCONCLUSIVE, {
            "notes": [f"hypothesis flag {name} is unset" for name in unset]
        }
    if companion_verdict is Verdict.OBSTRUCTED:
        return trace, Verdict.MIXED, {"twists_extend": "yes", "smooth_solid_torus": "no"}
    return trace, Verdict.EXTENDS, {
        "twists_extend": "yes",
        "smooth_solid_torus": "undetermined",
    }


# A scenario's default flags are built once, at import, so no build checks
# a provenance again.
def _fixed_flags(*flags: tuple[str, bool, str]) -> Callable[[dict], tuple[HypothesisFlag, ...]]:
    """The default flags of a scenario whose flags no parameter moves."""
    built = tuple(HypothesisFlag(*flag) for flag in flags)
    return lambda args: built


_TORUS_INCOMPRESSIBLE = {
    value: (HypothesisFlag("torus-incompressible", value, _GABAI_SOLID_TORUS),)
    for value in (False, True)
}


def _torus_solid_flags(args: dict) -> tuple[HypothesisFlag, ...]:
    compressible = args["knot_k"].matrix.size == 0 and args["n"] == 0
    return _TORUS_INCOMPRESSIBLE[not compressible]


class _Kind(NamedTuple):
    run: Callable[[Scenario], _Run]
    params: dict  # every accepted parameter with its default; knots as specs
    flags: Callable[[dict], tuple[HypothesisFlag, ...]]  # of the filled-in parameters
    citations: tuple[str, ...]
    check: Callable[[dict], None] | None = None  # refuses filled-in parameters


_SCENARIOS = {
    "sphere-lens": _Kind(_run_sphere_lens, {"p": 5, "q": 2}, _fixed_flags(), (_LENS_QR_CITE,)),
    "sphere-smooth-h": _Kind(
        partial(_run_sphere_smooth, total=(0, 1), exclusions=False),
        {},
        _fixed_flags(("rho-y1", True, _ROKHLIN_P), ("rho-y2", True, _ROKHLIN_P)),
        (_ROKHLIN_CONGRUENCE, _EVEN_FORM_CLASSIFICATION),
    ),
    "sphere-smooth-e8h": _Kind(
        partial(_run_sphere_smooth, total=(1, 1), exclusions=True),
        {},
        _fixed_flags(
            ("rho-y1", True, _ROKHLIN_P),
            ("rho-y2", False, _ROKHLIN_PP),
            ("no-e8-filling-y1", True, _DONALDSON),
            ("no-acyclic-filling-y2", True, _FS_ACYCLIC),
        ),
        (_ROKHLIN_CONGRUENCE, _EVEN_FORM_CLASSIFICATION, _DONALDSON, _FS_ACYCLIC),
    ),
    "torus-solid": _Kind(
        _run_torus_solid,
        {"n": 1, "knot_j": "left-trefoil", "knot_k": "left-trefoil"},
        _torus_solid_flags,
        (_FREEDMAN_CONTRACTIBLE, _HOSTE_CITE, _SIGNATURE_OBSTRUCTS, _FOX_MILNOR_CITE),
    ),
    "torus-top-vs-smooth": _Kind(
        _run_torus_top_vs_smooth,
        {"n": 0, "knot_j": "left-trefoil", "knot_k": "whitehead-double-positive"},
        _fixed_flags(
            ("torus-incompressible", True, _GABAI_SOLID_TORUS),
            ("surgered-manifold-irreducible", True, _GABAI_ZERO_SURGERY),
            ("alexander-one-slice", True, _FREEDMAN_ALEX_ONE),
        ),
        (
            _HOSTE_CITE,
            _FREEDMAN_ALEX_ONE,
            _GABAI_ZERO_SURGERY,
            _EMBEDDING_CRITERION,
            _STEIN_CONDITION_CITE,
            _SLICE_BENNEQUIN_CITE,
            _SIGNATURE_OBSTRUCTS,
        ),
    ),
    "twist-extension": _Kind(
        _run_twist_extension,
        {"p": 2, "q": 3},
        _fixed_flags(
            ("meridian-twist-extends", True, _GOMPF_MERIDIAN),
            ("orbit-twist-extends", True, _ORBIT_ISOTOPY),
        ),
        (_GOMPF_MERIDIAN, _ORBIT_ISOTOPY, _HOSTE_CITE, _SIGNATURE_OBSTRUCTS),
        lambda args: _check_torus_pair(args["p"], args["q"]),
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)
