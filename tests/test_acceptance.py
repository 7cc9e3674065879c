"""Acceptance suite: one test per acceptance criterion.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line (use `pytest -s`
to see them); the assertions are exact unless noted.  The property-suite
criteria use seeded deterministic randomness with guaranteed counts.
"""
import contextlib
import random
import time
from math import gcd

from conftest import (
    SelfLinkingForm,
    build_seifert,
    canonical_class,
    evaluate,
    first_homology,
    homology_diagonal,
    hoste_linking,
    invariant_factors,
    load_named_fronts,
    rot,
    self_linking_form,
    skew_det,
    slice_bennequin_genus_bound,
    smith_diagonal_well_formed,
    stein_condition,
    tb,
    zero_classes,
)
from dehn4.forms import (
    EvenFormClass,
    enumerate_even_splittings,
    lens_qr_bounding,
    rohlin_constraint,
)
from dehn4.laurent import LaurentPoly
from dehn4.report import render_text
from dehn4.scenarios import Verdict, build_scenario, run_scenario
from dehn4.seifert import (
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    mirror,
    parallel_cable,
    reverse,
    signature,
    torus_knot_seifert,
    whitehead_double_seifert,
)
from test_surgery import torus_presentation


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def run(name, **kwargs):
    return run_scenario(build_scenario(name, **kwargs))


def test_sphere_lens_criterion():
    with criterion("sphere-lens L(5,2) vs L(5,1)"):
        obstructed = run("sphere-lens", p=5, q=2)
        assert obstructed.verdict is Verdict.OBSTRUCTED
        text = render_text(obstructed)
        assert "{5^1:4, 5^1:4}" in text
        step = next(
            t for t in obstructed.trace if t.operation == "lens_qr_bounding"
        )
        assert step.output["euler"] == ["5^1:4", "5^1:4"]
        assert run("sphere-lens", p=5, q=1).verdict is Verdict.NOT_OBSTRUCTED


def test_self_linking_form_criterion():
    with criterion("self-linking form is n*x^2 - x*y for n in [-50, 50]"):
        for n in range(-50, 51):
            b = torus_presentation("torus-solid", n)[1]
            form = self_linking_form(b)
            assert (form.a, form.b, form.c) == (n, -1, 0)
            for x in range(-5, 6):
                for y in range(-5, 6):
                    # alpha = (1, 0), beta = (0, 1), pushoffs (0, 1): x*alpha + y*beta
                    # links (x, y) and has S^3 self-linking x*y
                    assert hoste_linking(b, (x, y), x * y) == form.evaluate(x, y)


def test_zero_classes_criterion():
    with criterion("zero classes are exactly {[beta], [alpha]+n[beta]}"):
        for n in range(-5, 6):
            result = zero_classes(SelfLinkingForm(n, -1, 0))
            assert not result.all_classes
            assert set(result.classes) == {
                canonical_class(0, 1),
                canonical_class(1, n),
            }


def _branch_witnesses(report):
    """(beta-branch verdict, cable-branch verdict) from a torus-solid trace."""
    beta = cable = None
    for step in report.trace:
        if step.operation == "algebraic_slice_verdict":
            if step.inputs["class"] == [0, 1]:
                beta = step.output
            else:
                cable = step.output
    return beta, cable


def test_torus_solid_trefoil_family_criterion():
    with criterion("torus-solid(trefoil, trefoil, n) obstructed for n in [-3, 3]"):
        for n in range(-3, 4):
            report = run("torus-solid", knot_j="trefoil", knot_k="trefoil", n=n)
            assert report.verdict is Verdict.OBSTRUCTED, f"n={n}"
            beta, cable = _branch_witnesses(report)
            assert beta is not None and cable is not None, f"n={n}"
            assert beta["tag"] == "ObstructedBySignature", f"n={n}"
            assert abs(beta["signature"]) == 2, f"n={n}"
            if cable["tag"] == "ObstructedBySignature":
                assert cable["signature"] != 0, f"n={n}"
            else:
                assert cable["tag"] == "ObstructedByFoxMilnor", f"n={n}"
                assert cable["fox_milnor"]["failure"] is not None, f"n={n}"


def test_parallel_cable_alexander_criterion():
    with criterion("Delta(cable(trefoil, n)) = Delta_trefoil(t^n) for n in {1,2,3}"):
        trefoil = torus_knot_seifert(2, 3)
        delta = alexander_polynomial(trefoil)
        for n in (1, 2, 3):
            # a fresh leaf: the kernel, not the satellite formula it is checked against
            cable = SeifertMatrix.from_rows(parallel_cable(trefoil, n).rows)
            assert alexander_polynomial(cable) == delta.substituted(n).normalized()


def test_whitehead_double_pipeline_criterion():
    with criterion("Whitehead-double pipeline reproduces every stated number"):
        assert alexander_polynomial(whitehead_double_seifert("+")) == LaurentPoly.one()
        fronts, framings = load_named_fronts()
        assert tb(fronts["alpha"]) == 0
        assert rot(fronts["alpha"]) == 0
        assert slice_bennequin_genus_bound(0, 0) == 1
        assert (framings["handle-1"], framings["handle-2"]) == (-1, 0)
        ok, checks = stein_condition(
            [
                ("handle-1", framings["handle-1"], fronts["handle-1"]),
                ("handle-2", framings["handle-2"], fronts["handle-2"]),
            ]
        )
        assert ok
        assert [c.tb for c in checks] == [0, 1]


def test_even_splitting_criterion():
    with criterion("even splittings of E8+H and of H under Rokhlin constraints"):
        pairs = enumerate_even_splittings(
            EvenFormClass(1, 1), rohlin_constraint(1), rohlin_constraint(0)
        )
        assert pairs == (
            (EvenFormClass(1, 0), EvenFormClass(0, 1)),
            (EvenFormClass(1, 1), EvenFormClass(0, 0)),
        )
        assert (
            enumerate_even_splittings(EvenFormClass(0, 1), rohlin_constraint(1)) == ()
        )


def test_twist_extension_criterion():
    with criterion("twist-extension for all coprime 2 <= p < q <= 7"):
        pairs = [
            (p, q)
            for p in range(2, 7)
            for q in range(p + 1, 8)
            if gcd(p, q) == 1
        ]
        assert len(pairs) == 11
        for p, q in pairs:
            assert signature(torus_knot_seifert(p, q)) != 0, (p, q)
            report = run("twist-extension", p=p, q=q)
            assert report.verdict is Verdict.MIXED, (p, q)
            sub = next(
                t for t in report.trace if t.operation == "extension_subgroup"
            )
            assert sub.output["index"] == 1, (p, q)
            companion_verdicts = [
                t.output
                for t in report.trace
                if t.operation == "companion.algebraic_slice_verdict"
            ]
            assert companion_verdicts, (p, q)
            assert all(v["tag"] != "Unknown" for v in companion_verdicts), (p, q)


def _random_seifert(rng, genus):
    n = 2 * genus
    lower = [rng.randint(-4, 4) for _ in range(n * (n + 1) // 2)]
    return build_seifert(genus, lower)


def test_property_suites_criterion():
    start = time.monotonic()
    rng = random.Random(20260810)

    with criterion("property suite: Seifert invariant algebra (>= 100 matrices)"):
        mats = [_random_seifert(rng, rng.randint(1, 4)) for _ in range(104)]
        for v in mats:
            for derived in (mirror(v), reverse(v), parallel_cable(v, 2)):
                assert skew_det(derived) == 1
            # fresh leaves here and below: the kernel, not the identities
            assert signature(SeifertMatrix.from_rows(mirror(v).rows)) == -signature(v)
            delta = alexander_polynomial(v)
            assert delta == delta.reciprocal()
            assert evaluate(delta, 1) == 1
        for v, w in zip(mats, mats[1:]):
            s = SeifertMatrix.from_rows(connected_sum(v, w).rows)
            assert signature(s) == signature(v) + signature(w)

    with criterion("property suite: Smith normal form (>= 100 matrices)"):
        for _ in range(104):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = tuple(
                tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
            )
            smith_diagonal_well_formed(m, invariant_factors(m))

    with criterion("property suite: first homology of 2x2 linking matrices (>= 100)"):
        for _ in range(104):
            q = rng.randint(-12, 12)
            m = ((rng.randint(-12, 12), q), (q, rng.randint(-12, 12)))
            diag = homology_diagonal(first_homology(m))
            assert diag == invariant_factors(m), m
            smith_diagonal_well_formed(m, diag)

    with criterion("property suite: lens QR criterion vs exhaustive search, p <= 200"):
        for p in range(2, 201):
            squares = {(k * k) % p for k in range(p)}
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                exhaustive = q in squares or (p - q) % p in squares
                assert lens_qr_bounding(p, q).bounds == exhaustive, (p, q)

    elapsed = time.monotonic() - start
    assert elapsed < 30, f"property suites took {elapsed:.1f}s"
    print(f"ACCEPTANCE property-suite runtime: {elapsed:.1f}s (< 30s)")


def test_reverse_cable_matches_reversed_class():
    # the n = -1 parallel cable is the reverse of the companion, so its
    # obstructions match the companion's (signature unchanged)
    with criterion("n = -1 cable carries the reversed companion class"):
        trefoil = torus_knot_seifert(2, 3)
        assert parallel_cable(trefoil, -1).entries == reverse(trefoil).entries
        cable = SeifertMatrix.from_rows(parallel_cable(trefoil, -1).rows)  # the kernel
        assert signature(cable) == -2
        assert alexander_polynomial(cable) == (
            alexander_polynomial(trefoil)
        )
