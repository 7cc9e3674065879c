import json
import random
from functools import reduce
from itertools import permutations
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    block_diagonal,
    dense_concordance_inverse,
    dense_congruence,
    dense_connected_sum,
    dense_det,
    dense_mirror,
    dense_parallel_cable,
    dense_reverse,
    dense_signature_symmetric,
    dense_torus_bricks,
    euclid_det,
    evaluate,
    newton_alexander,
    seifert_matrices,
    skew_det,
    transpose,
)
from dehn4.exact import det, signature_symmetric
from dehn4 import cli, exact, factor, seifert
from dehn4.laurent import LaurentPoly
from dehn4.scenarios import build_scenario, run_scenario
from dehn4.seifert import (
    FactorizationBoundError,
    SeifertMatrix,
    SliceTag,
    alexander_polynomial,
    alexander_span,
    algebraic_slice_verdict,
    concordance_inverse,
    connected_sum,
    fox_milnor,
    knot_from_spec,
    mirror,
    parallel_cable,
    reverse,
    signature,
    torus_knot_seifert,
    twist_knot_seifert,
    unknot,
    whitehead_double_seifert,
)

TREFOIL = torus_knot_seifert(2, 3)
FIG8 = SeifertMatrix(((1, 1), (0, -1)))


def torus_alexander_oracle(p, q):
    """(t^{pq}-1)(t-1)/((t^p-1)(t^q-1)), computed independently via sympy."""
    t = sympy.Symbol("t")
    num = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
    den = sympy.Poly((t ** p - 1) * (t ** q - 1), t)
    quotient = num.exquo(den)
    return LaurentPoly(
        {m[0]: int(c) for m, c in quotient.terms()}
    ).normalized()


def test_trefoil_matrix_and_signature():
    assert TREFOIL.entries == ((-1, 1), (0, -1))
    assert signature(TREFOIL) == -2


def test_trefoil_mirror_signature_flips():
    assert signature(mirror(TREFOIL)) == 2


def test_torus_knot_det_invariant():
    v = torus_knot_seifert(3, 4)
    assert v.size == 6
    assert skew_det(v) == 1


@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1]
    + [(10, 11)],  # 90 x 90
)
def test_torus_knot_alexander_matches_closed_form(p, q):
    # the closed form on the torus leaf, against the kernel on its rows read
    # back as a checked leaf, and against the quotient taken by sympy
    for spec in ((p, q), (-p, q)):
        v = torus_knot_seifert(*spec)
        assert alexander_polynomial(v) == alexander_polynomial(SeifertMatrix.from_rows(v.rows))
        assert alexander_polynomial(v) == torus_alexander_oracle(p, q)


def test_torus_knot_alexander_matches_sympy_quotient_beyond_the_kernel():
    # the closed form alone, where the kernel would take seconds
    for p in range(2, 16):
        for q in range(p + 1, 17):
            if gcd(p, q) == 1:
                delta = alexander_polynomial(torus_knot_seifert(q, p))
                assert delta == torus_alexander_oracle(p, q)


def test_torus_knot_known_signatures():
    assert signature(torus_knot_seifert(2, 5)) == -4
    assert signature(torus_knot_seifert(2, 7)) == -6
    assert signature(torus_knot_seifert(3, 4)) == -6
    assert signature(torus_knot_seifert(3, 5)) == -8


def glm_torus_signature(p, q):
    """Gordon-Litherland-Murasugi count for the positive torus knot T(p, q).

    Over the pairs 1 <= i < p, 1 <= j < q, a pair with 1/2 < i/p + j/q < 3/2
    contributes -1 and any other pair +1; for coprime p, q no pair lies on
    a boundary.
    """
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            twice = 2 * (i * q + j * p)  # 2 * (i/p + j/q) * p*q
            assert twice not in (p * q, 3 * p * q)
            total += -1 if p * q < twice < 3 * p * q else 1
    return total


def test_glm_count_reproduces_pinned_signatures():
    pinned = {(2, 3): -2, (2, 5): -4, (3, 4): -6, (2, 7): -6, (3, 5): -8}
    assert {pq: glm_torus_signature(*pq) for pq in pinned} == pinned


@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1]
    + [(20, 21), (13, 29)],  # 380 x 380 and 336 x 336
)
def test_torus_knot_signature_matches_glm_count(p, q):
    # the row count on the torus leaf, against the kernel on its rows read
    # back as a checked leaf, and against the O(pq) lattice count
    for spec, sign in (((p, q), 1), ((-p, q), -1)):
        v = torus_knot_seifert(*spec)
        kernel = signature(SeifertMatrix.from_rows(v.rows))
        assert signature(v) == kernel == sign * glm_torus_signature(p, q)


def test_torus_signature_row_count_matches_the_lattice_count():
    for p in range(2, 31):
        for q in range(p + 1, 32):
            if gcd(p, q) == 1:
                glm = glm_torus_signature(p, q)
                assert signature(torus_knot_seifert(q, p)) == glm
                assert signature(torus_knot_seifert(p, -q)) == -glm


BRICK_PAIRS = [(p, q) for q in range(3, 31) for p in range(2, q) if gcd(p, q) == 1]


def test_torus_bricks_are_unimodular_for_every_coprime_pair_up_to_30():
    # the fence basis is code, so the tests, not the reports, take its
    # det(V - V^T), by the dense Euclid oracle, independent of exact.det
    assert len(BRICK_PAIRS) == 248
    for p, q in BRICK_PAIRS:
        rows = seifert._positive_torus_bricks(p, q)
        n = len(rows)
        assert n == (p - 1) * (q - 1)
        skew = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                skew[i][j] += x
                skew[j][i] -= x
        assert euclid_det(skew) == 1, (p, q)


@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(2, 9) for q in range(p + 1, 10) if gcd(p, q) == 1]
)
def test_torus_bricks_read_back_give_the_closed_form_invariants(p, q):
    # the bricks enter through from_rows as a checked leaf, so the kernels
    # take its invariants; they are the closed forms' and the oracles'
    v = SeifertMatrix.from_rows(seifert._positive_torus_bricks(p, q))
    assert signature(v) == seifert._torus_signature(p, q) == glm_torus_signature(p, q)
    delta = alexander_polynomial(v)
    assert delta == seifert._torus_alexander(p, q) == torus_alexander_oracle(p, q)


def genus_one_table_leaves():
    """Each twist knot with |m| <= 50 and both Whitehead doubles, with the
    dense matrix that gives the same knot."""
    for m in range(-50, 51):
        yield twist_knot_seifert(m), ((-1, 1), (0, m))
    for clasp, c in (("+", -1), ("-", 1)):
        yield whitehead_double_seifert(clasp), ((c, 1), (0, 0))


def test_genus_one_table_leaves_have_the_dense_rows_and_are_unimodular():
    # the rows are code, so the tests, not the reports, take det(V - V^T),
    # by the dense oracle and by the kernel
    leaves = list(genus_one_table_leaves())
    assert len(leaves) == 103
    for leaf, dense in leaves:
        assert leaf.rows == SeifertMatrix(dense).rows and leaf.entries == dense
        assert skew_det(leaf) == 1
        assert det(seifert._plus_transpose(leaf.rows, -1)) == 1


def test_genus_one_table_leaves_read_the_kernels_invariants():
    # the closed forms on the leaf, against the kernels on a checked copy
    # of its rows and against the dense oracles
    for leaf, dense in genus_one_table_leaves():
        checked = SeifertMatrix(dense)
        sym = [[dense[i][j] + dense[j][i] for j in range(2)] for i in range(2)]
        assert signature(leaf) == signature(checked) == dense_signature_symmetric(sym)
        delta = alexander_polynomial(leaf)
        assert delta == alexander_polynomial(checked) == newton_alexander(checked)


@pytest.mark.parametrize("m", [True, 1.0, "2"], ids=["bool", "float", "str"])
def test_twist_knot_refuses_a_parameter_that_is_not_an_int(m):
    with pytest.raises(ValueError, match=r"parameter m must be an integer, got"):
        twist_knot_seifert(m)


@pytest.mark.parametrize("n", [1, 2])
def test_a_json_report_on_torus_specs_takes_no_determinant(monkeypatch, capsys, n):
    # J, K and every class knot are torus leaves or built from them: the
    # report writes their rows, and no kernel takes a determinant
    calls = []
    monkeypatch.setattr(exact, "det", lambda m: calls.append(len(m)) or det(m))
    argv = ["report", "--scenario", "torus-solid", "--n", str(n), "--format", "json"]
    argv += ["--knot-j", '{"torus": [8, 9]}', "--knot-k", '{"torus": [-2, 5]}']
    assert cli.main(argv) == 0
    assert '"seifert"' in capsys.readouterr().out
    assert calls == []


def test_torus_knot_parameter_validation():
    with pytest.raises(ValueError, match="coprime"):
        torus_knot_seifert(2, 4)
    with pytest.raises(ValueError, match="absolute value"):
        torus_knot_seifert(1, 5)


def test_torus_knot_negative_parameters_mirror():
    assert torus_knot_seifert(-2, 3).entries == mirror(TREFOIL).entries
    assert torus_knot_seifert(-2, -3).entries == TREFOIL.entries
    assert signature(torus_knot_seifert(2, -3)) == 2


def test_whitehead_double_polynomial_one_both_clasps():
    for clasp in "+-":
        v = whitehead_double_seifert(clasp)
        assert alexander_polynomial(v).is_one()
    assert signature(whitehead_double_seifert("+")) == 0


def test_whitehead_double_bad_clasp():
    with pytest.raises(ValueError):
        whitehead_double_seifert("x")


def test_twist_knot_family():
    assert alexander_polynomial(twist_knot_seifert(-1)) == alexander_polynomial(TREFOIL)
    fig8 = alexander_polynomial(twist_knot_seifert(1))
    assert fig8 == LaurentPoly({1: -1, 0: 3, -1: -1})
    stevedore = alexander_polynomial(twist_knot_seifert(2))
    assert stevedore == LaurentPoly({1: -2, 0: 5, -1: -2})


def test_figure_eight_explicit_matrix():
    assert alexander_polynomial(FIG8) == LaurentPoly({1: -1, 0: 3, -1: -1})


def test_trefoil_alexander():
    assert alexander_polynomial(TREFOIL) == LaurentPoly({1: 1, 0: -1, -1: 1})


def test_unknot_alexander_is_one():
    assert alexander_polynomial(unknot()).is_one()
    assert signature(unknot()) == 0


def test_unknot_is_one_instance_and_runs_no_kernel(monkeypatch):
    # a table leaf: neither made nor read through the kernels
    assert unknot() is unknot()
    assert unknot() == SeifertMatrix(()) and unknot().size == 0
    calls = []
    monkeypatch.setattr(exact, "det", lambda m: calls.append(len(m)) or det(m))
    monkeypatch.setattr(
        exact, "signature_symmetric", lambda m: calls.append(len(m)) or signature_symmetric(m)
    )
    assert signature(unknot()) == 0 and alexander_polynomial(unknot()).is_one()
    assert seifert.knot_from_spec("unknot").matrix is unknot()
    assert calls == []


@pytest.mark.parametrize(
    "entries,position",
    [
        (((-1.5, 1), (0, -1)), r"\[0\]\[0\]"),
        (((-1, 1), (0, True)), r"\[1\]\[1\]"),
        (((-1, "1"), (0, -1)), r"\[0\]\[1\]"),
        (((-1, 1), (0.0, -1)), r"\[1\]\[0\]"),
    ],
)
def test_seifert_matrix_rejects_non_integer_entries(entries, position):
    with pytest.raises(ValueError, match=f"entry {position} must be an integer"):
        SeifertMatrix(entries)


def test_seifert_matrix_validation():
    with pytest.raises(ValueError, match="even"):
        SeifertMatrix(((1,),))
    with pytest.raises(ValueError, match="det"):
        SeifertMatrix(((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="square"):
        SeifertMatrix(((1, 2, 3), (0, 1, 2)))


TORUS_PAIRS = [(p, q) for p in range(2, 10) for q in range(p + 1, 11) if gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", TORUS_PAIRS)
def test_torus_bricks_match_dense_oracle(p, q):
    bricks = dense_torus_bricks(p, q)
    assert torus_knot_seifert(p, q).entries == bricks
    assert torus_knot_seifert(-q, p).entries == dense_mirror(bricks)


def assert_builders_match_dense_oracles(v, w):
    e = v.entries
    assert mirror(v).entries == dense_mirror(e)
    assert reverse(v).entries == dense_reverse(e)
    assert concordance_inverse(v).entries == dense_concordance_inverse(e)
    assert connected_sum(v, w).entries == dense_connected_sum(e, w.entries)
    assert connected_sum(w, v).entries == dense_connected_sum(w.entries, e)
    for n in (-3, -2, -1, 1, 2, 3):
        assert parallel_cable(v, n).entries == dense_parallel_cable(e, n)


@given(
    st.one_of(
        seifert_matrices(),
        st.sampled_from(TORUS_PAIRS).map(lambda pq: torus_knot_seifert(*pq)),
    ),
    seifert_matrices(max_genus=2),
)
def test_sparse_builders_match_dense_oracles(v, w):
    assert_builders_match_dense_oracles(v, w)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (5, 7), (9, 10)])
def test_sparse_builders_match_dense_oracles_on_torus_knots(p, q):
    # T(9, 10) is 72 x 72, and its +-3 cables 216 x 216
    assert_builders_match_dense_oracles(torus_knot_seifert(p, q), FIG8)


def test_seifert_matrix_value_semantics():
    v = SeifertMatrix(((-1, 1), (0, -1)))
    assert v == TREFOIL and hash(v) == hash(TREFOIL)
    assert v == SeifertMatrix.from_rows([{0: -1, 1: 1}, {0: 0, 1: -1}])  # a stored zero is dropped
    assert v != mirror(TREFOIL) and v != TREFOIL.entries
    assert len({v, TREFOIL, mirror(TREFOIL)}) == 2
    assert repr(v) == "SeifertMatrix(entries=((-1, 1), (0, -1)))"
    with pytest.raises(TypeError):
        v.rows[0][0] = 5
    with pytest.raises(AttributeError):
        v.rows = ()
    assert v.entries == ((-1, 1), (0, -1))


def test_seifert_matrix_from_rows_checks():
    with pytest.raises(ValueError, match=r"entry \[1\]\[0\] must be an integer"):
        SeifertMatrix.from_rows([{0: -1, 1: 1}, {0: 0.0, 1: -1}])
    with pytest.raises(ValueError, match="square"):
        SeifertMatrix.from_rows([{0: -1, 2: 1}, {1: -1}])
    with pytest.raises(ValueError, match="square"):
        SeifertMatrix.from_rows([{0: -1, -1: 1}, {1: -1}])
    # the trefoil's rows, but for zeros stored in columns outside 0..1
    for rows in [{0: -1, 1: 1, 7: 0, "x": 0}, {1: -1}], [{0: -1, 1: 1, -1: 0}, {1: -1}]:
        with pytest.raises(ValueError, match="square"):
            SeifertMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="even"):
        SeifertMatrix.from_rows([{0: 1}])
    with pytest.raises(ValueError, match="det"):
        SeifertMatrix.from_rows([{}, {}])


def test_the_trust_boundary_takes_one_skew_determinant_per_distinct_block(monkeypatch):
    # T(4,5) # -T(4,5) as rows: two 12 x 12 blocks, equal up to sign, so the
    # boundary takes one det(B - B^T) at size 12, and sigma = sigma(B) -
    # sigma(B) = 0 takes no elimination
    v = torus_knot_seifert(4, 5)
    rows = [list(r) for r in connected_sum(v, concordance_inverse(v)).entries]
    dets, sigs = [], []
    monkeypatch.setattr(exact, "det", lambda m: dets.append(len(m)) or det(m))
    monkeypatch.setattr(
        exact, "signature_symmetric", lambda m: sigs.append(len(m)) or signature_symmetric(m)
    )
    scenario = build_scenario("torus-solid", n=1, knot_j={"seifert": rows}, knot_k="unknot")
    assert dets == [12]
    report = run_scenario(scenario)
    assert sigs == []
    verdicts = [t.output for t in report.trace if t.operation == "algebraic_slice_verdict"]
    assert [out["signature"] for out in verdicts] == [0, 0]


@pytest.mark.parametrize(
    "summands, copies",
    [
        ((TREFOIL, TREFOIL), 2),
        ((TREFOIL, concordance_inverse(TREFOIL), reverse(TREFOIL)), 1),  # B, -B, B^T
    ],
    ids=["t23-t23", "t23-minus-t23-reverse-t23"],
)
def test_a_repeated_block_takes_one_signature_elimination(monkeypatch, summands, copies):
    # T(2,3) # T(2,3) as rows: two equal 2 x 2 blocks, so one elimination of
    # B + B^T gives 2 * sigma(B); beside -B and B^T, one copy of B is left
    v = SeifertMatrix(reduce(connected_sum, summands).entries)
    sizes = []
    monkeypatch.setattr(
        exact, "signature_symmetric", lambda m: sizes.append(len(m)) or signature_symmetric(m)
    )
    assert signature(v) == copies * signature(TREFOIL)
    assert sizes == [2]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, 1]],  # two 1 x 1 blocks, each of det(B - B^T) = 0
        [list(r) for r in block_diagonal(TREFOIL.entries, ((2, 1), (1, 0)))],  # 1 and 0
    ],
    ids=["two-odd-blocks", "good-beside-singular"],
)
def test_a_block_of_skew_determinant_other_than_1_is_refused(capsys, rows):
    n = len(rows)
    assert dense_det([[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]) == 0
    spec = json.dumps({"seifert": rows})
    assert cli.main(["report", "--scenario", "torus-solid", "--knot-j", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["dehn4: error: knot_j: det(V - V^T) must equal 1"]


def test_every_builder_checks_unimodularity(monkeypatch):
    # the public constructors are the trust boundary: once the det(V - V^T)
    # step is patched to fail, every matrix that enters through them fails
    # at once; a table knot is not one of them, and its rows, which the
    # tests check, are read unchecked
    v = SeifertMatrix(((-1, 1), (0, -1)))
    monkeypatch.setattr(exact, "det", lambda m: 0)
    builds = [
        lambda: SeifertMatrix(v.entries),
        lambda: SeifertMatrix.from_rows(v.rows),
        lambda: knot_from_spec({"seifert": [list(row) for row in v.entries]}),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=r"det\(V - V\^T\) must equal 1"):
            build()
    assert torus_knot_seifert(2, 3).entries == ((-1, 1), (0, -1))
    assert torus_knot_seifert(-2, 3).entries == ((1, 0), (-1, 1))
    assert twist_knot_seifert(2).entries == ((-1, 1), (0, 2))
    assert whitehead_double_seifert("+").entries == ((-1, 1), (0, 0))
    assert unknot().entries == ()


def test_derived_builders_take_no_determinant(monkeypatch):
    # each derived builder inherits det(V - V^T) = 1 from its checked
    # parents: neither building it nor reading its rows takes one
    v, w = torus_knot_seifert(3, 4), FIG8
    assert v.rows  # the torus leaf's bricks, built unchecked on first read
    calls = []
    monkeypatch.setattr(exact, "det", lambda m: calls.append(len(m)) or det(m))
    derived = [op(v) for op in (mirror, reverse, concordance_inverse)]
    derived.append(connected_sum(v, w))
    derived += [parallel_cable(v, n) for n in (-2, -1, 1, 2)]
    for d in derived:
        assert len(d.rows) == d.size
    assert calls == []


@pytest.fixture
def torus_specs_as_rows(monkeypatch):
    """A {"torus": [p, q]} spec enters as a checked leaf of the dense brick
    rows, as a {"seifert": ...} spec would, so its invariants come from the
    kernels rather than the closed forms."""
    monkeypatch.setattr(
        seifert, "torus_knot_seifert", lambda p, q: SeifertMatrix(dense_torus_bricks(p, q))
    )


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7), (8, 9)])
def test_twist_extension_checks_the_companion_once(monkeypatch, torus_specs_as_rows, p, q):
    # a companion given by its rows is checked where it enters; its
    # concordance inverse, cable and connected sum are derived from it
    # unchecked
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    run_scenario(build_scenario("twist-extension", p=p, q=q))
    assert sizes.count((p - 1) * (q - 1)) == 1


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7), (8, 9)])
def test_twist_extension_diagonalizes_the_companion_once(monkeypatch, torus_specs_as_rows, p, q):
    # for a companion given by its rows, sigma(-J) = -sigma(J), and the -1
    # cable of J is J^T, so both class knots read the one elimination of
    # J; the unknot K is a table leaf and adds none
    sizes = []
    monkeypatch.setattr(
        exact,
        "signature_symmetric",
        lambda m: sizes.append(len(m)) or signature_symmetric(m),
    )
    run_scenario(build_scenario("twist-extension", p=p, q=q))
    assert sizes == [(p - 1) * (q - 1)]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p,q", [(2, 3), (8, 9), (40, 41)])
def test_twist_extension_runs_no_elimination_on_its_torus_companion(monkeypatch, capsys, p, q, fmt):
    # sigma(J) comes from the lattice count, no report reads the rows of
    # J, and the unknot K is a table leaf: no kernel runs
    dets, sigs = [], []
    monkeypatch.setattr(exact, "det", lambda m: dets.append(len(m)) or det(m))
    monkeypatch.setattr(
        exact, "signature_symmetric", lambda m: sigs.append(len(m)) or signature_symmetric(m)
    )
    argv = ["report", "--scenario", "twist-extension", "--p", str(p), "--q", str(q)]
    assert cli.main([*argv, "--format", fmt]) == 0
    assert "Mixed" in capsys.readouterr().out
    assert dets == [] and sigs == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_torus_top_vs_smooth_takes_no_determinant_of_its_torus_companion(monkeypatch, capsys, fmt):
    # Delta and sigma of J = T(8, 9) come from the closed forms; a JSON
    # report writes the 56 x 56 matrix of J, whose bricks the tests check,
    # so neither format takes its determinant
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    argv = ["report", "--scenario", "torus-top-vs-smooth", "--n", "1"]
    argv += ["--knot-j", '{"torus": [8, 9]}']
    assert cli.main([*argv, "--format", fmt]) == 0
    assert "Inconclusive" in capsys.readouterr().out
    large = [size for size in sizes if size > 2]
    assert large == []


@pytest.mark.parametrize("knot_k", ["left-trefoil", "figure-eight"])
def test_torus_solid_takes_the_companion_alexander_once(monkeypatch, knot_k):
    # J = T(3,4) # -T(3,4) enters as one 12 x 12 leaf of two 6 x 6 blocks,
    # V and -V^T, which share one Delta: 3 determinants of size 6 and none
    # of size 12; -J and K # cable(J; 1) both read that one
    v = torus_knot_seifert(3, 4)
    rows = connected_sum(v, concordance_inverse(v)).entries
    scenario = build_scenario(
        "torus-solid", n=1, knot_j={"seifert": [list(r) for r in rows]}, knot_k=knot_k
    )
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    run_scenario(scenario)
    assert sizes.count(6) == 3
    assert max(sizes) == 6


def test_torus_solid_factors_a_shared_alexander_polynomial_once(monkeypatch):
    # with K the unknot and n = 1, -J and K # cable(J; 1) both have Delta_J,
    # 2t - 5 + 2/t for the stevedore, which passes the determinant test
    scenario = build_scenario("torus-solid", n=1, knot_k="unknot", knot_j="stevedore")
    calls = []
    factor_list = factor.factor_list
    monkeypatch.setattr(
        factor, "factor_list", lambda coeffs: calls.append(coeffs) or factor_list(coeffs)
    )
    report = run_scenario(scenario)
    assert len(calls) == 1
    verdicts = [t.output for t in report.trace if t.operation == "algebraic_slice_verdict"]
    assert [v["fox_milnor"]["factor"] for v in verdicts] == ["t - 2"] * 2
    # the memo lives for one report: the next report factors again
    run_scenario(scenario)
    assert len(calls) == 2


def test_torus_top_vs_smooth_cable_takes_no_determinant_beyond_its_companion(
    monkeypatch, torus_specs_as_rows
):
    # the 62 x 62 class knot WD+ # cable(T(5,6); 3) gets Delta from its
    # leaves: WD+ (2 x 2) and T(5,6), given by its rows (20 x 20, also
    # checked where it enters)
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    run_scenario(build_scenario("torus-top-vs-smooth", n=3, knot_j={"torus": [5, 6]}))
    assert max(sizes) == 20


@pytest.mark.parametrize("p,q", [(3, 4), (5, 6)])
def test_torus_solid_cable_takes_no_signature_elimination_beyond_its_companion(
    monkeypatch, torus_specs_as_rows, p, q
):
    # sigma of K # cable(J; 3) is sigma(K) + sigma(J) by Litherland's
    # formula, so the 3-cable of J, given by its rows, adds no elimination:
    # the largest is the one of the leaf J itself
    sizes = []
    monkeypatch.setattr(
        exact, "signature_symmetric", lambda m: sizes.append(len(m)) or signature_symmetric(m)
    )
    run_scenario(build_scenario("torus-solid", n=3, knot_j={"torus": [p, q]}))
    assert max(sizes) == (p - 1) * (q - 1)


UNARY_ORACLES = {
    mirror: dense_mirror,
    reverse: dense_reverse,
    concordance_inverse: dense_concordance_inverse,
}


@pytest.mark.parametrize("outer", list(UNARY_ORACLES), ids=lambda op: op.__name__)
@pytest.mark.parametrize("inner", list(UNARY_ORACLES), ids=lambda op: op.__name__)
def test_unary_builders_compose_on_the_parent(outer, inner):
    # mirror, reverse and concordance inverse form a Klein four-group, so
    # outer(inner(V)) is built on V: its rows must still be the composition
    for v in (torus_knot_seifert(3, 4), FIG8, twist_knot_seifert(2)):
        composed = outer(inner(v))
        assert composed.entries == UNARY_ORACLES[outer](UNARY_ORACLES[inner](v.entries))
        leaf = SeifertMatrix.from_rows(composed.rows)
        assert signature(composed) == signature(leaf)
        assert alexander_polynomial(composed) == alexander_polynomial(leaf)


def test_deep_unary_chains_have_depth_one():
    # the +-1 cables are V and V^T, so they join the Klein four-group
    def plus(m):
        return parallel_cable(m, 1)

    def minus(m):
        return parallel_cable(m, -1)

    oracles = {
        **UNARY_ORACLES,
        plus: lambda e: dense_parallel_cable(e, 1),
        minus: lambda e: dense_parallel_cable(e, -1),
    }
    v = torus_knot_seifert(2, 3)
    for op in oracles:
        m = v
        for _ in range(1200):
            m = op(m)
        assert signature(m) == -2
        assert m.rows == v.rows
    ops = [mirror, minus, reverse, concordance_inverse, plus, reverse, reverse, mirror, minus]
    m, e = v, v.entries
    for k in range(1201):
        op = ops[k % len(ops)]
        m, e = op(m), oracles[op](e)
    assert m is v or m._origin[1] is v
    assert m.entries == e
    assert signature(m) == signature(SeifertMatrix(e))
    assert alexander_polynomial(m) == alexander_polynomial(v)


def test_long_connected_sum_of_torus_leaves_builds_no_bricks(monkeypatch):
    built = []
    bricks = seifert._positive_torus_bricks
    monkeypatch.setattr(
        seifert, "_positive_torus_bricks", lambda p, q: built.append((p, q)) or bricks(p, q)
    )
    v = torus_knot_seifert(2, 3)
    s = v
    for _ in range(199):
        s = connected_sum(s, v)
    assert s.size == 400 and s.genus == 200
    assert signature(s) == -400
    delta = alexander_polynomial(s)
    assert delta.span == 400 and evaluate(delta, -1) == 3**200  # Delta_T(2,3)(-1) = -3
    assert built == []
    assert len(s.rows) == 400  # reading the rows builds the one leaf's bricks
    assert built == [(2, 3)]


def test_derived_matrices_equal_their_leaves_and_keep_their_views():
    v, w = torus_knot_seifert(3, 4), FIG8
    derived = [
        mirror(v),
        reverse(v),
        concordance_inverse(v),
        connected_sum(v, w),
        parallel_cable(v, 2),
        parallel_cable(w, -3),
    ]
    for d in [v, *derived]:
        leaf = SeifertMatrix.from_rows(d.rows)
        assert d == leaf and leaf == d and hash(d) == hash(leaf)
        rows, views = d.rows, (d.entries, repr(d))
        signature(d), alexander_polynomial(d)  # keeps results on d or its leaves
        assert d.rows is rows and (d.entries, repr(d)) == views
        assert d == leaf and hash(d) == hash(leaf)


@pytest.mark.parametrize("p,q", [(p, q) for p, q in TORUS_PAIRS if p <= 5 and q <= 7])
def test_derived_torus_matrices_are_unimodular(p, q):
    # the identities the derived builders rely on, checked by the dense oracle
    v = torus_knot_seifert(p, q)
    derived = [mirror(v), reverse(v), concordance_inverse(v), connected_sum(v, TREFOIL)]
    derived += [parallel_cable(v, n) for n in (-3, -2, -1, 1, 2, 3)]
    for d in derived:
        assert skew_det(d) == 1


def test_mirror_reverse_connected_sum_shapes():
    v = TREFOIL
    assert mirror(v).entries == ((1, 0), (-1, 1))
    assert reverse(v).entries == ((-1, 0), (1, -1))
    assert concordance_inverse(v).entries == ((1, -1), (0, 1))
    s = SeifertMatrix.from_rows(connected_sum(v, FIG8).rows)  # the kernel, not the identity
    assert s.size == 4
    assert alexander_polynomial(s) == (
        alexander_polynomial(v) * alexander_polynomial(FIG8)
    ).normalized()


def test_square_knot_passes_fox_milnor():
    square = connected_sum(TREFOIL, mirror(TREFOIL))
    assert signature(square) == 0
    verdict = algebraic_slice_verdict(square)
    assert verdict.tag is SliceTag.UNKNOWN
    assert verdict.fox_milnor is not None and verdict.fox_milnor.passed


def test_parallel_cable_identity_and_reverse():
    assert parallel_cable(TREFOIL, 1) is TREFOIL
    assert parallel_cable(TREFOIL, -1).entries == reverse(TREFOIL).entries
    # a fresh leaf, so the kernel computes what the identity would
    assert signature(SeifertMatrix.from_rows(parallel_cable(TREFOIL, -1).rows)) == -2
    with pytest.raises(ValueError):
        parallel_cable(TREFOIL, 0)


@pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("base", [TREFOIL, FIG8])
def test_parallel_cable_alexander_substitution(base, n):
    # fresh leaves: the kernel on both sides, not a kept result or the
    # satellite formula that alexander_polynomial reads for a cable
    base = SeifertMatrix.from_rows(base.rows)
    cable = SeifertMatrix.from_rows(parallel_cable(base, n).rows)
    assert skew_det(cable) == 1
    expected = alexander_polynomial(base).substituted(n).normalized()
    assert alexander_polynomial(cable) == expected


CABLE_TORUS_PAIRS = [(2, 3), (2, -5), (3, 4), (3, 5)]


@given(
    st.one_of(
        seifert_matrices(max_genus=6),
        st.sampled_from(CABLE_TORUS_PAIRS).map(lambda pq: torus_knot_seifert(*pq)),
    ),
    st.integers(1, 5),
    st.sampled_from((1, -1)),
)
def test_cable_signature_follows_litherland(v, k, sign):
    # Litherland's formula, sigma(V) for odd n and 0 for even n, against
    # the kernel on the cable's rows read back as a leaf (size <= 60)
    cable = parallel_cable(v, sign * k)
    assert cable.size <= 60
    e = SeifertMatrix.from_rows(cable.rows).entries
    symmetric = [{j: e[i][j] + e[j][i] for j in range(len(e))} for i in range(len(e))]
    assert signature(cable) == signature_symmetric(symmetric)


def test_parallel_cable_two_of_trefoil_explicit():
    cable = parallel_cable(TREFOIL, 2)
    assert cable.size == 4
    assert alexander_polynomial(cable) == LaurentPoly({2: 1, 0: -1, -2: 1})


def test_fox_milnor_trivial_polynomial():
    result = fox_milnor(LaurentPoly.one())
    assert result.passed
    assert result.factor.is_one()


def test_fox_milnor_figure_eight_determinant_witness():
    result = fox_milnor(alexander_polynomial(FIG8))
    assert not result.passed
    assert result.failure.kind == "determinant"
    assert result.failure.determinant == 5


def test_fox_milnor_stevedore_passes_with_degree_one_factor():
    delta = LaurentPoly({1: 2, 0: -5, -1: 2})
    result = fox_milnor(delta)
    assert result.passed
    f = result.factor
    assert f.span == 1
    assert (f * f.reciprocal()).normalized() == delta.normalized()


def test_fox_milnor_factorization_witness_with_square_determinant():
    # det = 1 but the self-reciprocal irreducible factor has multiplicity 1
    delta = alexander_polynomial(torus_knot_seifert(3, 5))
    assert abs(evaluate(delta, -1)) == 1
    result = fox_milnor(delta)
    assert not result.passed
    assert result.failure.kind == "factorization"


def test_fox_milnor_degree_bound_is_distinct_from_failure(monkeypatch):
    wide = alexander_polynomial(TREFOIL).substituted(9)
    with pytest.raises(FactorizationBoundError):
        fox_milnor(wide)
    monkeypatch.setattr(seifert, "FOX_MILNOR_DEGREE_BOUND", 20)
    assert fox_milnor(wide).passed is False


def test_fox_milnor_unpaired_factor_is_an_internal_error(monkeypatch):
    # 2t^2 - 5t + 2 = (2t - 1)(t - 2); a factorization that drops t - 2 for a
    # second 2t - 1 leaves 2t - 1 without its reciprocal
    monkeypatch.setattr(factor, "factor_list", lambda coeffs: [((2, -1), 2)])
    with pytest.raises(AssertionError, match="internal error"):
        fox_milnor(LaurentPoly({1: 2, 0: -5, -1: 2}))


@given(seifert_matrices())
def test_alexander_factors_pair_with_their_reciprocals(v):
    """The two facts fox_milnor relies on: over Z the content of Delta is
    +-1, and every irreducible factor g has the multiplicity of its
    reciprocal t^deg(g) g(1/t)."""
    delta = alexander_polynomial(v)
    t = sympy.Symbol("t")
    shifted = delta.shifted(-delta.min_exp)
    poly = sympy.Poly.from_dict({(e,): c for e, c in shifted.coeffs.items()}, t)
    content, factors = poly.factor_list()
    assert abs(content) == 1
    for g, e in factors:
        assert g.eval(0) != 0
        star = sympy.Poly(list(reversed(g.all_coeffs())), t)
        assert [m for h, m in factors if h in (star, -star)] == [e]


def test_verdict_examples():
    assert algebraic_slice_verdict(TREFOIL).tag is SliceTag.OBSTRUCTED_BY_SIGNATURE
    assert algebraic_slice_verdict(TREFOIL).signature == -2
    assert algebraic_slice_verdict(whitehead_double_seifert("+")).tag is SliceTag.UNKNOWN
    fig8_verdict = algebraic_slice_verdict(FIG8)
    assert fig8_verdict.tag is SliceTag.OBSTRUCTED_BY_FOX_MILNOR
    assert fig8_verdict.fox_milnor.failure.determinant == 5


def test_verdict_never_unknown_with_nonzero_signature():
    for v in (TREFOIL, torus_knot_seifert(3, 4), mirror(TREFOIL)):
        verdict = algebraic_slice_verdict(v)
        if signature(v) != 0:
            assert verdict.tag is SliceTag.OBSTRUCTED_BY_SIGNATURE


@given(seifert_matrices())
def test_invariant_closure_under_unary_ops(v):
    for op in (mirror, reverse, concordance_inverse):
        assert skew_det(op(v)) == 1
    for n in (2, -2):
        assert skew_det(parallel_cable(v, n)) == 1


@given(seifert_matrices(max_genus=2), seifert_matrices(max_genus=2))
def test_signature_additive_and_alexander_multiplicative(v, w):
    s = SeifertMatrix.from_rows(connected_sum(v, w).rows)  # the kernel, not the identity
    assert skew_det(s) == 1
    assert signature(s) == signature(v) + signature(w)
    assert alexander_polynomial(s) == (
        alexander_polynomial(v) * alexander_polynomial(w)
    ).normalized()


@given(seifert_matrices())
def test_mirror_antisymmetry_reverse_invariance(v):
    def leaf(m):  # the kernel on the built rows, not the identity
        return SeifertMatrix.from_rows(m.rows)

    assert signature(leaf(mirror(v))) == -signature(v)
    assert alexander_polynomial(leaf(reverse(v))) == alexander_polynomial(v)


# fresh leaves of the builder trees: each call enters the trust boundary
TREE_LEAVES = (
    unknot,
    lambda: torus_knot_seifert(2, 3),
    lambda: torus_knot_seifert(2, -5),
    lambda: torus_knot_seifert(3, 4),
)


@st.composite
def builder_trees(draw, depth=3, budget=24):
    """A matrix of size <= budget built by a random tree of the derived
    builders over `seifert_matrices`, torus knots and the unknot (leaves of
    size <= 6), with cables for 1 <= |n| <= 3.  The second summand of a
    connected sum may be the first one again, so kept results are shared
    the way a scenario shares its companion J."""
    ops = ["leaf"]
    if depth:
        ops += ["mirror", "reverse", "inverse", "cable", "cable"] + (["sum"] if budget >= 12 else [])
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return draw(
            st.one_of(
                seifert_matrices(max_genus=2),
                st.sampled_from(TREE_LEAVES).map(lambda leaf: leaf()),
            )
        )
    if op == "sum":
        v = draw(builder_trees(depth - 1, budget - 6))
        if 2 * v.size <= budget and draw(st.booleans()):
            return connected_sum(v, v)
        return connected_sum(v, draw(builder_trees(depth - 1, budget - v.size)))
    if op == "cable":
        v = draw(builder_trees(depth - 1, budget // 2 if budget >= 12 else budget))
        k = draw(st.integers(1, min(3, budget // v.size) if v.size else 3))
        return parallel_cable(v, k * draw(st.sampled_from((1, -1))))
    unary = {"mirror": mirror, "reverse": reverse, "inverse": concordance_inverse}[op]
    return unary(draw(builder_trees(depth - 1, budget)))


def check_record(v):
    """A signed origin is one level deep and never the identity, and no
    origin inside a sum is itself a sum, anywhere in v's record."""
    stack = [v]
    while stack:
        match stack.pop()._origin:
            case ("signed", w, s, transposed):
                assert s in (1, -1) and (s, transposed) != (1, False)
                assert w._origin is None or w._origin[0] != "signed"
                stack.append(w)
            case ("sum", parts):
                assert type(parts) is tuple and len(parts) >= 2
                assert all(w._origin is None or w._origin[0] != "sum" for w in parts)
                stack += parts
            case ("cable", w, n):
                assert n >= 2
                stack.append(w)
            case origin:
                assert origin is None or origin[0] in ("unknot", "twist", "whitehead", "torus")


@given(builder_trees())
def test_builder_tree_invariants_match_the_kernel(v):
    # the identities over the recorded origin, against the kernels run on
    # the tree's rows read back as one fresh leaf
    leaf = SeifertMatrix.from_rows(v.rows)
    assert signature(v) == signature(leaf)
    assert alexander_polynomial(v) == alexander_polynomial(leaf)
    check_record(v)
    check_record(connected_sum(v, connected_sum(v, leaf)))
    # a signed chain is one level deep, and gives back its parent when the
    # signs and the transposes cancel
    signed = v._origin is not None and v._origin[0] == "signed"
    base = v._origin[1] if signed else v
    for outer in UNARY_ORACLES:
        twice = outer(outer(v))
        assert twice._origin == v._origin if signed else twice is v
        for inner in UNARY_ORACLES:
            composed = outer(inner(v))
            assert composed is base or composed._origin[1] is base


def leibniz_alexander(v: SeifertMatrix) -> LaurentPoly:
    """det(V - t*V^T) by the permutation expansion, with no elimination at all."""
    n = v.size
    total: dict[int, int] = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = LaurentPoly({0: -1 if inversions % 2 else 1})
        for i, j in enumerate(perm):
            term = term * LaurentPoly({0: v.entries[i][j], 1: -v.entries[j][i]})
        for e, c in term.coeffs.items():
            total[e] = total.get(e, 0) + c
    return LaurentPoly(total).normalized()


@given(seifert_matrices(max_genus=3))
def test_alexander_matches_leibniz_expansion(v):
    assert alexander_polynomial(v) == leibniz_alexander(v)


@given(seifert_matrices(max_genus=5))
def test_alexander_matches_newton_oracle(v):
    assert alexander_polynomial(v) == newton_alexander(v)


@pytest.mark.parametrize(
    "v",
    [
        connected_sum(whitehead_double_seifert("+"), torus_knot_seifert(3, 4)),
        connected_sum(whitehead_double_seifert("+"), whitehead_double_seifert("-")),
    ],
)
def test_alexander_with_singular_seifert_matrix(v):
    assert dense_det(v.entries) == 0  # the top coefficient c_m = det V vanishes
    assert alexander_polynomial(v) == newton_alexander(v)


@pytest.mark.parametrize(
    "v, blocks",
    [
        (unknot(), []),
        (TREFOIL, [2]),
        (torus_knot_seifert(3, 4), [6]),
        (torus_knot_seifert(5, 6), [20]),
        (connected_sum(torus_knot_seifert(3, 4), FIG8), [6, 2]),
    ],
    ids=[f"v{k}" for k in range(5)],
)
def test_alexander_takes_half_the_size_plus_one_determinants(monkeypatch, v, blocks):
    # per connected block B of size k of the leaf, k/2 + 1 values of
    # det(B - t*B^T), of which the one at t = 1, det(B - B^T) = 1, is free:
    # k/2 determinants; the unknot has no block, a block sum two.  Every
    # block's det B comes first, so the sizes are compared as a multiset
    v = SeifertMatrix.from_rows(v.rows)  # a fresh leaf keeps no Delta yet
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    alexander_polynomial(v)
    assert sorted(sizes) == sorted(k for k in blocks for _ in range(k // 2))


@st.composite
def interleaved_block_sums(draw):
    """Two or three random Seifert matrices, their block sum under a random
    simultaneous permutation of rows and columns, given as a checked leaf."""
    parts = draw(st.lists(seifert_matrices(max_genus=2), min_size=2, max_size=3))
    whole = parts[0].entries
    for part in parts[1:]:
        whole = dense_connected_sum(whole, part.entries)
    perm = draw(st.permutations(range(len(whole))))
    rows = [{j: whole[perm[i]][perm[j]] for j in range(len(whole))} for i in range(len(whole))]
    return parts, SeifertMatrix.from_rows(rows)


@given(interleaved_block_sums())
def test_alexander_of_an_interleaved_block_sum(case):
    parts, v = case
    delta = alexander_polynomial(v)
    assert delta == newton_alexander(v)
    product = LaurentPoly.one()
    for part in parts:
        product = product * newton_alexander(part)
    assert delta == product


@st.composite
def signed_block_sums(draw):
    """Up to four blocks s * B or s * B^T, s = +-1, with B one of at most two
    matrices, each a random Seifert matrix or a small square integer matrix
    that may be odd, singular or of det(B - B^T) != 1; their block sum
    under one seeded simultaneous permutation, as dense rows."""
    def square(k):
        row = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        return st.lists(row, min_size=k, max_size=k)

    seifert = seifert_matrices(max_genus=2).map(lambda v: v.entries)
    matrices = st.one_of(seifert, st.integers(1, 3).flatmap(square))
    base = draw(st.lists(matrices, min_size=1, max_size=2))
    signed = st.tuples(st.sampled_from(base), st.sampled_from((1, -1)), st.booleans())
    blocks = [
        [[s * x for x in row] for row in (transpose(b) if t else b)]
        for b, s, t in draw(st.lists(signed, min_size=1, max_size=4))
    ]
    whole = block_diagonal(*blocks)
    order = list(range(len(whole)))
    random.Random(draw(st.integers(0, 2**32))).shuffle(order)
    return [[whole[i][j] for j in order] for i in order]


@given(signed_block_sums())
def test_checked_leaf_invariants_match_the_dense_oracles_on_signed_block_sums(rows):
    # the boundary accepts exactly the V with det(V - V^T) = 1, by the dense
    # oracle on the whole matrix, and the per-block signature and Delta
    # are the whole matrix's
    n = len(rows)
    try:
        v = SeifertMatrix(rows)
    except ValueError:
        v = None
    skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
    assert (v is not None) == (dense_det(skew) == 1)
    if v is not None:
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        assert signature(v) == dense_signature_symmetric(sym)
        assert alexander_polynomial(v) == newton_alexander(v)
        assert alexander_span(v) == alexander_polynomial(v).span


def test_alexander_of_a_block_up_to_sign_and_transpose_runs_the_kernel_once(monkeypatch):
    # the leaf B + (-B) + B^T + (-B^T) for B = T(3,5), 8 x 8, with rows and
    # columns interleaved (0, 8, 16, 24, 1, 9, ...); the dense oracle on each
    # block on its own gives the product
    b = torus_knot_seifert(3, 5).entries
    minus_b = tuple(tuple(-x for x in row) for row in b)
    parts = [b, minus_b, transpose(b), transpose(minus_b)]
    whole = block_diagonal(*parts)
    k, n = len(b), len(whole)
    order = [(i % 4) * k + i // 4 for i in range(n)]
    v = SeifertMatrix.from_rows(
        [{j: whole[order[i]][order[j]] for j in range(n) if whole[order[i]][order[j]]} for i in range(n)]
    )
    oracle = LaurentPoly.one()
    for part in parts:
        oracle = oracle * newton_alexander(SeifertMatrix(part))
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    assert alexander_polynomial(v) == oracle
    assert sizes == [k] * (k // 2)


def _interleaved_minus_sum(p, q):
    """T(p,q) # -T(p,q) as a checked leaf, rows and columns interleaved
    (0, n/2, 1, n/2 + 1, ...): two blocks, -V after V."""
    v = torus_knot_seifert(p, q)
    e = connected_sum(v, concordance_inverse(v)).entries
    n = len(e)
    order = [k // 2 + (k % 2) * (n // 2) for k in range(n)]
    return SeifertMatrix([[e[i][j] for j in order] for i in order])


def _dense_minus_sum(p, q, seed):
    """T(p,q) # -T(p,q) under a seeded dense unimodular congruence: one block."""
    t = dense_torus_bricks(p, q)
    return SeifertMatrix(dense_congruence(block_diagonal(t, dense_concordance_inverse(t)), seed))


def _rows_of(v):
    """v as a checked leaf, so its invariants come from the kernels."""
    return SeifertMatrix.from_rows(v.rows)


SPAN_CASES = {
    # singular blocks: det B = 0, so the span is read off Delta
    "singular-2x2": lambda: knot_from_spec({"seifert": [[-1, 1], [0, 0]]}).matrix,
    "whitehead-plus-rows": lambda: _rows_of(whitehead_double_seifert("+")),
    "whitehead-minus-rows": lambda: _rows_of(whitehead_double_seifert("-")),
    "whitehead-plus-t34-rows": lambda: _rows_of(
        connected_sum(whitehead_double_seifert("+"), torus_knot_seifert(3, 4))
    ),
    "twist-0-rows": lambda: _rows_of(twist_knot_seifert(0)),
    # cables with negative n
    "cable-trefoil-rows-minus-2": lambda: parallel_cable(_rows_of(TREFOIL), -2),
    "cable-t35-minus-3": lambda: parallel_cable(torus_knot_seifert(3, 5), -3),
    "cable-whitehead-rows-minus-3": lambda: parallel_cable(
        _rows_of(whitehead_double_seifert("-")), -3
    ),
    "cable-of-cable-minus-2": lambda: parallel_cable(parallel_cable(FIG8, 3), -2),
    # sums that mix checked leaves with table knots
    "sum-trefoil-rows-t34": lambda: connected_sum(_rows_of(TREFOIL), torus_knot_seifert(3, 4)),
    "sum-stevedore-fig8": lambda: connected_sum(twist_knot_seifert(2), FIG8),
    "sum-whitehead-rows-unknot-twist": lambda: connected_sum(
        connected_sum(_rows_of(whitehead_double_seifert("+")), unknot()), twist_knot_seifert(-3)
    ),
    "sum-mirror-leaf-cable": lambda: connected_sum(
        mirror(_rows_of(torus_knot_seifert(2, 5))), parallel_cable(twist_knot_seifert(1), 2)
    ),
    # the interleaved rows of T(5,6) # -T(5,6): two 20 x 20 blocks
    "interleaved-t56": lambda: _interleaved_minus_sum(5, 6),
    # dense single blocks
    **{
        f"dense-t{p}{q}-seed{seed}": (lambda p=p, q=q, seed=seed: _dense_minus_sum(p, q, seed))
        for p, q, seed in ((2, 3, 1), (2, 5, 2), (3, 4, 3), (2, 7, 4))
    },
}


@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_alexander_span_is_the_span_of_delta(name):
    v = SPAN_CASES[name]()
    assert alexander_span(v) == alexander_polynomial(v).span


@given(seifert_matrices())
def test_alexander_span_of_a_checked_leaf_is_the_span_of_delta(v):
    assert alexander_span(v) == newton_alexander(v).span == alexander_polynomial(v).span


def test_alexander_span_takes_one_determinant_per_distinct_block(monkeypatch):
    # T(4,5) # -T(4,5) as rows: two 12 x 12 blocks, equal up to sign, each
    # with det B != 0; the span is 24 from one determinant, and Delta then
    # takes the 5 determinants it still needs, no more
    v = _interleaved_minus_sum(4, 5)
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    assert alexander_span(v) == 24
    assert sizes == [12]
    alexander_polynomial(v)
    assert sizes == [12] * 6


@pytest.mark.parametrize(
    "knot_j, block",
    [
        pytest.param(lambda: _interleaved_minus_sum(4, 5), 12, id="t45-rows"),
        pytest.param(lambda: _dense_minus_sum(6, 7, 0), 60, id="dense-60x60-t67"),
    ],
)
def test_torus_solid_refuses_a_wide_delta_after_one_determinant(monkeypatch, knot_j, block):
    # sigma(J) = 0, and Delta_J spans beyond the bound: each class knot is
    # refused from the span, after det B of J's one distinct block, and no
    # interpolation runs
    v = knot_j()
    rows = [list(row) for row in v.entries]
    scenario = build_scenario("torus-solid", n=1, knot_j={"seifert": rows}, knot_k="unknot")
    sizes = []
    monkeypatch.setattr(exact, "det", lambda m: sizes.append(len(m)) or det(m))
    report = run_scenario(scenario)
    assert sizes == [block]
    notes = [t.output["note"] for t in report.trace if t.operation == "algebraic_slice_verdict"]
    assert notes == [f"polynomial degree {v.size} exceeds bound 16"] * 2


def test_a_refused_delta_is_the_note_fox_milnor_gives():
    # refusing from the span gives what fox_milnor gives on the built Delta
    v = _interleaved_minus_sum(3, 7)
    verdict = algebraic_slice_verdict(v, {})
    with pytest.raises(seifert.FactorizationBoundError) as exc:
        fox_milnor(alexander_polynomial(v))
    assert verdict == (SliceTag.UNKNOWN, 0, None, str(exc.value))


def test_chain_of_1200_connected_sums_needs_no_recursion():
    trefoil = torus_knot_seifert(2, 3)
    chain, sums = trefoil, []
    for _ in range(1200):
        chain = connected_sum(chain, trefoil)
        sums.append(chain)
    assert signature(chain) == -2402
    rows = chain.rows
    assert len(rows) == 2402
    assert rows[2400] == {2400: -1, 2401: 1} and rows[2401] == {2401: -1}
    assert all(s._rows is None for s in sums[:-1])  # only the outer sum keeps rows


def test_alexander_of_a_chain_of_1200_connected_sums():
    double = whitehead_double_seifert("+")
    chain = double
    for _ in range(1200):
        chain = connected_sum(chain, double)
    assert alexander_polynomial(chain).is_one()


def test_alexander_interpolation_checks_every_division(monkeypatch):
    # c_0 = 1 is given, and f(t)/t^m = 1 + c_1 u + ... + c_m u^m at u = (t - 1)^2/t
    cases = [
        # m = 2: f(0) = c_2 = 0 and f(2) = 1 give 1 + c_1/2 = 1/4, c_1 = -3/2
        (SeifertMatrix.from_rows(torus_knot_seifert(2, 5).rows), [0, 1]),
        # m = 3: f(0) = c_3 = 0, f(2) = 9 and f(-1) = -9 give 1 + c_1/2 + c_2/4
        # = 9/8 and 1 - 4 c_1 + 16 c_2 = 9, so c_1 = 0, an integer, and c_2 = 1/2
        (SeifertMatrix.from_rows(torus_knot_seifert(2, 7).rows), [0, 9, -9]),
    ]
    for v, values in cases:
        feed = iter(values)
        monkeypatch.setattr(exact, "det", lambda m: next(feed))
        with pytest.raises(ArithmeticError, match="not an integer polynomial"):
            alexander_polynomial(v)


@given(seifert_matrices())
def test_alexander_normalization_properties(v):
    delta = alexander_polynomial(v)
    assert evaluate(delta, 1) == 1
    assert delta == delta.reciprocal()
    sig = signature(v)
    assert sig % 2 == 0
    assert abs(sig) <= v.size


@given(seifert_matrices())
def test_fox_milnor_reads_the_determinant_like_evaluate(v):
    """fox_milnor takes |Delta(-1)| as an integer sum of +-c; evaluate, over
    Fractions, is the oracle."""
    delta = alexander_polynomial(v)
    at_minus_one = evaluate(delta, -1)
    assert at_minus_one.denominator == 1
    value = abs(at_minus_one.numerator)
    failure = fox_milnor(delta).failure
    if isqrt(value) ** 2 != value:
        assert failure.kind == "determinant" and failure.determinant == value
        assert failure.detail == f"|Delta(-1)| = {value} is not a perfect square"
    else:
        assert failure is None or failure.kind == "factorization"


def test_knot_from_spec_forms():
    assert knot_from_spec("trefoil").matrix.entries == TREFOIL.entries
    assert knot_from_spec({"torus": [2, 3]}).matrix.entries == TREFOIL.entries
    assert knot_from_spec({"twist": 1}).name == "twist(1)"
    assert knot_from_spec({"whitehead": "+"}).matrix.entries == ((-1, 1), (0, 0))
    custom = knot_from_spec({"name": "pet", "seifert": [[-1, 1], [0, -1]]})
    assert custom.name == "pet"
    assert knot_from_spec('{"torus": [2, 5]}').matrix.size == 4
    assert knot_from_spec("left-trefoil").matrix.entries == mirror(TREFOIL).entries


def test_knot_from_spec_errors():
    with pytest.raises(ValueError, match="unknown knot name"):
        knot_from_spec("granny")
    with pytest.raises(ValueError, match="unrecognized"):
        knot_from_spec({"cable": [2, 3]})
    with pytest.raises(ValueError, match="invalid knot JSON"):
        knot_from_spec("{broken")
    with pytest.raises(ValueError, match="invalid knot JSON: nested too deeply"):
        knot_from_spec('{"torus": ' + "[" * 50_000 + "]" * 50_000 + "}")


@pytest.mark.parametrize(
    "rows, message",
    [
        # an entry's type is checked before the matrix's shape
        ([[1, 2, 3], [0, True]], "knot spec field 'seifert[1][1]' must be an integer, got true"),
        ([[1, 2, 3], [0, 1]], "Seifert matrix must be square"),
        ([[-1, 1], [0]], "Seifert matrix must be square"),
        ([[-1, [1]], [0, -1]], "knot spec field 'seifert[0][1]' must be an integer, got [1]"),
        ([[-1.5, 1], [0, -1]], "knot spec field 'seifert[0][0]' must be an integer, got -1.5"),
        (3, "knot spec field 'seifert' must be an array of arrays of integers, got 3"),
        ([1, 2], "knot spec field 'seifert' must be an array of arrays of integers, got [1, 2]"),
    ],
)
def test_seifert_spec_errors(rows, message):
    with pytest.raises(ValueError) as exc:
        knot_from_spec({"seifert": rows})
    assert str(exc.value) == message


def test_knot_from_spec_nesting_near_the_recursion_limit():
    # the decoder accepts a little less depth than it takes to print the
    # value back in an error message; every depth gives a ValueError
    for depth in range(700, 1100):
        with pytest.raises(ValueError, match="knot JSON: nested too deeply|must be an integer"):
            knot_from_spec('{"seifert": [[' + "[" * depth + "]" * depth + "]]}")
