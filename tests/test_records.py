"""The immutable records of dehn4, and the two of the Legendrian test
oracle, are NamedTuples: frozen, compared and hashed by value, shown as
`Name(field=value, ...)`, and the three that check their fields check
them however they are built."""
from __future__ import annotations

import base64
import copy
import json
import pickle
from pathlib import Path

import pytest

from conftest import FrontData, HandleCheck
from dehn4.forms import EvenFormClass, LensWitness, SignatureCongruence
from dehn4.laurent import LaurentPoly
from dehn4.scenarios import (
    HypothesisFlag,
    Report,
    Scenario,
    TraceStep,
    Verdict,
    build_scenario,
    run_scenario,
)
from dehn4 import exact, seifert
from dehn4.seifert import (
    FoxMilnorFailure,
    FoxMilnorResult,
    Knot,
    SliceTag,
    SliceVerdict,
    alexander_polynomial,
    concordance_inverse,
    connected_sum,
    mirror,
    parallel_cable,
    reverse,
    signature,
    torus_knot_seifert,
    twist_knot_seifert,
    unknot,
    whitehead_double_seifert,
)


def _records():
    """One record of each of the 13 kinds, 11 of dehn4 and the two of the
    Legendrian oracle in conftest; each call builds new objects."""
    trefoil = Knot("trefoil", torus_knot_seifert(2, 3))
    flag = HypothesisFlag("rho-y1", True, "classical")
    scenario = Scenario("torus-solid", n=1, knot_j=trefoil, knot_k=trefoil, flags=(flag,))
    failure = FoxMilnorFailure("determinant", "|Delta(-1)| = 3 is not a perfect square", 3)
    fox_milnor = FoxMilnorResult(False, failure=failure)
    return [
        EvenFormClass(1, 2),
        SignatureCongruence(8),
        LensWitness(((5, 1),), (4,), (4,)),
        FrontData(writhe=1, down_cusps=1, up_cusps=1),
        HandleCheck("handle-1", -1, 0),
        flag,
        TraceStep("zero_classes", {"form": "x^2 - x*y"}, {"classes": [[0, 1]]}),
        Report(scenario, (), Verdict.OBSTRUCTED, citations=("Fox-Milnor",)),
        scenario,
        failure,
        fox_milnor,
        SliceVerdict(SliceTag.OBSTRUCTED_BY_FOX_MILNOR, signature=0, fox_milnor=fox_milnor),
        trefoil,
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def test_there_are_thirteen_records_of_distinct_kinds():
    assert len(set(IDS)) == len(IDS) == 13


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_no_field_can_be_assigned_or_added(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_names_the_record_and_each_field(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=IDS)
def test_records_built_alike_are_equal_and_hash_equal(index):
    a, b = _records()[index], _records()[index]
    assert a is not b and a == b and not a != b
    if isinstance(a, TraceStep):  # its inputs are a dict, so it has no hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record", RECORDS)
def test_copies_and_pickles_are_equal_records_of_the_same_kind(record):
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record


def _reports_with_fixed_steps():
    """Reports whose traces hold fixed steps, shared with every report at
    their framing: the boundary head of each torus scenario, as
    "companion.*" in twist-extension, and the Stein steps."""
    return [
        run_scenario(build_scenario(name))
        for name in ("torus-solid", "torus-top-vs-smooth", "twist-extension")
    ]


@pytest.mark.parametrize("report", _reports_with_fixed_steps(), ids=lambda r: r.scenario.name)
def test_fixed_steps_copy_pickle_and_show_as_plain_trace_steps(report):
    fixed = [t for t in report.trace if type(t) is not TraceStep]
    assert len(fixed) >= 5 and all(isinstance(t, TraceStep) for t in fixed)
    shallow = copy.copy(report)
    assert shallow == report and shallow.trace is report.trace
    data = pickle.dumps(report)
    assert b"_FixedStep" not in data
    for other in (copy.deepcopy(report), pickle.loads(data)):
        assert type(other) is Report and other == report
        assert all(type(t) is TraceStep for t in other.trace)
    deep = copy.deepcopy(report)
    for mine, step in zip(deep.trace, report.trace):
        if step.inputs:
            assert mine.inputs is not step.inputs
        if isinstance(step.output, (dict, list)):
            assert mine.output is not step.output
    for step in fixed:
        assert type(copy.copy(step)) is TraceStep and copy.copy(step) == step
        fields = ", ".join(f"{f}={getattr(step, f)!r}" for f in step._fields)
        assert repr(step) == f"TraceStep({fields})"
        with pytest.raises(AttributeError):
            step.operation = "x"
        with pytest.raises(AttributeError):
            step.extra = None
    assert "_FixedStep" not in repr(report) and repr(report) == repr(deep)


def test_a_seifert_matrix_copies_as_itself_and_unpickles_through_from_rows(monkeypatch):
    v = seifert.SeifertMatrix(mirror(torus_knot_seifert(3, 4)).entries)  # a checked leaf
    assert copy.copy(v) is v and copy.deepcopy(v) is v
    assert copy.deepcopy(Knot("k", v)).matrix is v
    data = pickle.dumps(v)
    w = pickle.loads(data)
    assert w == v and w is not v and signature(w) == signature(v) == 6
    # the pickle holds rows, not an origin: it re-enters at the trust boundary
    monkeypatch.setattr(exact, "det", lambda m: 0)
    with pytest.raises(ValueError, match=r"det\(V - V\^T\) must equal 1"):
        pickle.loads(data)


def test_a_torus_leaf_unpickles_from_p_and_q_and_keeps_its_closed_forms(monkeypatch):
    leaf = torus_knot_seifert(40, 41)
    data = pickle.dumps(leaf)
    assert len(data) < 200  # (p, q), not 1560 rows
    calls = []
    for name in ("det", "signature_symmetric"):
        kernel = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda m, kernel=kernel, name=name: calls.append(name) or kernel(m)
        )
    w = pickle.loads(data)
    assert calls == []
    assert signature(w) == signature(leaf) == -800
    assert calls == []
    assert w == leaf and w is not leaf and hash(w) == hash(leaf)
    # torus_knot_seifert checks p and q again
    bad = pickle.dumps(seifert.SeifertMatrix._from_origin(("torus", 4, 6), 15))
    with pytest.raises(ValueError, match=r"must be coprime, got \(4, 6\)"):
        pickle.loads(bad)


@pytest.mark.parametrize(
    "build, sigma, delta",
    [
        (lambda: twist_knot_seifert(2), 0, {-1: -2, 0: 5, 1: -2}),
        (lambda: twist_knot_seifert(-3), -2, {-1: 3, 0: -5, 1: 3}),
        (lambda: twist_knot_seifert(0), 0, {0: 1}),
        (lambda: whitehead_double_seifert("+"), 0, {0: 1}),
        (lambda: whitehead_double_seifert("-"), 0, {0: 1}),
    ],
    ids=["twist-2", "twist-minus-3", "twist-0", "whitehead-plus", "whitehead-minus"],
)
def test_a_genus_one_table_leaf_unpickles_through_its_builder(monkeypatch, build, sigma, delta):
    """A twist knot or Whitehead double pickles as its builder and its
    parameter, so it keeps its closed forms and runs no kernel."""
    v = build()
    data = pickle.dumps(v)
    calls = []
    for name in ("det", "signature_symmetric"):
        kernel = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda m, kernel=kernel, name=name: calls.append(name) or kernel(m)
        )
    w = pickle.loads(data)
    assert w is not v and w._origin == v._origin and w._origin[0] in ("twist", "whitehead")
    assert signature(w) == sigma and alexander_polynomial(w) == LaurentPoly(delta)
    assert calls == []
    assert w == v and hash(w) == hash(v)


def test_the_unknot_unpickles_as_its_one_instance():
    assert pickle.loads(pickle.dumps(unknot())) is unknot()
    assert copy.deepcopy(Knot("unknot", unknot())).matrix is unknot()


def _sum_chain(count, nest_right):
    v = torus_knot_seifert(2, 3)
    for _ in range(count - 1):
        w = torus_knot_seifert(2, 3)
        v = connected_sum(w, v) if nest_right else connected_sum(v, w)
    return v


def _record(v):
    """v's origin with every parent replaced by its own record, and a
    checked leaf by "leaf"."""
    match v._origin:
        case None:
            return "leaf"
        case ("sum", parts):
            return ("sum", tuple(map(_record, parts)))
        case (kind, *fields):
            return (kind, *(_record(x) if isinstance(x, seifert.SeifertMatrix) else x for x in fields))


@pytest.mark.parametrize(
    "build, sigma",
    [
        (lambda: parallel_cable(torus_knot_seifert(12, 13), 2), 0),
        (lambda: parallel_cable(torus_knot_seifert(12, 13), -3), -72),
        (lambda: mirror(torus_knot_seifert(20, 21)), 200),
        (lambda: reverse(torus_knot_seifert(3, 7)), -8),
        (lambda: concordance_inverse(reverse(torus_knot_seifert(5, 7))), 16),
        (lambda: _sum_chain(1200, nest_right=False), -2400),
        (lambda: _sum_chain(1200, nest_right=True), -2400),
        (
            lambda: connected_sum(
                _sum_chain(3, nest_right=False),
                concordance_inverse(connected_sum(_sum_chain(2, nest_right=True), unknot())),
            ),
            -2,
        ),
    ],
    ids=[
        "cable-2", "cable-minus-3", "mirror", "reverse", "inverse-of-reverse",
        "sum-left", "sum-right", "sum-of-sums",
    ],
)
def test_a_derived_matrix_unpickles_through_its_builder(monkeypatch, build, sigma):
    """A derived matrix pickles as its builder replayed on its parents, so
    it keeps its record, the signed origins one level deep and the sums
    flat, and reads its invariants from the parents' closed forms."""
    v = build()
    data = pickle.dumps(v)
    calls = []
    for name in ("det", "signature_symmetric"):
        kernel = getattr(exact, name)
        monkeypatch.setattr(
            exact, name, lambda m, kernel=kernel, name=name: calls.append(name) or kernel(m)
        )
    w = pickle.loads(data)
    assert calls == []
    assert w is not v and w.size == v.size and _record(w) == _record(v)
    assert signature(w) == signature(v) == sigma
    assert calls == []
    assert w == v and hash(w) == hash(v)


# pickles written by the code whose records were ("mirror", W), ("reverse", W),
# ("inverse", W) and the nested ("sum", W, X), with the rows and signature
# that code read from them
OLD_PICKLES = json.loads((Path(__file__).parent / "data" / "seifert_pickles.json").read_text())


@pytest.mark.parametrize("name", OLD_PICKLES)
def test_pickles_of_the_earlier_records_still_load(name):
    case = OLD_PICKLES[name]
    v = pickle.loads(base64.b64decode(case["pickle"]))
    assert [list(row) for row in v.entries] == case["entries"]
    assert signature(v) == case["signature"]


# pickles of the Fox-Milnor records written by the code that kept them in
# dehn4.seifert, under whose name they load, with the fields it gave them
OLD_FOX_MILNOR_PICKLES = json.loads(
    (Path(__file__).parent / "data" / "foxmilnor_pickles.json").read_text()
)


def _fox_milnor_result(fields):
    failure = fields["failure"]
    return FoxMilnorResult(
        fields["passed"],
        None if fields["factor"] is None else LaurentPoly(map(tuple, fields["factor"])),
        None if failure is None else FoxMilnorFailure(*failure),
    )


@pytest.mark.parametrize("name", OLD_FOX_MILNOR_PICKLES)
def test_pickles_of_the_earlier_fox_milnor_records_still_load_equal(name):
    case = OLD_FOX_MILNOR_PICKLES[name]
    record = pickle.loads(base64.b64decode(case["pickle"]))
    if "verdict" in case:
        fields = case["verdict"]
        expected = SliceVerdict(
            SliceTag(fields["tag"]),
            fields["signature"],
            _fox_milnor_result(fields["fox_milnor"]),
            fields["note"],
        )
    else:
        expected = _fox_milnor_result(case["fox_milnor"])
    assert type(record) is type(expected) and record == expected


def test_records_that_differ_in_one_field_differ():
    assert EvenFormClass(1, 2) != EvenFormClass(1, 3)
    assert HypothesisFlag("f", True, "cited") != HypothesisFlag("f", False, "cited")
    assert Knot("trefoil", torus_knot_seifert(2, 3)) != Knot("trefoil", torus_knot_seifert(2, 5))


def test_defaults_and_str_are_kept():
    assert SignatureCongruence(8).modulus == 16
    assert str(SignatureCongruence(8)) == "sigma == 8 (mod 16)"
    assert str(EvenFormClass(-1, 2)) == "-E8 + 2*H"
    assert (EvenFormClass(-1, 2).rank, EvenFormClass(-1, 2).signature) == (12, -8)
    assert Scenario("sphere-lens").flags == () and Scenario("sphere-lens").p is None
    assert FoxMilnorResult(True) == FoxMilnorResult(True, None, None)
    assert SliceVerdict(SliceTag.UNKNOWN).note is None
    assert HandleCheck("h", -1, 0).satisfied and not HandleCheck("h", 0, 0).satisfied


def test_records_compare_equal_to_plain_tuples_and_unpack():
    assert EvenFormClass(1, 0) == (1, 0)
    e8, h = EvenFormClass(1, 2)
    assert (e8, h) == (1, 2)


CHECKS = [
    (lambda: HypothesisFlag("rho-y1", True, ""), "hypothesis flag 'rho-y1' is missing its provenance"),
    (
        lambda: HypothesisFlag("rho-y1", True, "line\nbreak"),
        "hypothesis flag 'rho-y1': provenance must not contain line breaks or control "
        "characters, got 'line\\nbreak'",
    ),
    (lambda: EvenFormClass(1, -1), "h_count must be nonnegative"),
    (lambda: FrontData(1.5, 1, 1), "writhe must be an integer, got 1.5"),
    (lambda: FrontData(0, True, 1), "down_cusps must be an integer, got True"),
    (lambda: FrontData(0, 1, "1"), "up_cusps must be an integer, got '1'"),
    (lambda: FrontData(0, -1, 3), "cusp counts must be nonnegative"),
    (lambda: FrontData(0, 1, 2), "a front has an even number (>= 2) of cusps, got 3"),
    (lambda: FrontData(0, 0, 0), "a front has an even number (>= 2) of cusps, got 0"),
]


@pytest.mark.parametrize("build, message", CHECKS)
def test_checked_records_refuse_bad_fields_with_their_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "record, change, message",
    [
        (HypothesisFlag("f", True, "cited"), {"provenance": ""}, "missing its provenance"),
        (EvenFormClass(1, 2), {"h_count": -2}, "h_count must be nonnegative"),
        (FrontData(1, 1, 1), {"up_cusps": 2}, "even number"),
        (FrontData(1, 1, 1), {"writhe": 1.0}, "writhe must be an integer"),
    ],
)
def test_replace_and_make_check_like_the_constructor(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record and type(record._replace()) is type(record)
