"""The JSON writer of dehn4.report against its oracle, json.dumps with
indent=2 and sort_keys=True."""
import json
from fractions import Fraction

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

from conftest import SCHEMA, read_rows, seifert_matrices
from dehn4.report import json_text, render_json
from dehn4.scenarios import Report, Verdict, build_scenario
from dehn4.seifert import Knot, mirror, torus_knot_seifert


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII and astral-plane text
awkward_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\r é€ 😀aZ0'))
texts = awkward_text | st.text()
ints = st.integers() | st.integers(-(10**300), 10**300)
scalars = st.none() | st.booleans() | ints | texts
# lists of one scalar type take the writer's one-join path; bools among ints do not
flat_lists = st.lists(ints) | st.lists(texts) | st.lists(st.booleans()) | st.lists(ints | st.booleans())
values = st.recursive(
    scalars | flat_lists,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400)
@given(values)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"b": [], "a": {}, "c": [[]]},
        [1, True, False, None, 0],
        [True, False],
        [None, None],
        {"z": 1, "a": 2, "m": {"y": [-(10**60), 10**60], "x": "é\"\x01"}},
    ],
    ids=["empty-dict", "empty-list", "nested-empties", "bools-among-ints", "bools", "nulls", "unsorted"],
)
def test_json_text_matches_json_dumps_on_edge_cases(value):
    assert json_text(value) == oracle(value)


@pytest.mark.parametrize(
    "value, kind",
    [
        (1.5, "float"),
        ((1, 2), "tuple"),
        (Fraction(1, 2), "Fraction"),
        ({1: "one"}, "int"),
        ({"a": [1, 2, 3.0]}, "float"),
        ([[1], (2,)], "tuple"),
        ({"a": {"b": Fraction(3)}}, "Fraction"),
        ([0.0], "float"),
    ],
    ids=["float", "tuple", "fraction", "int-key", "float-in-list", "tuple-in-list", "nested-fraction", "float-list"],
)
def test_json_text_refuses_other_types(value, kind):
    with pytest.raises(TypeError, match=rf"\b{kind}\b"):
        json_text(value)


@given(seifert_matrices(max_genus=4) | st.builds(torus_knot_seifert, st.integers(2, 6), st.just(7)))
def test_json_seifert_rows_read_back_to_the_matrix(v):
    # J is a checked leaf or a torus knot, K its mirror, a derived matrix
    knots = {"knot_j": v, "knot_k": mirror(v)}
    scenario = build_scenario("torus-solid", **{key: Knot(key, m) for key, m in knots.items()})
    payload = json.loads(render_json(Report(scenario, (), Verdict.INCONCLUSIVE)))
    jsonschema.validate(payload, SCHEMA)
    written = payload["scenario"]["knots"]
    for key, m in knots.items():
        assert read_rows(written[key]["seifert"]) == m
