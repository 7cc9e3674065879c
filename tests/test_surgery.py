import pytest
from hypothesis import given
import hypothesis.strategies as st

from dehn4.surgery import (
    ComponentKind,
    ComponentRecord,
    CurveSpec,
    PresentationError,
    SurgeryPresentation,
    boundary_linking_matrix,
    parse_presentation,
    serialize_presentation,
    validate,
)

PAPER_TEXT = """\
# two-component presentation with the torus basis curves
component L1 dotted
component L2 framed 3
lk L1 L2 1
curve alpha lk ( 1 0 ) self 0
curve beta lk ( 0 1 ) self 0
pushoff alpha beta 0 1
"""


def test_parse_two_component_presentation():
    pres = parse_presentation(PAPER_TEXT)
    assert pres.component_ids == ("L1", "L2")
    assert pres.component("L1").kind is ComponentKind.DOTTED
    assert pres.component("L2").framing == 3
    assert pres.linking("L1", "L2") == 1
    assert pres.linking("L2", "L1") == 1
    alpha = pres.curve("alpha")
    assert alpha.component_linkings == (1, 0)
    assert alpha.cross_pair("beta") == (0, 1)
    assert pres.curve("beta").cross_pair("alpha") == (1, 0)
    assert validate(pres) == []


def test_empty_presentation_is_s3():
    pres = parse_presentation("# nothing but comments\n")
    assert pres.components == ()
    assert boundary_linking_matrix(pres) == ()
    assert validate(pres) == []


def test_round_trip_is_byte_identical_after_canonicalization():
    pres = parse_presentation(PAPER_TEXT)
    canon = serialize_presentation(pres)
    again = parse_presentation(canon)
    assert serialize_presentation(again) == canon
    assert again == pres


def test_explicit_zero_linking_canonicalizes_away():
    text = "component A framed 1\ncomponent B framed 2\nlk A B 0\n"
    pres = parse_presentation(text)
    assert "lk" not in serialize_presentation(pres)
    assert pres.linking("A", "B") == 0


def test_framing_on_dotted_component_is_an_error():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("component L1 dotted 4\n")
    assert exc.value.line == 1


def test_duplicate_component_id_is_an_error():
    with pytest.raises(PresentationError, match="duplicate"):
        parse_presentation("component A dotted\ncomponent A framed 2\n")


def test_asymmetric_linking_declaration_is_an_error():
    text = "component A dotted\ncomponent B framed 0\nlk A B 1\nlk B A 2\n"
    with pytest.raises(PresentationError, match="asymmetric"):
        parse_presentation(text)


def test_duplicate_symmetric_linking_is_fine():
    text = "component A dotted\ncomponent B framed 0\nlk A B 1\nlk B A 1\n"
    assert parse_presentation(text).linking("A", "B") == 1


def test_syntax_error_reports_line_and_column():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("component A dotted\nlk A B x\n")
    assert exc.value.line == 2
    assert exc.value.column == 8


def test_unknown_declaration_is_an_error():
    with pytest.raises(PresentationError, match="unknown declaration"):
        parse_presentation("handle A 3\n")


def test_linking_with_unknown_component_is_an_error():
    with pytest.raises(PresentationError, match="unknown component"):
        parse_presentation("component A dotted\nlk A B 1\n")


def test_curve_vector_length_checked_at_parse_time():
    text = "component A dotted\ncomponent B framed 0\ncurve c lk ( 1 ) self 0\n"
    with pytest.raises(PresentationError, match="component linkings"):
        parse_presentation(text)


def test_boundary_linking_matrix_paper_shape():
    pres = parse_presentation(PAPER_TEXT)
    assert boundary_linking_matrix(pres) == ((0, 1), (1, 3))


def test_boundary_linking_matrix_single_zero_framed_unknot():
    pres = parse_presentation("component U framed 0\n")
    assert boundary_linking_matrix(pres) == ((0,),)


def test_boundary_linking_matrix_split_link_is_diagonal():
    text = "component A framed 2\ncomponent B framed -1\ncomponent C framed 7\n"
    pres = parse_presentation(text)
    assert boundary_linking_matrix(pres) == ((2, 0, 0), (0, -1, 0), (0, 0, 7))


def test_validate_reports_duplicate_ids_and_bad_vectors():
    pres = SurgeryPresentation(
        components=(
            ComponentRecord("A", ComponentKind.DOTTED),
            ComponentRecord("A", ComponentKind.FRAMED, 1),
        ),
        curves=(CurveSpec("c", (1,)), ),
    )
    problems = validate(pres)
    assert any("duplicate" in p for p in problems)
    assert any("linking vector" in p for p in problems)


def test_validate_reports_dotted_framing_and_missing_framing():
    pres = SurgeryPresentation(
        components=(
            ComponentRecord("A", ComponentKind.DOTTED, framing=2),
            ComponentRecord("B", ComponentKind.FRAMED, framing=None),
        ),
    )
    problems = validate(pres)
    assert any("carries a framing" in p for p in problems)
    assert any("missing its framing" in p for p in problems)


@given(
    framings=st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    seed=st.randoms(use_true_random=False),
)
def test_permuting_components_conjugates_the_matrix(framings, seed):
    names = [f"K{i}" for i in range(len(framings))]
    lk_lines = []
    values = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            values[(i, j)] = seed.randint(-3, 3)
            lk_lines.append(f"lk {names[i]} {names[j]} {values[(i, j)]}")
    perm = list(range(len(names)))
    seed.shuffle(perm)

    def text(order):
        lines = [f"component {names[i]} framed {framings[i]}" for i in order]
        return "\n".join(lines + lk_lines)

    b1 = boundary_linking_matrix(parse_presentation(text(range(len(names)))))
    b2 = boundary_linking_matrix(parse_presentation(text(perm)))
    for a in range(len(names)):
        for b in range(len(names)):
            assert b2[a][b] == b1[perm[a]][perm[b]]
            assert b1[a][b] == b1[b][a]


def test_dotted_components_contribute_zero_diagonal():
    text = "component A dotted\ncomponent B dotted\ncomponent C framed -4\nlk A C 2\n"
    b = boundary_linking_matrix(parse_presentation(text))
    assert b == ((0, 0, 2), (0, 0, 0), (2, 0, -4))


@given(seifert_text=st.integers(-9, 9))
def test_serializer_parser_idempotent_on_framings(seifert_text):
    text = f"component X framed {seifert_text}\ncomponent Y dotted\nlk X Y 2\n"
    pres = parse_presentation(text)
    canon = serialize_presentation(pres)
    assert serialize_presentation(parse_presentation(canon)) == canon


def test_torus_basis_requires_pushoff_data():
    pres = parse_presentation(
        "component A dotted\n"
        "curve u lk ( 0 ) self 0\n"
        "curve v lk ( 1 ) self 0\n"
    )
    basis = pres.torus_basis("u", "v")
    with pytest.raises(ValueError, match="pushoff"):
        basis.cross_data()
