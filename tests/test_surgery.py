import pytest
from hypothesis import given
import hypothesis.strategies as st

from dehn4.scenarios import standard_torus_presentation
from dehn4.surgery import (
    ComponentKind,
    ComponentRecord,
    CurveSpec,
    SurgeryPresentation,
    boundary_linking_matrix,
    serialize_presentation,
)


def framed(cid, framing):
    return ComponentRecord(cid, ComponentKind.FRAMED, framing)


def dotted(cid):
    return ComponentRecord(cid, ComponentKind.DOTTED)


def test_two_component_presentation_data():
    pres = standard_torus_presentation(3)
    assert [c.id for c in pres.components] == ["L1", "L2"]
    assert [c.kind for c in pres.components] == [ComponentKind.DOTTED, ComponentKind.FRAMED]
    assert pres.components[1].framing == 3
    assert pres.linking("L1", "L2") == 1
    assert pres.linking("L2", "L1") == 1
    assert pres.alpha == CurveSpec("alpha", (1, 0), 0)
    assert pres.beta == CurveSpec("beta", (0, 1), 0)
    assert pres.cross_pushoff == (0, 1)


@pytest.mark.parametrize("n", range(-3, 4))
def test_standard_torus_presentation_trace_text(n):
    # the text the torus scenarios print in their parse_presentation trace step
    assert serialize_presentation(standard_torus_presentation(n)) == (
        "component L1 dotted\n"
        f"component L2 framed {n}\n"
        "lk L1 L2 1\n"
        "curve alpha lk ( 1 0 ) self 0\n"
        "curve beta lk ( 0 1 ) self 0\n"
        "pushoff alpha beta 0 1\n"
    )


def test_empty_presentation_is_s3():
    pres = SurgeryPresentation()
    assert pres.components == ()
    assert boundary_linking_matrix(pres) == ()
    assert serialize_presentation(pres) == ""


def test_explicit_zero_linking_canonicalizes_away():
    pres = SurgeryPresentation((framed("A", 1), framed("B", 2)), (("A", "B", 0),))
    assert serialize_presentation(pres) == "component A framed 1\ncomponent B framed 2\n"
    assert pres.linking("A", "B") == 0


def test_duplicate_symmetric_linking_is_fine():
    pres = SurgeryPresentation((dotted("A"), framed("B", 0)), (("A", "B", 1), ("B", "A", 1)))
    assert pres.linking("A", "B") == 1
    assert boundary_linking_matrix(pres) == ((0, 1), (1, 0))
    assert serialize_presentation(pres).count("lk A B 1") == 1


def test_boundary_linking_matrix_paper_shape():
    assert boundary_linking_matrix(standard_torus_presentation(3)) == ((0, 1), (1, 3))


def test_boundary_linking_matrix_single_zero_framed_unknot():
    pres = SurgeryPresentation((framed("U", 0),))
    assert boundary_linking_matrix(pres) == ((0,),)


def test_boundary_linking_matrix_split_link_is_diagonal():
    pres = SurgeryPresentation((framed("A", 2), framed("B", -1), framed("C", 7)))
    assert boundary_linking_matrix(pres) == ((2, 0, 0), (0, -1, 0), (0, 0, 7))


@given(
    framings=st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    seed=st.randoms(use_true_random=False),
)
def test_permuting_components_conjugates_the_matrix(framings, seed):
    names = [f"K{i}" for i in range(len(framings))]
    linkings = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            pair = [names[i], names[j]]
            seed.shuffle(pair)  # stored in either order
            linkings.append((*pair, seed.randint(-3, 3)))
    perm = list(range(len(names)))
    seed.shuffle(perm)

    def matrix(order):
        components = tuple(framed(names[i], framings[i]) for i in order)
        return boundary_linking_matrix(SurgeryPresentation(components, tuple(linkings)))

    b1 = matrix(range(len(names)))
    b2 = matrix(perm)
    for a in range(len(names)):
        for b in range(len(names)):
            assert b2[a][b] == b1[perm[a]][perm[b]]
            assert b1[a][b] == b1[b][a]


def test_dotted_components_contribute_zero_diagonal():
    pres = SurgeryPresentation(
        (dotted("A"), dotted("B"), framed("C", -4)), (("C", "A", 2),)
    )
    assert boundary_linking_matrix(pres) == ((0, 0, 2), (0, 0, 0), (2, 0, -4))
