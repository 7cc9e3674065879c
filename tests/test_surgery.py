"""The surgery presentation of the torus scenarios, as their reports print it
in the `parse_presentation` and `boundary_linking_matrix` trace steps: a
dotted circle L1 and an n-framed circle L2 linking it once."""
import pytest

from conftest import dense_det, first_homology
from dehn4.scenarios import build_scenario, run_scenario

TORUS_SCENARIOS = ("torus-solid", "torus-top-vs-smooth")


def torus_steps(name, n):
    """The trace steps of a default `name` report at framing n, by operation."""
    return {t.operation: t for t in run_scenario(build_scenario(name, n=n)).trace}


def torus_presentation(name, n):
    """The presentation text and B that a `name` report at framing n prints."""
    steps = torus_steps(name, n)
    assert steps["parse_presentation"].inputs == {"n": n}
    assert steps["boundary_linking_matrix"].inputs == {}
    text = steps["parse_presentation"].output["text"]
    return text, tuple(map(tuple, steps["boundary_linking_matrix"].output))


def test_two_component_presentation_data():
    # the matrix read back from the text (a dotted component counts as
    # framing 0) is the matrix printed with it
    for name in TORUS_SCENARIOS:
        for n in range(-50, 51):
            text, b = torus_presentation(name, n)
            framing, lk = {}, {}
            for words in map(str.split, text.splitlines()):
                if words[0] == "component":
                    framing[words[1]] = 0 if words[2] == "dotted" else int(words[3])
                elif words[0] == "lk":
                    lk[words[1], words[2]] = int(words[3])
            assert b == ((framing["L1"], lk["L1", "L2"]), (lk["L1", "L2"], framing["L2"]))


@pytest.mark.parametrize("n", range(-3, 4))
def test_standard_torus_presentation_trace_text(n):
    # the text the torus scenarios print in their parse_presentation trace step
    for name in TORUS_SCENARIOS:
        assert torus_presentation(name, n)[0] == (
            "component L1 dotted\n"
            f"component L2 framed {n}\n"
            "lk L1 L2 1\n"
            "curve alpha lk ( 1 0 ) self 0\n"
            "curve beta lk ( 0 1 ) self 0\n"
            "pushoff alpha beta 0 1\n"
        )


def test_boundary_linking_matrix_paper_shape():
    for name in TORUS_SCENARIOS:
        for n in range(-50, 51):
            b = torus_presentation(name, n)[1]
            assert b == ((0, 1), (1, n))
            assert dense_det(b) == -1
            assert first_homology(b).is_homology_sphere
