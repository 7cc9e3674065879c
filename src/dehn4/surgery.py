"""Surgery presentations of 3-manifolds and curves on their boundary tori.

The data model takes combinatorial linking data as given (nothing is
computed from diagrams): components are dotted 1-handles or framed
2-handles with pairwise linking numbers, and the basis curves alpha, beta
of one boundary torus carry their linking vectors with the components,
their pushoff self-linkings and the pair of cross pushoff linkings.

serialize_presentation writes a presentation as canonical text
(declaration order, zero linkings omitted) for report traces.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exact import IntMatrix, freeze


class ComponentKind(Enum):
    DOTTED = "dotted"
    FRAMED = "framed"


@dataclass(frozen=True)
class ComponentRecord:
    id: str
    kind: ComponentKind
    framing: int | None = None


@dataclass(frozen=True)
class CurveSpec:
    """A curve in the boundary, recorded through its S^3 linking data.

    component_linkings[i] is the linking number with the i-th surgery
    component; pushoff_self_linking is lk(curve, curve+) for the tangential
    pushoff.
    """

    id: str
    component_linkings: tuple[int, ...]
    pushoff_self_linking: int = 0


@dataclass(frozen=True)
class SurgeryPresentation:
    """Framed/dotted link components with symmetric pairwise linkings.

    Linkings are triples (a, b, value), at most one per unordered pair; a
    pair is looked up in either order and a missing pair links zero.
    alpha and beta, both given or both None, are the ordered basis of one
    boundary torus, and cross_pushoff is (lk(alpha, beta+), lk(beta, alpha+)).
    Construction checks nothing.
    """

    components: tuple[ComponentRecord, ...] = ()
    linkings: tuple[tuple[str, str, int], ...] = ()
    alpha: CurveSpec | None = None
    beta: CurveSpec | None = None
    cross_pushoff: tuple[int, int] = (0, 0)

    def linking(self, a: str, b: str) -> int:
        for x, y, v in self.linkings:
            if (x, y) == (a, b) or (x, y) == (b, a):
                return v
        return 0


def boundary_linking_matrix(pres: SurgeryPresentation) -> IntMatrix:
    """Symmetric matrix of framings (dots count as 0) and pairwise linkings."""
    ids = [c.id for c in pres.components]
    n = len(ids)
    b = [[0] * n for _ in range(n)]
    for i, comp in enumerate(pres.components):
        b[i][i] = comp.framing if comp.kind is ComponentKind.FRAMED else 0
    for i in range(n):
        for j in range(i + 1, n):
            v = pres.linking(ids[i], ids[j])
            b[i][j] = b[j][i] = v
    return freeze(b)


def serialize_presentation(pres: SurgeryPresentation) -> str:
    """Canonical text form: declaration order, zero linkings omitted."""
    lines = []
    for comp in pres.components:
        if comp.kind is ComponentKind.DOTTED:
            lines.append(f"component {comp.id} dotted")
        else:
            lines.append(f"component {comp.id} framed {comp.framing}")
    ids = [c.id for c in pres.components]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            v = pres.linking(ids[i], ids[j])
            if v != 0:
                lines.append(f"lk {ids[i]} {ids[j]} {v}")
    if pres.alpha is not None:
        for curve in (pres.alpha, pres.beta):
            vec = " ".join(str(x) for x in curve.component_linkings)
            lines.append(f"curve {curve.id} lk ( {vec} ) self {curve.pushoff_self_linking}")
        u, v = pres.cross_pushoff
        lines.append(f"pushoff {pres.alpha.id} {pres.beta.id} {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")
