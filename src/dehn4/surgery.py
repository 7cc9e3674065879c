"""Surgery presentations of 3-manifolds and curves on their boundary tori.

The data model takes combinatorial linking data as given (nothing is
computed from diagrams): components are dotted 1-handles or framed
2-handles with pairwise linking numbers, and named curves carry their
linking vector with the components plus pushoff self/cross linkings.

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
    pushoff; cross_pushoff_linkings maps another curve's id to the pair
    (lk(this, other+), lk(other, this+)).
    """

    id: str
    component_linkings: tuple[int, ...]
    pushoff_self_linking: int = 0
    cross_pushoff_linkings: tuple[tuple[str, tuple[int, int]], ...] = ()

    def cross_pair(self, other_id: str) -> tuple[int, int] | None:
        for name, pair in self.cross_pushoff_linkings:
            if name == other_id:
                return pair
        return None


@dataclass(frozen=True)
class SurgeryPresentation:
    """Framed/dotted link components with symmetric pairwise linkings.

    Linkings are triples (a, b, value), at most one per unordered pair; a
    pair is looked up in either order and a missing pair links zero.
    Construction checks nothing.
    """

    components: tuple[ComponentRecord, ...] = ()
    linkings: tuple[tuple[str, str, int], ...] = ()
    curves: tuple[CurveSpec, ...] = ()

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def curve(self, cid: str) -> CurveSpec:
        for c in self.curves:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def linking(self, a: str, b: str) -> int:
        for x, y, v in self.linkings:
            if (x, y) == (a, b) or (x, y) == (b, a):
                return v
        return 0

    def torus_basis(self, alpha_id: str, beta_id: str) -> "TorusCurveBasis":
        return TorusCurveBasis(self.curve(alpha_id), self.curve(beta_id))


@dataclass(frozen=True)
class TorusCurveBasis:
    """Ordered basis (alpha, beta) of curves on one boundary torus."""

    alpha: CurveSpec
    beta: CurveSpec

    def cross_data(self) -> tuple[int, int]:
        """(lk(alpha, beta+), lk(beta, alpha+)); raises if not recorded."""
        pair = self.alpha.cross_pair(self.beta.id)
        if pair is not None:
            return pair
        pair = self.beta.cross_pair(self.alpha.id)
        if pair is not None:
            return (pair[1], pair[0])
        raise ValueError(
            f"no pushoff data recorded between curves "
            f"{self.alpha.id!r} and {self.beta.id!r}"
        )


def boundary_linking_matrix(pres: SurgeryPresentation) -> IntMatrix:
    """Symmetric matrix of framings (dots count as 0) and pairwise linkings."""
    ids = pres.component_ids
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
    ids = pres.component_ids
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            v = pres.linking(ids[i], ids[j])
            if v != 0:
                lines.append(f"lk {ids[i]} {ids[j]} {v}")
    for curve in pres.curves:
        vec = " ".join(str(x) for x in curve.component_linkings)
        lines.append(f"curve {curve.id} lk ( {vec} ) self {curve.pushoff_self_linking}")
    order = {c.id: i for i, c in enumerate(pres.curves)}
    emitted = set()
    for curve in pres.curves:
        for other, (u, v) in curve.cross_pushoff_linkings:
            key = frozenset((curve.id, other))
            if key in emitted or order.get(other, -1) < order[curve.id]:
                continue
            emitted.add(key)
            lines.append(f"pushoff {curve.id} {other} {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")
