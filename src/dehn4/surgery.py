"""Surgery presentations of 3-manifolds and curves on their boundary tori.

The data model trusts user-supplied combinatorial linking data (nothing is
computed from diagrams): components are dotted 1-handles or framed
2-handles with pairwise linking numbers, and named curves carry their
linking vector with the components plus pushoff self/cross linkings.

A line-oriented text format is provided; the serializer emits a
canonical form, and parse/serialize round-trips are byte-identical after
canonicalization.
"""
from __future__ import annotations

import re
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


class PresentationError(ValueError):
    """Invalid presentation text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SurgeryPresentation:
    """Framed/dotted link components with symmetric pairwise linkings.

    Construction is permissive; use validate() for the invariant checklist
    (the parser refuses invalid text outright).  Linkings are stored once
    per unordered pair, zero linkings are dropped (canonical form).
    """

    components: tuple[ComponentRecord, ...] = ()
    linkings: tuple[tuple[str, str, int], ...] = ()
    curves: tuple[CurveSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "linkings", self._canonical_linkings(self.linkings))

    def _canonical_linkings(self, raw):
        order = {c.id: i for i, c in enumerate(self.components)}
        canon = {}
        for a, b, v in raw:
            key = (a, b)
            if a in order and b in order and order[a] > order[b]:
                key = (b, a)
            canon[key] = v
        items = [(a, b, v) for (a, b), v in canon.items() if v != 0]
        items.sort(key=lambda t: (order.get(t[0], len(order)), order.get(t[1], len(order))))
        return tuple(items)

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def component(self, cid: str) -> ComponentRecord:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)

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


def validate(pres: SurgeryPresentation) -> list[str]:
    """Invariant checklist; empty list means the presentation is valid."""
    violations = []
    seen: set[str] = set()
    for comp in pres.components:
        if comp.id in seen:
            violations.append(f"duplicate component id {comp.id!r}")
        seen.add(comp.id)
        if comp.kind is ComponentKind.DOTTED and comp.framing is not None:
            violations.append(f"dotted component {comp.id!r} carries a framing")
        if comp.kind is ComponentKind.FRAMED and comp.framing is None:
            violations.append(f"framed component {comp.id!r} is missing its framing")
    for a, b, _ in pres.linkings:
        for cid in (a, b):
            if cid not in seen:
                violations.append(f"linking refers to unknown component {cid!r}")
        if a == b:
            violations.append(f"self-linking declared for component {a!r}")
    n = len(pres.components)
    curve_ids: set[str] = set()
    for curve in pres.curves:
        if curve.id in curve_ids or curve.id in seen:
            violations.append(f"duplicate id {curve.id!r}")
        curve_ids.add(curve.id)
        if len(curve.component_linkings) != n:
            violations.append(
                f"curve {curve.id!r} has a linking vector of length "
                f"{len(curve.component_linkings)}, expected {n}"
            )
        for other, _ in curve.cross_pushoff_linkings:
            if all(c.id != other for c in pres.curves):
                violations.append(
                    f"curve {curve.id!r} records pushoffs with unknown curve {other!r}"
                )
    return violations


_TOKEN = re.compile(r"\S+")


def parse_presentation(text: str) -> SurgeryPresentation:
    """Parse the line-oriented presentation format.

    Grammar (one declaration per line, '#' starts a comment):
        component <id> dotted
        component <id> framed <int>
        lk <id> <id> <int>
        curve <id> lk ( <int> ... ) self <int>
        pushoff <curveA> <curveB> <int> <int>
    """
    components: list[ComponentRecord] = []
    linkings: dict[tuple[str, str], tuple[int, int]] = {}  # pair -> (value, line)
    curve_rows: list[tuple[str, tuple[int, ...], int, int]] = []  # id, vector, self, line
    pushoffs: list[tuple[str, str, int, int, int]] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        head = tokens[0][0]
        words = [t for t, _ in tokens]

        def fail(message, at=0):
            column = tokens[at][1] if at < len(tokens) else len(line) + 1
            raise PresentationError(message, lineno, column)

        def want_int(index):
            try:
                return int(words[index])
            except (ValueError, IndexError):
                fail("expected an integer", min(index, len(tokens) - 1))

        if head == "component":
            if len(words) < 3 or words[2] not in ("dotted", "framed"):
                fail("expected 'component <id> dotted' or 'component <id> framed <int>'")
            cid = words[1]
            if any(c.id == cid for c in components):
                fail(f"duplicate component id {cid!r}", 1)
            if words[2] == "dotted":
                if len(words) != 3:
                    fail("dotted components take no framing", 3)
                components.append(ComponentRecord(cid, ComponentKind.DOTTED))
            else:
                if len(words) != 4:
                    fail("framed components need exactly one integer framing", 2)
                components.append(ComponentRecord(cid, ComponentKind.FRAMED, want_int(3)))
        elif head == "lk":
            if len(words) != 4:
                fail("expected 'lk <id> <id> <int>'")
            a, b = words[1], words[2]
            v = want_int(3)
            if a == b:
                fail("linking of a component with itself is not allowed", 1)
            key = (a, b) if (a, b) in linkings or (b, a) not in linkings else (b, a)
            if key in linkings and linkings[key][0] != v:
                fail(
                    f"asymmetric linking declaration: lk({a},{b}) = {v} conflicts "
                    f"with value {linkings[key][0]} from line {linkings[key][1]}",
                    3,
                )
            linkings[key] = (v, lineno)
        elif head == "curve":
            if len(words) < 7 or words[2] != "lk" or words[3] != "(":
                fail("expected 'curve <id> lk ( <int> ... ) self <int>'")
            try:
                close = words.index(")")
            except ValueError:
                fail("missing ')' in curve declaration")
            vector = tuple(want_int(i) for i in range(4, close))
            if close + 3 != len(words) or words[close + 1] != "self":
                fail("expected 'self <int>' after the linking vector", close)
            curve_rows.append((words[1], vector, want_int(close + 2), lineno))
        elif head == "pushoff":
            if len(words) != 5:
                fail("expected 'pushoff <curveA> <curveB> <int> <int>'")
            pushoffs.append((words[1], words[2], want_int(3), want_int(4), lineno))
        else:
            fail(f"unknown declaration {head!r}")

    ids = {c.id for c in components}
    for (a, b), (v, lineno) in linkings.items():
        for cid in (a, b):
            if cid not in ids:
                raise PresentationError(f"linking refers to unknown component {cid!r}", lineno)

    curve_ids = [row[0] for row in curve_rows]
    for cid, vector, _, lineno in curve_rows:
        if curve_ids.count(cid) > 1 or cid in ids:
            raise PresentationError(f"duplicate id {cid!r}", lineno)
        if len(vector) != len(components):
            raise PresentationError(
                f"curve {cid!r} declares {len(vector)} component linkings, "
                f"expected {len(components)}",
                lineno,
            )

    cross: dict[str, list[tuple[str, tuple[int, int]]]] = {cid: [] for cid in curve_ids}
    seen_pairs: set[frozenset] = set()
    for a, b, u, v, lineno in pushoffs:
        for cid in (a, b):
            if cid not in cross:
                raise PresentationError(f"pushoff refers to unknown curve {cid!r}", lineno)
        if a == b:
            raise PresentationError(
                "self pushoff belongs in the curve's 'self' field", lineno
            )
        pair_key = frozenset((a, b))
        if pair_key in seen_pairs:
            raise PresentationError(f"duplicate pushoff declaration for {a!r}, {b!r}", lineno)
        seen_pairs.add(pair_key)
        cross[a].append((b, (u, v)))
        cross[b].append((a, (v, u)))

    order = {cid: i for i, cid in enumerate(curve_ids)}
    curves = tuple(
        CurveSpec(
            id=cid,
            component_linkings=vector,
            pushoff_self_linking=self_lk,
            cross_pushoff_linkings=tuple(sorted(cross[cid], key=lambda t: order[t[0]])),
        )
        for cid, vector, self_lk, _ in curve_rows
    )
    flat = tuple((a, b, v) for (a, b), (v, _) in linkings.items())
    return SurgeryPresentation(tuple(components), flat, curves)


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
