"""Classical invariants of Legendrian fronts and the slice-genus bound.

Fronts are modeled by the invariant-sufficient counts (writhe, up/down
cusps) rather than full front words; that is all tb and rot need.  The
Stein handle-attachment check is framing = tb - 1 for every 2-handle, and
the slice-Bennequin inequality tb + |rot| <= 2g - 1 turns into a lower
bound for the slice genus of a curve in the boundary of a Stein domain.
"""
from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple


# the fields; the public subclass checks them in __new__, which a NamedTuple
# may not define in its own body
class _FrontData(NamedTuple):
    writhe: int
    down_cusps: int
    up_cusps: int


class FrontData(_FrontData):
    """Signed crossing count and cusp counts of a Legendrian front."""

    __slots__ = ()

    def __new__(cls, writhe: int, down_cusps: int, up_cusps: int):
        for name, value in zip(cls._fields, (writhe, down_cusps, up_cusps)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if down_cusps < 0 or up_cusps < 0:
            raise ValueError("cusp counts must be nonnegative")
        total = down_cusps + up_cusps
        if total < 2 or total % 2 != 0:
            raise ValueError(
                f"a front has an even number (>= 2) of cusps, got {total}"
            )
        return super().__new__(cls, writhe, down_cusps, up_cusps)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def tb(front: FrontData) -> int:
    """Thurston-Bennequin number: writhe - (number of cusps)/2."""
    return front.writhe - (front.down_cusps + front.up_cusps) // 2


def rot(front: FrontData) -> int:
    """Rotation number: (down cusps - up cusps)/2.

    FrontData requires an even total cusp count, so the difference is even.
    """
    return (front.down_cusps - front.up_cusps) // 2


class HandleCheck(NamedTuple):
    name: str
    framing: int
    tb: int

    @property
    def satisfied(self) -> bool:
        return self.framing == self.tb - 1


def stein_condition(
    handles: list[tuple[str, int, FrontData]],
) -> tuple[bool, tuple[HandleCheck, ...]]:
    """Check framing = tb - 1 for every 2-handle.

    Handles are (name, framing, front) tuples; returns the conjunction plus
    a per-handle report.  Empty input is vacuously true.
    """
    checks = tuple(
        HandleCheck(name=name, framing=framing, tb=tb(front))
        for name, framing, front in handles
    )
    return all(c.satisfied for c in checks), checks


def slice_bennequin_genus_bound(tb_value: int, rot_value: int) -> int:
    """Smallest g >= 0 allowed by tb + |rot| <= 2g - 1.

    A positive result bounds the slice genus of the curve in any Stein
    filling from below; 0 means no conclusion (never "slice").
    """
    bound = tb_value + abs(rot_value) + 1
    if bound <= 0:
        return 0
    return (bound + 1) // 2


def load_named_fronts() -> tuple[dict[str, FrontData], dict[str, int]]:
    """Front fixtures and the Stein framings of the handles (see data/fronts.json)."""
    raw = json.loads(
        resources.files("dehn4").joinpath("data/fronts.json").read_text("utf-8")
    )
    fronts = {
        name: FrontData(
            writhe=entry["writhe"],
            down_cusps=entry["down_cusps"],
            up_cusps=entry["up_cusps"],
        )
        for name, entry in raw["fronts"].items()
    }
    return fronts, raw["stein_framings"]
