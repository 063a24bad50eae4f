"""Verdict records for exact identity checks.

``Counterexample`` and ``IdentityReport`` are ``typing.NamedTuple``s:
read-only, equal by value, and built without ``dataclasses``.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional


class Counterexample(NamedTuple):
    """A failing parameter point with both sides rendered exactly."""

    params: Mapping[str, str]
    lhs: str
    rhs: str

    def to_record(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


class IdentityReport(NamedTuple):
    """Outcome of checking one identity over a parameter grid.

    Values inside the counterexample are exact decimal/fraction strings,
    so a reported failure can be re-checked independently.
    """

    identity: str
    grid: str
    points: int
    counterexample: Optional[Counterexample] = None

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "counterexample"

    def to_record(self) -> dict:
        return {
            "id": self.identity,
            "grid": self.grid,
            "points": self.points,
            "verdict": self.verdict,
            "counterexample": (
                None if self.counterexample is None else self.counterexample.to_record()
            ),
        }
