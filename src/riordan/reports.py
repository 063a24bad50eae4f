"""Verdict records for exact identity checks.

``Counterexample`` and ``IdentityReport`` are ``typing.NamedTuple``s:
read-only, equal by value, and built without ``dataclasses``.
``series_verdict`` is the one route from compared series to a report.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional


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


def series_verdict(identity: str, grid: str, comparisons: Iterable[tuple]) -> IdentityReport:
    """The report of ``(params, lhs, rhs)`` series comparisons, in order.

    ``lhs`` and ``rhs`` are series of one precision n.  A comparison that
    holds counts its n coefficients as points.  The first that does not
    ends the report: it adds the m + 1 coefficients up to the first one
    that differs, m, and the counterexample is ``params`` with ``n=m``.
    """
    points = 0
    for params, lhs, rhs in comparisons:
        if lhs == rhs:
            points += lhs.precision
            continue
        m = next(m for m in range(lhs.precision) if lhs.coeff(m) != rhs.coeff(m))
        cex = Counterexample({**params, "n": str(m)}, str(lhs.coeff(m)), str(rhs.coeff(m)))
        return IdentityReport(identity, grid, points + m + 1, cex)
    return IdentityReport(identity, grid, points)
