"""Structured results for estimate checks.

Every quantitative check in the library returns a :class:`CheckReport`
recording the two sides of the inequality it verified, the slack, and
enough context (grid spacing, constants, seed) to reproduce the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any


@dataclass
class CheckReport:
    """Outcome of a single inequality / identity check.

    Attributes
    ----------
    name : str
        Identifier of the check, e.g. ``"mean-value"``.
    lhs, rhs : float
        The two sides of the verified inequality ``lhs <= rhs`` (for
        identity checks ``lhs`` is the deviation and ``rhs`` the budget).
    margin : float
        ``rhs - lhs``; non-negative iff the check passed (up to the
        recorded tolerance).
    passed : bool
    constants : dict
        Named constants entering the estimate (exponents, measured
        implementation constants, ...).
    grid : dict
        Grid metadata: spacing ``h``, dimension, node counts.
    seed : int | None
        RNG seed when randomness was involved.
    notes : str
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    constants: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    notes: str = ""

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        # keep JSON clean: numpy scalars -> python floats
        d["lhs"] = float(self.lhs)
        d["rhs"] = float(self.rhs)
        d["margin"] = float(self.margin)
        d["constants"] = {k: _jsonable(v) for k, v in self.constants.items()}
        return d


def _jsonable(v):
    if hasattr(v, "item"):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def make_report(name, lhs, rhs, *, tol=0.0, constants=None, grid=None,
                seed=None, notes="") -> CheckReport:
    """Build a report for the inequality ``lhs <= rhs + tol``."""
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    return CheckReport(
        name=name, lhs=lhs, rhs=rhs, margin=margin,
        passed=bool(margin >= -tol),
        constants=dict(constants or {}),
        grid=dict(grid or {}),
        seed=seed, notes=notes,
    )
