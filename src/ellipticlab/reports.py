"""Structured results for estimate checks.

Every check returns a :class:`CheckReport`, built and decided by
:func:`make_report`: the two sides of the inequality, the tolerance and
status that decided it, and enough context (grid spacing, constants,
seed) to reproduce the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        ``rhs - lhs``; at least ``-tol`` when the inequality held.
    status : str
        ``"pass"`` (then ``passed`` is true), ``"fail"`` (the inequality
        or a side condition failed) or ``"hypothesis"`` (a hypothesis of
        the estimate was not met, so the inequality says nothing).
    tol : float
        The tolerance that decided the status.
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
    status: str
    tol: float
    constants: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict[str, Any]:
        items = [(k, _jsonable(v)) for k, v in vars(self).items()]
        return dict(items[:4] + [("passed", self.passed)] + items[4:])


def _jsonable(v):
    """``v`` in JSON's types, a non-finite float as its token's string."""
    v = v.item() if hasattr(v, "item") else v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v if not isinstance(v, float) or math.isfinite(v) else (
        "NaN" if v != v else "Infinity" if v > 0 else "-Infinity")


def unresolved(set_name, count, least, unit="node") -> str | None:
    """``None`` when ``set_name`` holds ``least`` ``unit``s or more, else
    the one ``hypothesis`` note of a grid too coarse for the estimate,
    ``grid does not resolve Q_1: 1 node, needs 4``."""
    return None if count >= least else (
        f"grid does not resolve {set_name}: {count} {unit}"
        f"{'' if count == 1 else 's'}, needs {least}")


def make_report(name, lhs, rhs, *, tol=0.0, constants=None, grid=None,
                seed=None, notes="", fail=None,
                hypothesis=None) -> CheckReport:
    """Decide ``lhs <= rhs + tol``, exactly for rational sides.  A
    ``hypothesis`` note (a hypothesis not met) makes the status
    ``"hypothesis"``, else a ``fail`` note (a side condition failed), a
    side that is not finite (an overflow or NaN measured nothing) or the
    inequality failing makes it ``"fail"``; notes given are appended.
    """
    diff = rhs - lhs
    if fail is None and not (math.isfinite(lhs) and math.isfinite(rhs)):
        fail = "non-finite side"
    status = ("hypothesis" if hypothesis else
              "fail" if fail or not diff >= -tol else "pass")
    return CheckReport(
        name=name, lhs=float(lhs), rhs=float(rhs), margin=float(diff),
        status=status, tol=float(tol), constants=dict(constants or {}),
        grid=dict(grid or {}), seed=seed,
        notes="; ".join(n for n in (notes, fail, hypothesis) if n))
