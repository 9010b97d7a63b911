"""Report documents: writing one, and merging several.

A report document is one JSON object ``{meta, checks, passed}``, the
checks as :meth:`CheckReport.to_dict` gives them.
"""
from __future__ import annotations

import json
from pathlib import Path

__all__ = ["write_report_document", "merge_report_documents"]


def write_report_document(reports, path, meta=None) -> dict:
    """Write the document of ``reports`` to ``path`` and return it; a
    non-finite number is the string ``"NaN"``, ``"Infinity"`` or
    ``"-Infinity"``, so that the file is strict JSON."""
    doc = {"meta": dict(meta or {}), "checks": [r.to_dict() for r in reports],
           "passed": all(r.passed for r in reports)}
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False))
    return doc


def merge_report_documents(paths) -> dict:
    """One document of the checks of the documents at ``paths``, in order;
    a bare ``NaN``, ``Infinity`` or ``-Infinity`` token that an input
    holds becomes its string, as :func:`write_report_document` writes it."""
    merged = {"meta": {"merged_from": [str(p) for p in paths]},
              "checks": [], "passed": True}
    for p in paths:
        doc = json.loads(Path(p).read_text(), parse_constant=str)
        checks = doc.get("checks", []) if isinstance(doc, dict) else None
        if not isinstance(checks, list):
            raise ValueError(f"{p} is not a report document: it must be a "
                             f"JSON object whose 'checks' is a list")
        merged["checks"].extend(checks)
        merged["passed"] = merged["passed"] and doc.get("passed", False)
    return merged
