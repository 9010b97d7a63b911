"""Field and report serialization.

Fields travel as one JSON document ``{dim, h, origin, counts, name,
values}``, the node values row-major, with the valid-node ``mask`` when
the field has one.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import Grid, ScalarField

__all__ = ["write_field", "read_field", "write_report_document",
           "merge_report_documents"]


def write_field(fld: ScalarField, path) -> None:
    header = {
        "dim": fld.grid.dim,
        "h": fld.grid.h,
        "origin": list(fld.grid.origin),
        "counts": list(fld.grid.counts),
        "name": fld.name,
    }
    if fld.mask is not None:
        header["mask"] = fld.mask.reshape(-1).astype(int).tolist()
    header["values"] = fld.values.reshape(-1).tolist()
    Path(path).write_text(json.dumps(header))


def read_field(path) -> ScalarField:
    """Read a field as :func:`write_field` writes it, its values inline;
    a document whose ``values`` are missing or do not fill the grid
    raises ``ValueError``."""
    header = json.loads(Path(path).read_text())
    grid = Grid(dim=int(header["dim"]), h=float(header["h"]),
                origin=tuple(header["origin"]),
                counts=tuple(int(c) for c in header["counts"]))
    vals = np.asarray(header.get("values", ()), dtype=float)
    if vals.size != grid.n_nodes:
        raise ValueError(f"'values' holds {vals.size} numbers for a grid "
                         f"of {grid.n_nodes} nodes")
    mask = None
    if "mask" in header:
        mask = np.asarray(header["mask"], dtype=bool).reshape(grid.counts)
    return ScalarField(grid, vals.reshape(grid.counts),
                       name=header.get("name", ""), mask=mask)


def write_report_document(reports, path, meta=None) -> dict:
    doc = {
        "meta": dict(meta or {}),
        "checks": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    Path(path).write_text(json.dumps(doc, indent=2))
    return doc


def merge_report_documents(paths) -> dict:
    merged = {"meta": {"merged_from": [str(p) for p in paths]},
              "checks": [], "passed": True}
    for p in paths:
        doc = json.loads(Path(p).read_text())
        checks = doc.get("checks", []) if isinstance(doc, dict) else None
        if not isinstance(checks, list):
            raise ValueError(f"{p} is not a report document: it must be a "
                             f"JSON object whose 'checks' is a list")
        merged["checks"].extend(checks)
        merged["passed"] = merged["passed"] and doc.get("passed", False)
    return merged
