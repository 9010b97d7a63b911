"""Field and report serialization.

Fields travel as a JSON header ``{dim, h, origin, counts, name}`` with
row-major node values inline, or — with ``binary=True`` — in a
little-endian float64 sidecar next to the header.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import Grid, ScalarField

__all__ = ["write_field", "read_field", "write_report_document",
           "merge_report_documents"]


def write_field(fld: ScalarField, path, binary: bool = False) -> None:
    path = Path(path)
    header = {
        "dim": fld.grid.dim,
        "h": fld.grid.h,
        "origin": list(fld.grid.origin),
        "counts": list(fld.grid.counts),
        "name": fld.name,
    }
    if fld.mask is not None:
        header["mask"] = fld.mask.reshape(-1).astype(int).tolist()
    if binary:
        side = path.with_suffix(path.suffix + ".bin")
        header["values_file"] = side.name
        header["dtype"] = "<f8"
        side.write_bytes(np.ascontiguousarray(
            fld.values, dtype="<f8").tobytes())
    else:
        header["values"] = fld.values.reshape(-1).tolist()
    path.write_text(json.dumps(header))


def read_field(path) -> ScalarField:
    """Read a field as :func:`write_field` writes it: a binary sidecar
    must sit next to the header and hold little-endian float64 values."""
    path = Path(path)
    header = json.loads(path.read_text())
    grid = Grid(dim=int(header["dim"]), h=float(header["h"]),
                origin=tuple(header["origin"]),
                counts=tuple(int(c) for c in header["counts"]))
    if "values_file" in header:
        side, dtype = header["values_file"], header.get("dtype", "<f8")
        if side in ("", "..") or Path(side).name != side or dtype != "<f8":
            raise ValueError(f"values_file must name a file next to the "
                             f"header and dtype must be '<f8', got "
                             f"{side!r} and {dtype!r}")
        vals = np.frombuffer((path.parent / side).read_bytes(), dtype="<f8")
    else:
        vals = np.asarray(header["values"], dtype=float)
    if vals.size != grid.n_nodes:
        raise ValueError("value count does not match the grid")
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
