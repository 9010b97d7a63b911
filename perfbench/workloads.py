"""The benchmark's workloads: seeded inputs, task lists and output checks.

A *task* is one public call into ``ellipticlab`` plus the check of its
output.  A *pass* is a workload's fixed task list, run once.  Each
workload's ``build(el, seed, tmpdir)`` generates the inputs (the package
only ever receives the generated fields) and returns the task list.

Every task is a ``Task(label, call, inspect)``: ``call()`` makes the
public call, and ``inspect(output)`` raises ``CheckError`` when an
invariant fails and returns a *fingerprint*, a small dict of numbers that
the runner compares with the values recorded at the seed commit
(``reference.json``): integers and exact fractions must be equal, floats
must agree to ``REL_TOL``.  Tasks of one field run in order, and a later
task may use an earlier task's output through the shared ``out`` dict.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

# Float outputs must match the seed commit to this relative tolerance.  It
# leaves room for a direct solve replacing SOR (which stops at an update of
# 1e-10, so its solution is only good to about 1e-8) and for a different
# summation order, and is far below any change of a verdict.
REL_TOL = 1e-6
ABS_TOL = 1e-9

# Distinct input sets.  Inputs depend on ``seed % N_INPUTS`` only, because
# each input set's outputs are checked against values recorded at the seed
# commit for that set.
N_INPUTS = 64

SUITES = ("laplacian-core", "uniformly-elliptic-core", "contact-geometry",
          "coverings", "fractional", "probabilistic", "hessian-estimates")


class CheckError(Exception):
    """A task's output failed the benchmark's check."""


@dataclass
class Task:
    label: str
    call: Callable[[], Any]
    inspect: Callable[[Any], dict]


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _passed(rep) -> dict:
    _require(rep.passed, f"report {rep.name} did not pass: "
                         f"lhs={rep.lhs} rhs={rep.rhs} {rep.notes}")
    return {"lhs": rep.lhs, "rhs": rep.rhs}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % N_INPUTS, stream])


def _cosine_field(rng, pts: np.ndarray) -> np.ndarray:
    """Three random cosines: |D^2 u| <= 3 * 0.3 * 8 < 8, so the field is
    semiconvex with constant below the paraboloid opening used below."""
    vals = np.zeros(pts.shape[:-1])
    for _ in range(3):
        kvec = rng.uniform(-2, 2, 2)
        amp = rng.uniform(-0.3, 0.3)
        ph = rng.uniform(0, 2 * np.pi)
        vals += amp * np.cos(pts @ kvec + ph)
    return vals


# ---------------------------------------------------------------------------
# verify-suites: the product a user waits for


def build_verify_suites(el, seed: int, tmpdir: str) -> list[Task]:
    """Each of the seven suites through ``cli.main``; the seed sets the
    order in which the suites run."""
    order = _rng(seed, 0).permutation(len(SUITES))
    tasks = []
    for i in order:
        suite = SUITES[int(i)]
        path = os.path.join(tmpdir, f"{suite}.json")

        def call(suite=suite, path=path):
            with contextlib.redirect_stdout(io.StringIO()):
                code = el.cli.main(["verify", suite, "--out", path])
            return code, path

        def inspect(out):
            code, path = out
            _require(code == 0, f"exit code {code}")
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            bad = [c["name"] for c in doc["checks"] if not c["passed"]]
            _require(doc["checks"] and not bad and doc["passed"],
                     f"checks not passed: {bad}")
            return {}

        tasks.append(Task(f"verify.{suite}", call, inspect))
    return tasks


# ---------------------------------------------------------------------------
# envelope-fields: the contact layer at n = 65 and 129


ENVELOPE_FIELDS = ((65, 4), (129, 2))   # (nodes per axis, field count)


def build_envelope_fields(el, seed: int, tmpdir: str) -> list[Task]:
    rng = _rng(seed, 1)
    ell = el.Ellipticity(1.0, 2.0)
    fam = el.ParaboloidFamily(opening=8.0,
                              center_set=el.Ball((0.0, 0.0), 0.25))
    tasks = []
    for n, count in ENVELOPE_FIELDS:
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        pts = g.coords()
        r2 = np.sum(pts ** 2, axis=-1)
        for k in range(count):
            u = _cosine_field(rng, pts)
            fld = el.ScalarField(g, u)
            # The bowl |x|^2 - 1 + 0.2 u, with u shifted to minimum 0 so the
            # bowl is nonnegative off B_1 and ABP's ring hypothesis holds.
            bowl = el.ScalarField(g, r2 - 1.0 + 0.2 * (u - u.min()))
            tasks += _envelope_tasks(el, f"n{n}.f{k}", fld, bowl, fam, ell)
    return tasks


def _envelope_tasks(el, tag, fld, bowl, fam, ell) -> list[Task]:
    out: dict = {}
    tol = el.tangency_tolerance(fam, fld.grid.h)

    def contact():
        out["cs"] = el.contact_set(fld, fam, tol=tol)
        return out["cs"]

    def inspect_contact(cs):
        nodes = int(cs.node_mask().sum())
        _require(len(cs.interior()) > 0, "no interior contact node")
        return {"entries": len(cs), "nodes": nodes}

    def transport():
        out["tr"] = el.transport_map(out["cs"].interior(), fld)
        return out["tr"]

    def inspect_transport(tr):
        _require(np.all(np.isfinite(tr.targets)), "non-finite target")
        _require(np.all(tr.jacobians >= 0), "negative Jacobian")
        return {"jacobian_sum": float(tr.jacobians.sum())}

    def inspect_infconv(low):
        _require(np.all(low.values <= fld.values + 1e-12),
                 "inf-convolution above the field")
        return {"sum": float(low.values.sum())}

    return [
        Task(f"contact_set.{tag}", contact, inspect_contact),
        Task(f"transport_map.{tag}", transport, inspect_transport),
        Task(f"area_formula_check.{tag}",
             lambda: el.area_formula_check(out["tr"], fam.center_set),
             _passed),
        Task(f"abp_bound.{tag}", lambda: el.abp_bound(bowl, ell), _passed),
        Task(f"aleksandrov_check.{tag}",
             lambda: el.aleksandrov_check(bowl, el.SubLevel(bowl, 0.0)),
             _passed),
        Task(f"inf_convolution.{tag}", lambda: el.inf_convolution(fld, 0.25),
             inspect_infconv),
    ]


# ---------------------------------------------------------------------------
# analysis-kernels: grid norms, fractional quadrature, coverings, linear solves


def build_analysis_kernels(el, seed: int, tmpdir: str) -> list[Task]:
    rng = _rng(seed, 2)
    tasks = []
    for n in (33, 65):
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        fld = el.ScalarField(g, _cosine_field(rng, g.coords()))
        tasks += _norm_tasks(el, f"n{n}", fld)
        if n == 65:
            for level in (1, 2):
                tasks.append(_fractional_task(el, fld, level))

    for depth in (6, 7):
        # cells of a smooth seeded level set, so the cubes come in all sizes
        top = 1 << depth
        c = (2 * np.arange(top) + 1) / (2 * top) - 0.5
        pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
        vals = _cosine_field(rng, 16.0 * pts)
        cells = vals > np.quantile(vals, 0.6)
        tasks += _covering_tasks(el, el.CellUnion(depth, cells), depth)

    for n in (65, 129):
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        pts = g.coords()
        fvals = _cosine_field(rng, pts)
        gvals = 1.0 + 0.5 * _cosine_field(rng, pts)
        center = tuple(rng.uniform(-0.35, 0.35, 2))
        tasks += _solver_tasks(el, f"n{n}", g, fvals, gvals, center)
    return tasks


def _norm_tasks(el, tag, fld) -> list[Task]:
    def inspect_maximal(m):
        _require(np.all(m.values >= np.abs(fld.values)),
                 "maximal function below |u|")
        return {"sum": float(m.values.sum())}

    return [
        Task(f"hardy_littlewood_maximal.{tag}",
             lambda: el.hardy_littlewood_maximal(fld), inspect_maximal),
        Task(f"holder_seminorm.{tag}",
             lambda: el.holder_seminorm(fld, 0.5),
             lambda s: {"value": s}),
        Task(f"weighted_seminorm.{tag}",
             lambda: el.weighted_seminorm(fld, 0.5, 0.5,
                                          el.Ball((0.0, 0.0), 0.75)),
             lambda s: {"value": s}),
    ]


def _fractional_task(el, fld, level) -> Task:
    def inspect(res):
        vals = res.field.values[res.eval_mask]
        _require(np.all(np.isfinite(vals)), "non-finite value")
        return {"nodes": int(res.eval_mask.sum()), "sum": float(vals.sum())}

    return Task(f"fractional_laplacian.level{level}",
                lambda: el.fractional_laplacian(
                    fld, el.FractionalParams(sigma=1.0, level=level),
                    eval_region=el.Ball((0.0, 0.0), 0.25)),
                inspect)


def _covering_tasks(el, region, depth) -> list[Task]:
    def inspect_dyadic(dec):
        _require(dec.covered + dec.residual == region.measure,
                 "covered + residual != measure")
        return {"cubes": len(dec.cubes), "residual": str(dec.residual)}

    def inspect_cz(dec):
        mass = sum((region.measure_in_cube(c) for c in dec.cubes),
                   Fraction(0))
        _require(mass + dec.residual == region.measure,
                 "selected mass + residual != measure")
        return {"cubes": len(dec.cubes), "residual": str(dec.residual)}

    return [
        Task(f"dyadic_decomposition.d{depth}",
             lambda: el.dyadic_decomposition(region, max_depth=depth),
             inspect_dyadic),
        Task(f"cz_selection.d{depth}",
             lambda: el.cz_selection(region, Fraction(1, 2), max_depth=depth),
             inspect_cz),
    ]


def _solver_tasks(el, tag, g, fvals, gvals, center) -> list[Task]:
    def poisson():
        return el.solve_poisson(g, el.Ball((0.0, 0.0), 1.0),
                                lambda p: fvals,
                                el.BoundaryData(lambda p: gvals),
                                config=el.SolverConfig(tol=1e-10))

    def inspect_poisson(out):
        sol, rep = out
        _passed(rep)
        return {"sum": float(sol.values.sum())}

    def hitting():
        return el.discrete_harmonic_hitting(
            g, el.ClosedBall(center, 0.2), el.Ball((0.0, 0.0), 1.0))

    def inspect_hitting(u):
        _require(np.all((u.values >= 0) & (u.values <= 1)),
                 "hitting value outside [0, 1]")
        return {"sum": float(u.values.sum())}

    return [
        Task(f"solve_poisson.{tag}", poisson, inspect_poisson),
        Task(f"discrete_harmonic_hitting.{tag}", hitting, inspect_hitting),
    ]


WORKLOADS = {
    "verify-suites": build_verify_suites,
    "envelope-fields": build_envelope_fields,
    "analysis-kernels": build_analysis_kernels,
}


def matches(fingerprint: dict, ref: dict) -> list[str]:
    """Keys where a fingerprint differs from its reference."""
    bad = []
    for key in sorted(set(fingerprint) | set(ref)):
        a, b = fingerprint.get(key), ref.get(key)
        if isinstance(b, float) and isinstance(a, (int, float)):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                bad.append(f"{key}: {a!r} != {b!r}")
        elif a != b:
            bad.append(f"{key}: {a!r} != {b!r}")
    return bad
