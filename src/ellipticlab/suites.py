"""Named verification suites run by the command-line interface.

Each suite builds a handful of concrete fields at a default resolution
and runs the estimate checks of one theme, returning the list of
reports.  Resolutions are chosen so a suite stays well under a minute.
A suite's keyword parameters are exactly the options it reads, and so
are a plot kind's.
"""
from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .grid import (Grid, ScalarField, Ball, ClosedBall, Cube, oscillation,
                   _interior, _sq_dist)
from .operators import (Ellipticity, FractionalParams, TailSpec, hessian,
                        pucci_minus, pucci_sandwich_residual,
                        second_difference, fractional_laplacian)
from .contact import (inf_convolution, paraboloid_envelope,
                      measure_estimate_check, localization_check, abp_bound,
                      aleksandrov_check, hessian_contact_set)
from .coverings import (BoxRegion, CellUnion, BallCollection, Cylinder,
                        DyadicCube, dyadic_decomposition, cz_selection,
                        vitali_select, stacking, sun_rising, ink_spots_check)
from .regularity import (oscillation_profile, decay_implies_modulus_check,
                         mean_value_check, weak_harnack_laplacian_check,
                         harnack_quotient_check, weak_harnack_ue_check,
                         diminish_of_distribution_check, local_max_check,
                         ball_average_laplacian,
                         mollification_identity_check, morrey_check,
                         rolle_gradient_point)
from .solvers import (BoundaryData, SolverConfig, WalkConfig, solve_pucci,
                      field_library, random_walk_hitting,
                      discrete_harmonic_hitting, probabilistic_harnack_check)
from .reports import make_report, CheckReport

__all__ = ["SUITES", "run_suite", "PLOTS"]


def _suite_laplacian(h=1 / 128) -> list[CheckReport]:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out = []
    harm = field_library("harmonic-poly", g, degree=3)
    out.append(mean_value_check(harm, (0.0, 0.0), 0.75))
    pos = field_library("poisson-kernel-ish", g)
    out.append(harnack_quotient_check(pos, 0.25))
    lin = ScalarField(g, 2.0 + g.coords()[..., 0])
    out.append(weak_harnack_laplacian_check(lin))
    gau = field_library("gaussian", g, sigma=0.6)
    _, rep = ball_average_laplacian(gau, (0.0, 0.0), 0.25)
    out.append(rep)
    pw = field_library("power", g, alpha=0.5)
    prof = oscillation_profile(pw, 0.5, 0.5, 4)
    theta = 1 - 0.5 ** 0.5
    out.append(decay_implies_modulus_check(prof, theta))
    out.append(local_max_check(gau, eps=1.0))
    out.append(mollification_identity_check(gau))
    out.append(morrey_check(pw, p=8.0))
    x2, rep = rolle_gradient_point(gau, (0.1, 0.0), 0.5)
    out.append(rep)
    return out


def _suite_ue(h=1 / 24) -> list[CheckReport]:
    ell = Ellipticity(1.0, 2.0)
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out = []
    quad = field_library("quadratic", g, A=np.diag([1.5, -0.5]))
    out.append(pucci_sandwich_residual(quad, np.diag([1.2, 1.2]), ell))
    # solved supersolution of the minimal operator on a big cube, with a
    # boundary spike so the distribution over Q_1 is nontrivial
    hb = 1 / 10
    R = 3 * math.sqrt(2) + 4 * hb
    gb = Grid.cover((0.0, 0.0), R, hb)
    spike = np.array([R, 0.0])
    bd = BoundaryData(lambda p: 0.1 + 8.0 * np.exp(-1.5 * _sq_dist(p, spike)))
    sup, srep = solve_pucci(gb, Ball((0.0, 0.0), R), 0.0, bd, ell,
                            sign="minus",
                            config=SolverConfig(tol=2e-3, max_iter=50))
    out.append(srep)
    # normalize so the superlevel set {u > 1} inside Q_1 is nonempty
    q1 = Cube((0.0, 0.0), 1.0)
    lvl = float(np.quantile(sup.values[q1.mask(gb)], 0.7))
    v = ScalarField(gb, sup.values / max(lvl, 1e-9))
    out.append(weak_harnack_ue_check(v, ell))
    out.append(diminish_of_distribution_check(v, ell, depth=3))
    out.append(local_max_check(quad, ell=ell))
    return out


def _suite_contact(h=1 / 32) -> list[CheckReport]:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out = []
    vals = np.zeros(g.counts)
    u0 = ScalarField(g, vals)
    out.append(measure_estimate_check(u0))
    # envelope sandwich on a random smooth field
    pts = g.coords()
    smooth = ScalarField(g, np.sin(3 * pts[..., 0]) * np.cos(2 * pts[..., 1]))
    lo = inf_convolution(smooth, 0.25)
    env = paraboloid_envelope(smooth, 0.25)
    sandwich = float(np.max(np.maximum(lo.values - env.values,
                                       env.values - smooth.values)))
    out.append(make_report("envelope-sandwich", sandwich, 0.0, tol=1e-12,
                           grid=g.meta(),
                           notes="u_eps <= envelope <= u nodewise"))
    convex = field_library("paraboloid", g, M=1.0)
    shifted = ScalarField(g, convex.values - 0.5)
    out.append(abp_bound(shifted, Ellipticity(1.0, 2.0)))
    out.append(aleksandrov_check(ScalarField(
        g, _sq_dist(pts, np.zeros(2)) - 1.0), Ball((0.0, 0.0), 1.0)))
    ell = Ellipticity(1.0, 2.0)
    barrier_probe = field_library("pucci-radial", g, ell=ell)
    vclip = np.minimum(barrier_probe.values / barrier_probe.values[
        g.index_of((0.5, 0.0))], 40.0)
    out.append(localization_check(ScalarField(g, vclip), ell, rho=0.25))
    _, rep = hessian_contact_set(smooth, 8.0, Ball((0.0, 0.0), 0.25))
    out.append(rep)
    return out


def _suite_coverings() -> list[CheckReport]:
    out = []
    F = Fraction
    e = BoxRegion(((F(0), F(1, 2), True, False),))
    dec = dyadic_decomposition(e, max_depth=8)
    expect = [DyadicCube(k, (2 ** (k - 1) + 1,)) for k in range(2, 9)]
    ok = sorted((c.gen, c.idx) for c in dec.cubes) == \
        sorted((c.gen, c.idx) for c in expect) \
        and dec.residual == F(1, 2 ** 8)
    out.append(make_report("dyadic-halfline", 0.0, 0.0,
                           notes="exact decomposition of (0,1/2]",
                           fail=None if ok else "cubes or residual differ"))
    rng = np.random.default_rng(3)
    cells = rng.random((16, 16)) < 0.4
    cu = CellUnion(4, cells)
    dec2 = dyadic_decomposition(cu, max_depth=6)
    ok2 = dec2.covered + dec2.residual == cu.measure and dec2.residual == 0
    # maximal: each cube lies in E, and its parent does not
    maximal = all(cu.contains_cube(c) and not (c.gen and cu.contains_cube(
        DyadicCube(c.gen - 1, tuple(i // 2 for i in c.idx))))
        for c in dec2.cubes)
    out.append(make_report("dyadic-cellunion", 0.0, 0.0,
                           notes="covered + residual == |E| exactly",
                           fail=None if ok2 and maximal else
                           "the measures differ or a cube is not maximal"))
    czs = cz_selection(cu, Fraction(1, 2), max_depth=6)
    mass = sum((cu.measure_in_cube(c) for c in czs.cubes), F(0))
    ok3 = mass + czs.residual == cu.measure
    out.append(make_report("cz-mass", 0.0, 0.0,
                           notes="selected mass + residual == |F| exactly",
                           fail=None if ok3 else "the masses differ"))
    centers = [(F(rng.integers(-40, 40), 100), F(rng.integers(-40, 40), 100))
               for _ in range(40)]
    radii = [F(int(rng.integers(1, 20)), 100) for _ in range(40)]
    vit = vitali_select(BallCollection(tuple(centers), tuple(radii)))
    out.append(vit.check())
    cyls = []
    for _ in range(50):
        k = int(rng.integers(1, 4))
        idx = tuple(int(rng.integers(0, 2 ** k)) for _ in range(2))
        j = int(rng.integers(1, 4 ** k + 1))
        cyls.append(Cylinder(DyadicCube(k, idx), F(-1) + F(j, 4 ** k)))
    out.append(stacking(cyls, m=3))
    h = 1 / 512
    g1 = Grid(1, h, (0.0,), (513,))
    x = g1.axes()[0]
    u = ScalarField(g1, np.sin(7 * x) + 0.5 * np.sin(23 * x))
    _, rep = sun_rising(u, m=4.0)
    out.append(rep)
    g2 = Grid.cover((0.0, 0.0), 1.0, 1 / 48)
    E = Ball((0.0, 0.0), 0.5)
    Freg = Ball((0.0, 0.0), 0.1)
    out.append(ink_spots_check(E, Freg, g2, eta=0.3))
    return out


def _suite_fractional(h=1 / 16) -> list[CheckReport]:
    out = []
    g1 = Grid.cover((0.0,), 10.0, h)
    lin = field_library("linear", g1, slope=[0.3])
    res = fractional_laplacian(lin, FractionalParams(sigma=1.0, level=2),
                               tail=TailSpec(kind="zero"))
    v0 = float(res.field.values[res.eval_mask][0])
    out.append(make_report("fractional-linear", abs(v0), 1e-8 + res.quadrature_error,
                           grid=g1.meta(), notes="odd symmetry kills the kernel"))
    gau = field_library("gaussian", g1, sigma=1.0)
    r3 = fractional_laplacian(gau, FractionalParams(sigma=1.0, level=3))
    r1 = fractional_laplacian(gau, FractionalParams(sigma=1.0, level=6))
    a = float(r3.field.values[r3.eval_mask][0])
    b = float(r1.field.values[r1.eval_mask][0])
    out.append(make_report("fractional-gaussian-refine", abs(a - b),
                           0.01 * abs(b), grid=g1.meta(),
                           notes="level-3 value within 1% of refined"))
    # scaling symmetry: u(x/2) at 0 equals 2^-sigma times u at 0
    wide = field_library("gaussian", g1, sigma=2.0)
    rw = fractional_laplacian(wide, FractionalParams(sigma=1.0, level=3))
    c = float(rw.field.values[rw.eval_mask][0])
    out.append(make_report("fractional-scaling", abs(c - 0.5 * a),
                           0.02 * abs(a) + rw.tail_error + r3.tail_error,
                           grid=g1.meta(),
                           notes="dilation covariance of the kernel"))
    return out


def _suite_probabilistic(h=1 / 12, n_samples=20000) -> list[CheckReport]:
    out = []
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    target = ClosedBall((0.3, 0.0), 0.2)
    b1 = Ball((0.0, 0.0), 1.0)
    cfg = WalkConfig(n_samples=n_samples, seed=11)
    p, se, walk = random_walk_hitting(g, (0.0, 0.0), target, b1, cfg)
    oracle = discrete_harmonic_hitting(g, target, b1)
    q = oracle.at((0.0, 0.0))
    capped = walk.constants["capped"]
    out.append(make_report("walk-vs-oracle", abs(p - q), 3 * se + 1e-6,
                           grid=g.meta(), seed=cfg.seed,
                           notes="Monte Carlo vs discrete-harmonic hitting",
                           fail=f"{capped} walks reached max_steps"
                           if capped else None))
    A = ClosedBall((0.2, 0.1), 0.15)
    out.append(probabilistic_harnack_check(g, A, 0.5, cfg))
    return out


def _suite_hessian(h=1 / 16) -> list[CheckReport]:
    out = []
    ell = Ellipticity(1.0, 2.0)
    g = Grid.cover((0.0, 0.0), 1.0 + 4 * h, h)
    bd = BoundaryData(lambda p: np.abs(p[..., 0]) + 0.2 * p[..., 1])
    sol, srep = solve_pucci(g, Ball((0.0, 0.0), 1.0 + 2 * h), 0.0, bd, ell,
                            sign="plus",
                            config=SolverConfig(tol=1e-7, max_iter=50))
    out.append(srep)
    v = second_difference(sol, (1.0, 0.0), 2 * h)
    b34 = Ball((0.0, 0.0), 0.75).mask(g)
    inner = b34[_interior(g.counts)]
    Pm = pucci_minus(hessian(v), ell)
    worst = float(Pm[inner].max()) if inner.any() else 0.0
    out.append(make_report("second-diff-supersolution", worst, 0.0,
                           tol=200 * h, grid=g.meta(),
                           notes="P^- of the second difference stays <= 0"))
    osc = oscillation(sol, Ball((0.0, 0.0), 1.0))
    neg = float(np.clip(-v.values[b34], 0, None).max())
    out.append(make_report("second-diff-lower-bound", neg, 40.0 * osc,
                           constants={"C_pinned": 40.0, "osc": osc},
                           grid=g.meta(),
                           notes="negative part of v_2h bounded by osc"))
    return out


SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "laplacian-core": _suite_laplacian,
    "uniformly-elliptic-core": _suite_ue,
    "contact-geometry": _suite_contact,
    "coverings": _suite_coverings,
    "fractional": _suite_fractional,
    "probabilistic": _suite_probabilistic,
    "hessian-estimates": _suite_hessian,
}


def run_suite(name: str, **opts) -> list[CheckReport]:
    """The reports of the suite ``name``, or of every suite for
    ``"full"``, each suite given the options its signature names.

    An option that no suite of the request takes raises ``ValueError``
    before any suite runs, and so does ``h`` for ``full``.
    """
    if name != "full" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; "
                       f"choose from {sorted(SUITES)} or 'full'")
    runners = list(SUITES.values()) if name == "full" else [SUITES[name]]
    takes = [inspect.signature(runner).parameters for runner in runners]
    known = set().union(*takes) - ({"h"} if name == "full" else set())
    bad = sorted(opts.keys() - known)
    if bad:
        flags = {k: "--" + k.replace("_", "-") for k in known | {bad[0]}}
        why = ("each suite has its own spacing, and a walk takes about "
               "h^-2 steps" if name == "full" and bad[0] == "h" else
               "it takes " + (" ".join(flags[k] for k in sorted(known))
                              or "no option"))
        raise ValueError(f"{flags[bad[0]]} cannot be used with {name}: {why}")
    out = []
    for runner, params in zip(runners, takes):
        out.extend(runner(**{k: v for k, v in opts.items() if k in params}))
    return out


# ---------------------------------------------------------------------------
# plain data series for external plotting (no plotting here)


def _plot_oscillation(h=1 / 128) -> dict:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    f = field_library("power", g, alpha=0.5)
    prof = oscillation_profile(f, 0.5, 0.5, 5)
    return {"radii": prof.radii.tolist(),
            "oscillations": prof.oscillations.tolist()}


def _plot_hitting(h=1 / 16) -> dict:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    target = ClosedBall((0.0, 0.0), 0.25)
    u = discrete_harmonic_hitting(g, target, Ball((0.0, 0.0), 1.0))
    x = g.axes()[0]
    mid = g.counts[1] // 2
    return {"x": x.tolist(), "hitting": u.values[:, mid].tolist()}


def _plot_distribution(h=1 / 32) -> dict:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    f = field_library("fundamental", g)
    mus = np.geomspace(0.1, float(f.values.max()), 32)
    meas = [float((f.values >= m).sum()) * g.cell_measure for m in mus]
    return {"mu": mus.tolist(), "measure": meas}


PLOTS: dict[str, Callable[..., dict]] = {
    "oscillation-profile": _plot_oscillation,
    "hitting-profile": _plot_hitting,
    "distribution": _plot_distribution,
}
