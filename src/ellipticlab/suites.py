"""Named verification suites run by the command-line interface.

Each suite builds a handful of concrete fields at a default resolution
and runs the estimate checks of one theme, returning the list of
reports; it decides no verdict itself, every report comes from an
exported check.  The suites build their closed-form inputs themselves:
a harmonic polynomial, a Poisson kernel, Gaussians, ``|x|^alpha`` and
the radial Pucci profile.  Resolutions are chosen so a suite stays well
under a minute.
A suite's keyword parameters are exactly the options it reads.
"""
from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .grid import Grid, ScalarField, Ball, ClosedBall, Cube, _sq_dist
from .operators import (Ellipticity, pucci_sandwich_residual,
                        fractional_linear_check,
                        fractional_gaussian_refine_check,
                        fractional_scaling_check)
from .contact import (measure_estimate_check, localization_check, abp_bound,
                      aleksandrov_check, hessian_contact_check,
                      envelope_sandwich_check)
from .coverings import (CellUnion, BallCollection, Cylinder, DyadicCube,
                        cz_cube_lemma_check, vitali_check, stacking,
                        sun_rising, ink_spots_check)
from .regularity import (decay_implies_modulus_check, mean_value_check,
                         weak_harnack_laplacian_check, harnack_quotient_check,
                         weak_harnack_ue_check,
                         diminish_of_distribution_check, local_max_check,
                         ball_average_laplacian,
                         mollification_identity_check, morrey_check,
                         rolle_gradient_check,
                         second_diff_supersolution_check,
                         second_diff_lower_bound_check)
from .solvers import (BoundaryData, SolverConfig, WalkConfig, solve_pucci,
                      walk_vs_oracle_check, probabilistic_harnack_check)
from .reports import CheckReport

__all__ = ["SUITES", "run_suite"]


def _radial(g: Grid, fn, r_clip=0.0) -> ScalarField:
    """``fn(|x|)`` with ``|x|`` clamped below at ``max(r_clip, h/2)``, so
    the nodes with ``|x| < r_clip`` take the value at ``r_clip``."""
    r = np.sqrt(g._r2)
    return ScalarField(g, fn(np.maximum(r, max(r_clip, g.h / 2))))


def _quantile(vals: np.ndarray, q: float) -> float:
    """``np.quantile(vals, q)`` for a 1-D ``vals`` by numpy's linear rule:
    the virtual index ``(n - 1) q`` into the sorted values, then the
    two-sided interpolation of numpy's ``_lerp`` (from the nearer end).
    Without ``np.quantile``, whose ``np.unique`` imports ``numpy.ma``."""
    s = np.sort(vals)
    at = (len(s) - 1) * q
    i = math.floor(at)
    a, b, t = s[i], s[min(i + 1, len(s) - 1)], at - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _poisson_kernel_ish(g: Grid) -> ScalarField:
    """Positive and harmonic on the open ``B_1``, with its pole at
    ``1.05 e_1``, which is a node when 1.05 is a multiple of h: the
    kernel's values inside ``B_1`` and 0 off it, so a pole on a node
    leaves every value finite."""
    e = 1.05 * np.eye(g.dim)[0]
    vals = np.zeros(g.counts)
    np.divide(1.05 ** 2 - g._r2, _sq_dist(g.mesh(), e) ** (g.dim / 2),
              out=vals, where=g._r2 < 1.0)
    return ScalarField(g, vals)


def _suite_laplacian(h=1 / 128) -> list[CheckReport]:
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out = []
    x, y = g.mesh()
    harm = ScalarField(g, ((x + 1j * y) ** 3).real)
    out.append(mean_value_check(harm, (0.0, 0.0), 0.75))
    out.append(harnack_quotient_check(_poisson_kernel_ish(g), 0.25))
    lin = ScalarField(g, np.broadcast_to(2.0 + x, g.counts).copy())
    out.append(weak_harnack_laplacian_check(lin))
    gau = ScalarField(g, np.exp(-g._r2 / (2 * 0.6 * 0.6)))
    out.append(ball_average_laplacian(gau, (0.0, 0.0), 0.25))
    out.append(decay_implies_modulus_check(
        _radial(g, lambda r: r ** 0.5), 0.5, 0.5, 4, 1 - 0.5 ** 0.5))
    out.append(local_max_check(gau))
    out.append(mollification_identity_check(gau))
    # |x|^{7/8} is in W^{1,8}(B_1) in 2-D, so both sides converge as h falls
    out.append(morrey_check(_radial(g, lambda r: r ** 0.875), p=8.0))
    out.append(rolle_gradient_check(gau, (0.1, 0.0), 0.5))
    return out


def _suite_ue(h=1 / 24) -> list[CheckReport]:
    ell = Ellipticity(1.0, 2.0)
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out = []
    pts = g.coords()
    quad = ScalarField(g, 0.5 * np.einsum("...i,ij,...j->...", pts,
                                          np.diag([1.5, -0.5]), pts))
    out.append(pucci_sandwich_residual(quad, np.diag([1.2, 1.2]), ell))
    # solved supersolution of the minimal operator on a big cube, with a
    # boundary spike so the distribution over Q_1 is nontrivial
    hb = 12 * h / 5                     # 1/10 at the default h
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
    lvl = float(_quantile(sup.values[q1.mask(gb)], 0.7))
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
    pts = g.coords()
    smooth = ScalarField(g, np.sin(3 * pts[..., 0]) * np.cos(2 * pts[..., 1]))
    out.append(envelope_sandwich_check(smooth))
    out.append(abp_bound(ScalarField(g, 0.5 * g._r2 - 0.5),
                         Ellipticity(1.0, 2.0)))
    out.append(aleksandrov_check(ScalarField(
        g, _sq_dist(pts, np.zeros(2)) - 1.0), Ball((0.0, 0.0), 1.0)))
    ell = Ellipticity(1.0, 2.0)
    # the homogeneous supersolution profile |x|^(1 - Lam n / lam), clamped
    # at radius 4h and scaled to a least value of 1 over the closed B_1/2,
    # as the check's hypothesis reads it, whether or not (0.5, 0) is a node
    barrier_probe = _radial(
        g, lambda r: r ** (1.0 - ell.Lam * g.dim / ell.lam), 4 * g.h)
    half = ClosedBall((0.0, 0.0), 0.5).mask(g)
    vclip = np.minimum(barrier_probe.values
                       / barrier_probe.values[half].min(), 40.0)
    out.append(localization_check(ScalarField(g, vclip), ell, rho=0.25))
    out.append(hessian_contact_check(smooth, 8.0, Ball((0.0, 0.0), 0.25)))
    return out


def _suite_coverings() -> list[CheckReport]:
    out = []
    F = Fraction
    rng = np.random.default_rng(3)
    out.append(cz_cube_lemma_check(CellUnion(4, rng.random((16, 16)) < 0.4)))
    centers = [(F(rng.integers(-40, 40), 100), F(rng.integers(-40, 40), 100))
               for _ in range(40)]
    radii = [F(int(rng.integers(1, 20)), 100) for _ in range(40)]
    out.append(vitali_check(BallCollection(tuple(centers), tuple(radii))))
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
    out.append(sun_rising(u, m=4.0))
    g2 = Grid.cover((0.0, 0.0), 1.0, 1 / 48)
    E = Ball((0.0, 0.0), 0.5)
    Freg = Ball((0.0, 0.0), 0.1)
    out.append(ink_spots_check(E, Freg, g2, eta=0.3))
    return out


def _suite_fractional(h=1 / 16) -> list[CheckReport]:
    out = []
    g1 = Grid.cover((0.0,), 10.0, h)
    out.append(fractional_linear_check(
        ScalarField(g1, g1.coords() @ np.asarray([0.3]))))
    gau = ScalarField(g1, np.exp(-g1._r2 / 2))
    out.append(fractional_gaussian_refine_check(gau))
    # scaling symmetry: u(x/2) at 0 equals 2^-sigma times u at 0
    out.append(fractional_scaling_check(
        gau, ScalarField(g1, np.exp(-g1._r2 / 8))))
    return out


def _suite_probabilistic(h=1 / 12, n_samples=20000) -> list[CheckReport]:
    out = []
    g = Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    out.append(walk_vs_oracle_check(g, ClosedBall((0.3, 0.0), 0.2),
                                    WalkConfig(n_samples=n_samples, seed=11)))
    A = ClosedBall((0.2, 0.1), 0.15)
    out.append(probabilistic_harnack_check(g, A, 0.5))
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
    out.append(second_diff_supersolution_check(sol, ell))
    out.append(second_diff_lower_bound_check(sol))
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

