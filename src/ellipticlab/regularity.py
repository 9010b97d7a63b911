"""Oscillation decay, Harnack-type inequalities and pointwise estimates.

These checks take concrete fields (usually solutions or supersolutions
produced by the solvers or the closed-form library) and verify the
quantitative estimates with explicit constants, reporting the two sides
and the slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from .contact import localization_barrier
from .coverings import CellUnion, dyadic_decomposition
from .grid import (ScalarField, Ball, ClosedBall, Cube, ball_volume,
                   holder_seminorm, oscillation, _lp)
from .operators import (Ellipticity, gradient, hessian, laplacian,
                        pucci_minus, pucci_plus)
from .reports import make_report, CheckReport, EstimateConstants

__all__ = [
    "DecayProfile", "oscillation_profile", "holder_from_decay",
    "decay_implies_modulus_check", "mean_value_check",
    "weak_harnack_laplacian_check", "harnack_quotient_check",
    "weak_harnack_ue_check",
    "diminish_of_distribution_check", "local_max_check",
    "ball_average_laplacian", "mollification_identity_check",
    "morrey_check", "rolle_gradient_point", "ball_average",
]


@dataclass
class DecayProfile:
    """Oscillations of a field over a geometric schedule of balls."""

    radii: NDArray
    oscillations: NDArray
    rho: float
    center: tuple[float, ...]

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.oscillations = np.asarray(self.oscillations, dtype=float)
        if len(self.radii) != len(self.oscillations):
            raise ValueError("radii/oscillations length mismatch")
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii must decrease")


def oscillation_profile(fld: ScalarField, r0: float, rho: float,
                        depth: int) -> DecayProfile:
    """Oscillations over the balls ``B_{rho^k r0}`` about the origin for
    k = 0..depth.

    Stops early (raises) if a ball captures no grid node.
    """
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    center = (0.0,) * fld.grid.dim
    radii, oscs = [], []
    for k in range(depth + 1):
        r = r0 * rho ** k
        oscs.append(oscillation(fld, ClosedBall(center, r)))
        radii.append(r)
    return DecayProfile(radii=np.array(radii), oscillations=np.array(oscs),
                        rho=rho, center=center)


def holder_from_decay(theta: float, rho: float) -> EstimateConstants:
    """Exponent and constant produced by a geometric oscillation decay.

    A per-step drop ``osc(rho r) <= (1-theta) osc(r)`` yields the power
    modulus with ``alpha = ln(1-theta)/ln(rho)`` and ``C = 1/(1-theta)``.
    """
    if not (0 < theta < 1) or not (0 < rho < 1):
        raise ValueError("theta and rho must lie in (0, 1)")
    alpha = math.log(1 - theta) / math.log(rho)
    return EstimateConstants(alpha=alpha, C=1.0 / (1 - theta),
                             theta=theta, rho=rho)


def decay_implies_modulus_check(profile: DecayProfile,
                                theta: float) -> CheckReport:
    """Chain the one-step decay into the power modulus.

    Verifies each step ``osc_{k+1} <= (1-theta) osc_k`` (reporting the
    first failing step), then checks the chained bound
    ``osc_k <= (1-theta)^k osc_0`` — whose margin vanishes identically
    for an exactly geometric profile — and the induced modulus
    ``osc(B_r) <= C r^alpha osc_0`` at the recorded radii.
    """
    consts = holder_from_decay(theta, profile.rho)
    osc = profile.oscillations
    osc0 = osc[0]
    scale = max(osc0, 1e-300)
    step_tol = 1e-12 * scale
    for k in range(len(osc) - 1):
        if osc[k + 1] > (1 - theta) * osc[k] + step_tol:
            return make_report(
                "decay-to-modulus", osc[k + 1], (1 - theta) * osc[k],
                constants={"failing_step": k, **consts.to_dict()},
                notes=f"one-step decay fails at k={k}")
    ks = np.arange(len(osc))
    chained = (1 - theta) ** ks * osc0
    margin = float(np.min(chained - osc))
    r1 = profile.radii / profile.radii[0]
    modulus_ok = bool(np.all(
        osc <= consts.C * r1 ** consts.alpha * osc0 + step_tol))
    rep = CheckReport(
        name="decay-to-modulus",
        lhs=float(np.max(osc - chained)), rhs=0.0, margin=margin,
        passed=bool(margin >= -step_tol) and modulus_ok,
        constants={**consts.to_dict(), "modulus_ok": modulus_ok},
        grid={}, notes="chained geometric bound; zero margin iff exact decay")
    return rep


# ---------------------------------------------------------------------------
# ball averages and the mean value bound


def ball_average(fld: ScalarField, center, radius: float) -> float:
    """Plain node average over the closed ball."""
    m = ClosedBall(tuple(np.atleast_1d(center)), radius).mask(fld.grid)
    if fld.mask is not None:
        m = m & fld.mask
    if not m.any():
        raise ValueError("ball contains no grid node")
    return float(fld.values[m].mean())


def mean_value_constant(n: int, p: float) -> float:
    """C with ``avg_{B_r} u <= u(0) + C r^{2-n/p} ||(lap u)_+||_{L^p(B_r)}``.

    Obtained by integrating the sphere-average derivative identity
    ``d/dr avg_{sphere r} u = (r/n) avg_{B_r} lap u`` twice, with Holder
    on the inner average (p = inf allowed).
    """
    if np.isinf(p):
        a, volf = 2.0, 1.0
    else:
        a = 2.0 - n / p
        volf = ball_volume(n) ** (1.0 / p)
    if a <= 0:
        raise ValueError("need p > n/2")
    return 1.0 / (a * (n + a) * volf)


def mean_value_check(fld: ScalarField, center, radius: float,
                     p: float = np.inf, tol: float | None = None) -> CheckReport:
    """Ball averages exceed the center value by at most the forcing term.

    ``avg_{B_r(x0)} u <= u(x0) + C r^{2-n/p} ||(lap u)_+||_{L^p(B_r)}``
    with the explicit constant from the sphere-average derivative
    identity.  For harmonic fields the right-hand side is just
    ``u(x0)``.
    """
    g = fld.grid
    n = g.dim
    a = 2.0 if np.isinf(p) else 2.0 - n / p
    C = mean_value_constant(n, p)
    avg = ball_average(fld, center, radius)
    u0 = fld.at(center)
    lap = laplacian(fld)
    ball = ClosedBall(tuple(np.atleast_1d(center)), radius)
    lp_vals = np.clip(lap.values[ball.mask(lap.grid)], 0, None)
    force = _lp(lp_vals, p, g.cell_measure)
    rhs = u0 + C * radius ** a * force
    if tol is None:
        tol = 5 * g.h * max(1.0, float(np.abs(fld.values).max()))
    return make_report("mean-value", avg, rhs, tol=tol,
                       constants={"C": C, "p": p, "exponent": a,
                                  "forcing": force, "radius": radius},
                       grid=g.meta(),
                       notes="ball average vs center value plus forcing")


def weak_harnack_laplacian_check(fld: ScalarField,
                                 p: float = np.inf) -> CheckReport:
    """Average of a nonnegative supersolution controlled by its infimum.

    Chains ``B_{1/3} subset B_{2/3}(x0) subset B_1`` at the minimum point
    ``x0`` of ``B_{1/3}``: the small-ball average is at most ``2^n``
    times the recentered average, which the mean value bound pins at
    ``u(x0)`` plus forcing, within ``tol = 5 h max(1, max |u|)``.
    """
    g = fld.grid
    n = g.dim
    b1 = Ball((0.0,) * n, 1.0)
    if float(fld.values[b1.mask(g)].min()) < -1e-9:
        return make_report("weak-harnack-laplacian", 1.0, 0.0,
                           notes="hypothesis failed: u negative on B_1")
    vals = fld.values[ClosedBall((0.0,) * n, 1 / 3).mask(g)]
    inf13 = float(vals.min())
    avg13 = float(vals.mean())
    # the mean value bound on B_{2/3}(x0), with its constant and exponent
    C_mv = mean_value_constant(n, p)
    a = 2.0 if np.isinf(p) else 2.0 - n / p
    lap = laplacian(fld)
    lp_vals = np.clip(lap.values[b1.mask(lap.grid)], 0, None)
    force = _lp(lp_vals, p, g.cell_measure)
    C_impl = 2.0 ** n * max(1.0, C_mv * (2 / 3) ** a)
    rhs = C_impl * (inf13 + force)
    tol = 5 * g.h * max(1.0, float(np.abs(fld.values).max()))
    return make_report("weak-harnack-laplacian", avg13, rhs, tol=tol,
                       constants={"C_impl": C_impl, "inf": inf13,
                                  "forcing": force, "p": p, "tol": tol},
                       grid=g.meta(),
                       notes="B_1/3 average vs infimum plus forcing")


def harnack_quotient_check(fld: ScalarField, r: float,
                           slack: float = 0.05) -> CheckReport:
    """Two-sided Harnack bound for positive harmonic fields.

    ``sup_{B_r} u <= ((1-r)/(1-3r))^n inf_{B_r} u`` for r < 1/3, from
    sandwiching ball averages between ``B_{1-3r}`` and ``B_{1-r}``
    translates.
    """
    if not (0 < r < 1 / 3):
        raise ValueError("radius must lie in (0, 1/3)")
    g = fld.grid
    n = g.dim
    res = laplacian(fld)
    inner = Ball((0.0,) * n, 1.0 - 2 * g.h)
    im = inner.mask(res.grid)
    # harmonicity guard relative to the local curvature scale: the
    # discrete residual of a smooth harmonic field is O(h^2 D^4 u), and
    # D^4 u is bounded by D^2 u divided by the squared distance to the
    # nearest singularity, itself at least ~h for a resolvable field
    curv = float(np.abs(hessian(fld).values[im]).max())
    resid = float(np.abs(res.values[im]).max())
    resid_tol = 100 * g.h * max(1.0, curv)
    ball = ClosedBall((0.0,) * n, r)
    vals = fld.values[ball.mask(g)]
    if vals.min() <= 0:
        return make_report("harnack-quotient", 1.0, 0.0,
                           notes="hypothesis failed: u not positive on B_r")
    quotient = float(vals.max() / vals.min())
    bound = ((1 - r) / (1 - 3 * r)) ** n
    rep = make_report("harnack-quotient", quotient, bound + slack,
                      constants={"bound": bound, "r": r, "residual": resid},
                      grid=g.meta(),
                      notes="sup/inf over B_r vs translation-ball constant")
    if resid > resid_tol:
        rep.passed = False
        rep.notes += "; field is not harmonic at grid tolerance"
    return rep


# ---------------------------------------------------------------------------
# uniformly elliptic weak Harnack machinery


def weak_harnack_ue_check(fld: ScalarField, ell: Ellipticity) -> CheckReport:
    """Distribution decay for nonnegative supersolutions.

    With the one-step distribution estimate constants ``eta = 1/2`` and
    ``M = 64`` the exponent is ``eps = -ln(1-eta)/ln M`` and
    ``sup_mu mu^eps |{u >= mu} cap Q_1| <= M^eps (min_{Q_3} u + f)^eps``
    where ``f`` is the L^n norm of the positive part of the minimal
    Pucci operator; the supremum is taken over ``n_levels = 64``
    geometrically spaced levels ``mu``.
    """
    g = fld.grid
    n = g.dim
    if float(fld.values.min()) < -1e-9:
        return make_report("weak-harnack-ue", 1.0, 0.0,
                           notes="hypothesis failed: u negative")
    eta = 0.5
    M = 64.0
    n_levels = 64
    eps = -math.log(1 - eta) / math.log(M)
    C = M ** eps
    q1 = Cube((0.0,) * n, 1.0)
    q3 = Cube((0.0,) * n, 3.0, closed=True)
    min_q3 = float(fld.values[q3.mask(g)].min())
    P = pucci_minus(hessian(fld).values, ell)
    f = _lp(np.clip(P, 0, None), n, g.cell_measure)
    m1 = q1.mask(g)
    umax = float(fld.values[m1].max())
    mus = np.geomspace(max(umax * 1e-3, 1e-9), max(umax, 1e-6) * 1.2,
                       n_levels)
    lhs = 0.0
    worst = None
    for mu in mus:
        meas = float((fld.values[m1] >= mu).sum()) * g.cell_measure
        v = mu ** eps * meas
        if v > lhs:
            lhs, worst = v, mu
    rhs = C * (min_q3 + f) ** eps
    return make_report("weak-harnack-ue", lhs, rhs,
                       constants={"eps": eps, "C": C, "eta": eta, "M": M,
                                  "min_Q3": min_q3, "forcing": f,
                                  "worst_level": worst,
                                  "n_levels": n_levels},
                       grid=g.meta(),
                       notes="distribution decay over Q_1 for supersolutions")


def diminish_of_distribution_check(fld: ScalarField, ell: Ellipticity,
                                   depth: int = 4) -> CheckReport:
    """One covering step improves the distribution of a supersolution.

    The superlevel set ``{u > 1}`` inside the unit cube is rasterized and
    decomposed into maximal dyadic cubes; around each cube the localized
    measure estimate forces a definite fraction of ``{u <= M}`` nearby.
    Aggregated: ``|{1 < u <= M} cap Q_1| >= eta |{u > 1} cap Q_1|``
    with ``eta = eta0 |B_{1/2}|``, ``eta0 = 0.05``, and ``M`` four times
    the supremum of the localization barrier at ``rho = 1/4``.
    """
    g = fld.grid
    n = g.dim
    eta0 = 0.05
    # barrier supremum for the ellipticity window at rho = 1/4,
    # scaled by the measure-estimate threshold 1/theta = 4
    fam = localization_barrier(ell, n, 0.25, Ball((0.0,) * n, 0.125))
    M = 4.0 * fam.sup_value
    E = CellUnion.from_field_level(fld, 1.0, depth)
    dec = dyadic_decomposition(E, max_depth=depth)
    q1 = Cube((0.0,) * n, 1.0, closed=True)
    m1 = q1.mask(g)
    meas_E = float(E.measure)

    # per selected cube: the enlarged ball meets {u <= 1}, and a definite
    # fraction of the cube must already sit below the jump level M
    pts = g.coords()
    min_frac = 1.0
    ball_ok = True
    for cube in dec.cubes:
        ctr = np.array([float(x) for x in cube.center()])
        side = float(cube.side)
        qmask = np.all(np.abs(pts - ctr) <= side / 2 + 1e-12, axis=-1) & m1
        if not qmask.any():
            continue
        frac = float((fld.values[qmask] <= M).sum()) / float(qmask.sum())
        min_frac = min(min_frac, frac)
        rad = 3 * side * math.sqrt(n) / 2
        near = np.linalg.norm(pts - ctr, axis=-1) <= rad
        if near.any() and float(fld.values[near].min()) > 1.0 + 1e-9:
            ball_ok = False
    mid = (fld.values <= M) & (fld.values > 1.0) & m1
    meas_mid = float(mid.sum()) * g.cell_measure
    eta = eta0 * ball_volume(n, 0.5)
    rep = make_report(
        "diminish-of-distribution", eta * meas_E, meas_mid,
        constants={"eta": eta, "eta0": eta0, "M": M,
                   "n_cubes": len(dec.cubes),
                   "min_cube_fraction": min_frac,
                   "residual": float(dec.residual),
                   "superlevel_measure": meas_E},
        grid=g.meta(),
        notes="mass moved below level M per covering step")
    if not ball_ok:
        rep.passed = False
        rep.notes += "; enlarged cube ball misses {u<=1}"
    return rep


def local_max_check(fld: ScalarField, ell: Ellipticity | None = None,
                    eps: float = 1.0, p: float = np.inf,
                    C_pinned: float = 50.0) -> CheckReport:
    """Local maximum principle: sup bounded by a tiny integral norm.

    Laplacian mode (``ell=None``): ``sup_{B_1/2} u_+ <= C (||u_+||_{L^eps(B_1)}
    + ||(lap u)_-||_{L^p})``; with an ellipticity window, the forcing is
    the L^n norm of the negative part of the maximal Pucci operator.
    The implementation constant is pinned per mode.
    """
    g = fld.grid
    n = g.dim
    half = ClosedBall((0.0,) * n, 0.5)
    lhs = float(np.clip(fld.values[half.mask(g)], 0, None).max())
    b1 = Ball((0.0,) * n, 1.0)
    up = np.clip(fld.values[b1.mask(g)], 0, None)
    u_eps = _lp(up, eps, g.cell_measure)
    if ell is None:
        lap = laplacian(fld)
        fm = np.clip(-lap.values[b1.mask(lap.grid)], 0, None)
        force = _lp(fm, p, g.cell_measure)
        mode = "laplacian"
    else:
        H = hessian(fld)
        Pp = pucci_plus(H.values, ell)
        fm = np.clip(-Pp[b1.mask(H.grid)], 0, None)
        force = _lp(fm, n, g.cell_measure)
        mode = "pucci"
    rhs = C_pinned * (u_eps + force)
    return make_report("local-max", lhs, rhs,
                       constants={"C_pinned": C_pinned, "eps": eps,
                                  "mode": mode, "forcing": force,
                                  "u_eps_norm": u_eps},
                       grid=g.meta(),
                       notes="sup over B_1/2 vs small integral norm")


def ball_average_laplacian(fld: ScalarField, center, rho: float) -> tuple[float, CheckReport]:
    """Second-order ball-average expansion recovers the Laplacian.

    ``avg_{B_rho}(u - u(x0)) / rho^2 -> lap u(x0) / (2(n+2))``;
    Richardson extrapolation over ``rho`` and ``rho/2`` removes the
    next-order term.
    """
    g = fld.grid
    n = g.dim
    u0 = fld.at(center)

    def v(r):
        return (ball_average(fld, center, r) - u0) / r ** 2

    v1, v2 = v(rho), v(rho / 2)
    limit = (4 * v2 - v1) / 3
    lap0 = laplacian(fld).at(center)
    expected = lap0 / (2 * (n + 2))
    scale = max(1.0, abs(lap0))
    tol = 40 * (g.h / rho) * scale
    rep = make_report("ball-average-laplacian", abs(limit - expected), tol,
                      tol=0.0,
                      constants={"limit": limit, "expected": expected,
                                 "coefficient": 1.0 / (2 * (n + 2)),
                                 "rho": rho},
                      grid=g.meta(),
                      notes="extrapolated rescaled ball average vs lap/(2(n+2))")
    return limit, rep


def mollification_identity_check(fld: ScalarField) -> CheckReport:
    """Smoothing by a compact bump moves smooth fields by O(h^2).

    Convolves with the normalized quartic bump ``(1 - |y/r|^2)^2`` of
    radius ``r = 3h`` and compares against the field on the interior; the
    deviation is bounded by ``C_pinned r^2 max|D^2 u|``, ``C_pinned = 10``.
    """
    g = fld.grid
    k = 3               # bump radius in cells
    C_pinned = 10.0
    r = k * g.h
    ax = np.arange(-k, k + 1) * g.h
    mesh = np.meshgrid(*([ax] * g.dim), indexing="ij")
    r2 = sum(a ** 2 for a in mesh) / r ** 2
    ker = np.clip(1 - r2, 0, None) ** 2
    ker /= ker.sum()
    sm = ndimage.convolve(fld.values, ker, mode="nearest")
    core = tuple(slice(k, c - k) for c in g.counts)
    dev = float(np.abs(sm[core] - fld.values[core]).max())
    d2 = float(np.abs(hessian(fld).values).max())
    rhs = C_pinned * r ** 2 * max(d2, 1e-12)
    return make_report("mollification-identity", dev, rhs,
                       constants={"C_pinned": C_pinned, "radius": r,
                                  "d2": d2},
                       grid=g.meta(),
                       notes="bump smoothing deviation vs curvature * r^2")


def morrey_check(fld: ScalarField, p: float) -> CheckReport:
    """Gradient in L^p controls a Holder modulus (p above the dimension).

    1-d: ``|u(x)-u(y)| <= ||u'||_{L^p} |x-y|^{1-1/p}`` with constant 1.
    Higher dimensions: ``sup_r r^{-(1-n/p)} osc(B_r) <= C ||Du||_{L^p(B_1)}``
    with the pinned constant ``C_pinned = 4``.
    """
    g = fld.grid
    n = g.dim
    if p <= n:
        raise ValueError("need p > dim")
    G = gradient(fld)
    gn = np.linalg.norm(G.values, axis=-1)
    if n == 1:
        alpha = 1 - 1 / p
        norm = _lp(gn, p, g.h)
        # exhaustive pairs on the interior
        best = holder_seminorm(ScalarField(G.grid, fld.values[1:-1]), alpha)
        rhs = norm + 4 * g.h ** alpha * max(1.0, float(np.abs(gn).max()))
        return make_report("morrey", best, rhs,
                           constants={"p": p, "alpha": alpha, "C": 1.0},
                           grid=g.meta(), notes="1-d sharp Morrey bound")
    alpha = 1 - n / p
    C_pinned = 4.0
    b1 = Ball((0.0,) * n, 1.0)
    norm = _lp(gn[b1.mask(G.grid)], p, g.cell_measure)
    best = 0.0
    r = 0.5
    while r >= 4 * g.h:
        osc = oscillation(fld, ClosedBall((0.0,) * n, r))
        best = max(best, osc / r ** alpha)
        r /= 2
    return make_report("morrey", best, C_pinned * norm,
                       constants={"p": p, "alpha": alpha,
                                  "C_pinned": C_pinned},
                       grid=g.meta(),
                       notes="scaled oscillation vs L^p gradient norm")


def rolle_gradient_point(fld: ScalarField, x1,
                         r: float) -> tuple[tuple, CheckReport]:
    """A node with small gradient inside every ball, by paraboloid touching.

    Slides the cap ``min u + osc (1 - |x-x1|^2/(delta r)^2)``,
    ``delta = 1/2``, below the field inside ``B_{delta r}(x1)``; at the
    touching node ``|Du| <= 2 osc / (delta r)`` up to lattice slack.
    """
    g = fld.grid
    delta = 0.5
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    ball = ClosedBall(tuple(x1), delta * r)
    m = ball.mask(g)
    if not m.any():
        raise ValueError("ball contains no grid node")
    pts = g.coords()[m]
    vals = fld.values[m]
    osc = float(fld.values.max() - fld.values.min())
    cap = vals.min() + osc * (1 - np.sum((pts - x1) ** 2, axis=-1)
                              / (delta * r) ** 2)
    k = int(np.argmin(vals - cap))
    x2 = pts[k]
    idx = fld.grid.index_of(x2)
    on_hull = any(i == 0 or i == c - 1 for i, c in zip(idx, g.counts))
    if on_hull:
        grad_norm = float("nan")
    else:
        G = gradient(fld)
        grad_norm = float(np.linalg.norm(
            G.values[tuple(np.asarray(idx) - 1)]))
    bound = 2 * osc / (delta * r)
    slack = 8 * osc * g.h / (delta * r) ** 2
    rep = make_report("rolle-gradient", grad_norm if not on_hull else 0.0,
                      bound, tol=slack,
                      constants={"osc": osc, "delta": delta, "r": r,
                                 "on_hull": on_hull},
                      grid=g.meta(),
                      notes="gradient at the cap-contact node")
    if on_hull:
        rep.notes += "; contact on the hull, gradient unavailable"
    return tuple(x2), rep
