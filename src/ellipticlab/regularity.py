"""Oscillation decay, Harnack-type inequalities and pointwise estimates.

Each check takes the concrete field it judges (a solution or
supersolution from the solvers, or a closed-form field that a suite
builds) and returns one report: the two sides of the estimate with
explicit constants, and the slack.
"""
from __future__ import annotations

import math

import numpy as np

from .contact import localization_barrier
from .coverings import CellUnion, dyadic_decomposition
from .grid import (ScalarField, Ball, ClosedBall, Cube, oscillation,
                   _around, _ball_volume, _fold, _interior, _lp, _sq_dist)
from .operators import (Ellipticity, gradient, hessian, laplacian,
                        pucci_minus, pucci_plus, _apply, _d2_abs_max,
                        _d2_table, _grad, _lap, _second_difference, _shift,
                        _taps)
from .reports import make_report, unresolved, CheckReport

__all__ = [
    "decay_implies_modulus_check", "mean_value_check",
    "weak_harnack_laplacian_check", "harnack_quotient_check",
    "weak_harnack_ue_check", "diminish_of_distribution_check",
    "local_max_check", "ball_average_laplacian",
    "mollification_identity_check", "morrey_check", "rolle_gradient_check",
    "second_diff_supersolution_check", "second_diff_lower_bound_check",
]


def _holder_from_decay(theta: float, rho: float) -> dict[str, float]:
    """Exponent and constant produced by a geometric oscillation decay,
    as ``{alpha, C, theta, rho}``.

    A per-step drop ``osc(rho r) <= (1-theta) osc(r)`` yields the power
    modulus with ``alpha = ln(1-theta)/ln(rho)`` and ``C = 1/(1-theta)``.
    """
    if not (0 < theta < 1) or not (0 < rho < 1):
        raise ValueError("theta and rho must lie in (0, 1)")
    return {"alpha": math.log(1 - theta) / math.log(rho),
            "C": 1.0 / (1 - theta), "theta": float(theta), "rho": float(rho)}


def decay_implies_modulus_check(fld: ScalarField, r0: float, rho: float,
                                depth: int, theta: float) -> CheckReport:
    """Chain the one-step decay of a field's oscillations into the power
    modulus.

    The oscillations ``osc_k`` are those of ``fld`` over the closed balls
    ``B_{rho^k r0}`` about the origin, k = 0..depth.  Verifies each step
    ``osc_{k+1} <= (1-theta) osc_k`` (reporting the first failing step),
    then checks the chained bound ``osc_k <= (1-theta)^k osc_0`` — whose
    margin vanishes identically for an exactly geometric decay — and the
    induced modulus ``osc(B_r) <= C r^alpha osc_0`` at those radii.

    One oscillation needs two nodes: a ball of fewer is the unmet
    hypothesis, its oscillation read as 0.  Raises ``ValueError`` unless
    ``r0`` is a finite number above 0, ``theta`` and ``rho`` lie in (0, 1)
    and ``depth`` is at least 0.
    """
    consts = _holder_from_decay(theta, rho)
    if not 0 < r0 < math.inf:
        raise ValueError(f"r0 must be a finite number above 0, got {r0}")
    if not depth >= 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    center = (0.0,) * fld.grid.dim
    radii = np.array([r0 * rho ** k for k in range(depth + 1)])
    balls = [ClosedBall(center, r) for r in radii]
    # the balls nest: those ``balls[thin:]`` of fewer than 2 nodes, counted
    # up from the smallest, end with the largest, of ``nodes``
    thin, nodes = depth + 1, 2
    while thin and (n := np.count_nonzero(
            balls[thin - 1].mask(fld.grid))) < 2:
        thin, nodes = thin - 1, n
    osc = np.array([oscillation(fld, b) for b in balls[:thin]]
                   + [0.0] * (depth + 1 - thin))
    osc0 = osc[0]
    scale = max(osc0, 1e-300)
    step_tol = 1e-12 * scale
    k = next((k for k in range(len(osc) - 1)
              if osc[k + 1] > (1 - theta) * osc[k] + step_tol), None)
    if k is not None:
        lhs, rhs, fail = osc[k + 1], (1 - theta) * osc[k], None
        consts = {"failing_step": k, **consts}
        notes = f"one-step decay fails at k={k}"
    else:
        chained = (1 - theta) ** np.arange(len(osc)) * osc0
        r1 = radii / radii[0]
        modulus_ok = bool(np.all(
            osc <= consts["C"] * r1 ** consts["alpha"] * osc0 + step_tol))
        lhs, rhs = np.max(osc - chained), 0.0
        notes = "chained geometric bound; zero margin iff exact decay"
        fail = None if modulus_ok else "modulus bound fails at a radius"
    return make_report("decay-to-modulus", lhs, rhs, tol=step_tol,
                       constants=consts, grid=fld.grid.meta(), notes=notes,
                       fail=fail, hypothesis=unresolved(
                           f"B_{radii[min(thin, depth)]:g}", nodes, 2))


# ---------------------------------------------------------------------------
# ball averages and the mean value bound


def _ball_average(fld: ScalarField, center, radius: float) -> float:
    """Plain node average over the closed ball."""
    m = ClosedBall(tuple(np.atleast_1d(center)), radius).mask(fld.grid)
    if not m.any():
        raise ValueError("ball contains no grid node")
    return float(fld.values[m].mean())


def _mean_value_constant(n: int, p: float) -> float:
    """C with ``avg_{B_r} u <= u(0) + C r^{2-n/p} ||(lap u)_+||_{L^p(B_r)}``.

    Obtained by integrating the sphere-average derivative identity
    ``d/dr avg_{sphere r} u = (r/n) avg_{B_r} lap u`` twice, with Holder
    on the inner average (p = inf allowed).
    """
    if np.isinf(p):
        a, volf = 2.0, 1.0
    else:
        a = 2.0 - n / p
        volf = _ball_volume(n) ** (1.0 / p)
    if not a > 0:
        raise ValueError(f"p must be above n/2 = {n / 2}, got {p}")
    return 1.0 / (a * (n + a) * volf)


def mean_value_check(fld: ScalarField, center, radius: float,
                     p: float = np.inf) -> CheckReport:
    """Ball averages exceed the center value by at most the forcing term.

    ``avg_{B_r(x0)} u <= u(x0) + C r^{2-n/p} ||(lap u)_+||_{L^p(B_r)}``
    with the explicit constant from the sphere-average derivative
    identity, within ``tol = 5 h max(1, max |u|)``.  For harmonic fields
    the right-hand side is just ``u(x0)``.  ``radius`` must be positive.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    g = fld.grid
    n = g.dim
    a = 2.0 if np.isinf(p) else 2.0 - n / p
    C = _mean_value_constant(n, p)
    avg = _ball_average(fld, center, radius)
    u0 = fld.at(center)
    ball = ClosedBall(tuple(np.atleast_1d(center)), radius)
    lp_vals = np.clip(laplacian(fld)[ball.mask(g)[_interior(g.counts)]],
                      0, None)
    force = _lp(lp_vals, p, g.cell_measure)
    rhs = u0 + C * radius ** a * force
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
    ``B_{1/3}`` needs 1 node.
    """
    g = fld.grid
    n = g.dim
    m1 = Ball((0.0,) * n, 1.0).mask(g)
    min_b1 = float(fld.values[m1].min(initial=np.inf))
    vals = fld.values[ClosedBall((0.0,) * n, 1 / 3).mask(g)]
    # without a node in B_1/3 its infimum and average read 0
    inf13 = float(vals.min()) if vals.size else 0.0
    avg13 = float(vals.mean()) if vals.size else 0.0
    # the mean value bound on B_{2/3}(x0), with its constant and exponent
    C_mv = _mean_value_constant(n, p)
    a = 2.0 if np.isinf(p) else 2.0 - n / p
    lp_vals = np.clip(laplacian(fld)[m1[_interior(g.counts)]], 0, None)
    force = _lp(lp_vals, p, g.cell_measure)
    C_impl = 2.0 ** n * max(1.0, C_mv * (2 / 3) ** a)
    rhs = C_impl * (inf13 + force)
    tol = 5 * g.h * max(1.0, float(np.abs(fld.values).max()))
    return make_report("weak-harnack-laplacian", avg13, rhs, tol=tol,
                       constants={"C_impl": C_impl, "inf": inf13,
                                  "forcing": force, "p": p, "tol": tol},
                       grid=g.meta(),
                       notes="B_1/3 average vs infimum plus forcing",
                       hypothesis="hypothesis failed: u negative on B_1"
                       if min_b1 < -1e-9
                       else unresolved("B_1/3", vals.size, 1))


def harnack_quotient_check(fld: ScalarField, r: float) -> CheckReport:
    """Two-sided Harnack bound for positive harmonic fields.

    ``sup_{B_r} u <= ((1-r)/(1-3r))^n inf_{B_r} u`` for r < 1/3, from
    sandwiching ball averages between ``B_{1-3r}`` and ``B_{1-r}``
    translates; the quotient may exceed the bound by 0.05.  ``B_r``
    needs 1 node.  Harmonicity is judged on ``B_{1-2h}`` off the hull,
    which needs at least 1 node.
    """
    if not (0 < r < 1 / 3):
        raise ValueError("radius must lie in (0, 1/3)")
    g = fld.grid
    n = g.dim
    im = Ball((0.0,) * n, 1.0 - 2 * g.h).mask(g)[_interior(g.counts)]
    # harmonicity guard relative to the local curvature scale: the
    # discrete residual of a smooth harmonic field is O(h^2 D^4 u), and
    # D^4 u is bounded by D^2 u divided by the squared distance to the
    # nearest singularity, itself at least ~h for a resolvable field
    curv = _d2_abs_max(fld, im)
    resid = float(np.abs(laplacian(fld)).max(where=im, initial=0.0))
    resid_tol = 100 * g.h * max(1.0, curv)
    vals = fld.values[ClosedBall((0.0,) * n, r).mask(g)]
    positive = vals.size > 0 and vals.min() > 0
    # sup/inf has no value unless B_r holds a node and u > 0 there
    quotient = float(vals.max() / vals.min()) if positive else math.nan
    bound = ((1 - r) / (1 - 3 * r)) ** n
    slack = 0.05
    return make_report("harnack-quotient", quotient, bound + slack,
                       constants={"bound": bound, "r": r, "residual": resid,
                                  "slack": slack},
                       grid=g.meta(),
                       notes="sup/inf over B_r vs translation-ball constant",
                       hypothesis=unresolved("B_r", vals.size, 1)
                       or ("hypothesis failed: u not positive on B_r"
                           if not positive
                           else unresolved("B_(1-2h) off the hull",
                                           np.count_nonzero(im), 1)
                           or (None if resid <= resid_tol else
                               "field is not harmonic at grid tolerance")))


# ---------------------------------------------------------------------------
# uniformly elliptic weak Harnack machinery


def weak_harnack_ue_check(fld: ScalarField, ell: Ellipticity) -> CheckReport:
    """Distribution decay for nonnegative supersolutions.

    With the one-step distribution estimate constants ``eta = 1/2`` and
    ``M = 64`` the exponent is ``eps = -ln(1-eta)/ln M`` and
    ``sup_mu mu^eps |{u >= mu} cap Q_1| <= M^eps (min_{Q_3} u + f)^eps``
    where ``f`` is the L^n norm of the positive part of the minimal
    Pucci operator; the supremum is taken over ``n_levels = 64``
    geometrically spaced levels ``mu``.  ``u >= 0`` and ``f`` are taken
    over the closed cube ``Q_{4 sqrt(n)}``, which holds ``Q_3``: there the
    L^eps lemma states its hypotheses (Caffarelli-Cabre).  Its covering
    step splits ``Q_1`` into ``2^n`` children, so ``Q_1`` needs ``2^n``
    nodes; each is measured by its cell clipped to ``Q_1``.
    """
    g = fld.grid
    n = g.dim
    big = Cube((0.0,) * n, 4 * math.sqrt(n), closed=True).mask(g)
    min_big = float(fld.values[big].min(initial=np.inf))
    eta = 0.5
    M = 64.0
    n_levels = 64
    eps = -math.log(1 - eta) / math.log(M)
    C = M ** eps
    q3 = fld.values[Cube((0.0,) * n, 3.0, closed=True).mask(g)]
    # a set without a node reads 0; Q_1, in Q_3, names it
    min_q3 = float(q3.min()) if q3.size else 0.0
    P = pucci_minus(hessian(fld)[big[_interior(g.counts)]], ell)
    f = _lp(np.clip(P, 0, None), n, g.cell_measure)
    m1 = Cube((0.0,) * n, 1.0).mask(g)
    v1 = fld.values[m1]
    umax = float(v1.max()) if v1.size else 0.0
    mus = np.geomspace(max(umax * 1e-3, 1e-9), max(umax, 1e-6) * 1.2,
                       n_levels)
    # whole cells count h^n each; only the edge cells add clipped products
    x = g.coords()[m1]
    edge = ~Cube((0.0,) * n, 1.0 - g.h, closed=True).mask(g)[m1]
    clipped = _fold(np.multiply, np.minimum(x + g.h / 2, 0.5)
                    - np.maximum(x - g.h / 2, -0.5))
    lhs = 0.0
    worst = None
    for mu in mus:
        up = v1 >= mu
        meas = (float((up & ~edge).sum()) * g.cell_measure
                + float(clipped[up & edge].sum()))
        v = mu ** eps * meas
        if v > lhs:
            lhs, worst = v, mu
    # the base is negative only where u < 0 on Q_3, against the hypothesis
    rhs = C * max(min_q3 + f, 0.0) ** eps
    return make_report("weak-harnack-ue", lhs, rhs,
                       constants={"eps": eps, "C": C, "eta": eta, "M": M,
                                  "min_Q3": min_q3, "forcing": f,
                                  "worst_level": worst,
                                  "n_levels": n_levels},
                       grid=g.meta(),
                       notes="distribution decay over Q_1 for supersolutions",
                       hypothesis="hypothesis failed: u negative on "
                       "Q_(4 sqrt n)" if min_big < -1e-9
                       else unresolved("Q_1", np.count_nonzero(m1), 2 ** n))


def diminish_of_distribution_check(fld: ScalarField, ell: Ellipticity,
                                   depth: int = 4) -> CheckReport:
    """One covering step improves the distribution of a supersolution.

    The superlevel set ``{u > 1}`` inside the unit cube is rasterized and
    decomposed into maximal dyadic cubes; around each cube the localized
    measure estimate forces a definite fraction of ``{u <= M}`` nearby.
    Aggregated: ``|{1 < u <= M} cap Q_1| >= eta |{u > 1} cap Q_1|``
    with ``eta = eta0 |B_{1/2}|``, ``eta0 = 0.05``, and ``M`` four times
    the supremum of the localization barrier at ``rho = 1/4``.  The
    covering step splits ``Q_1`` into its ``2^n`` children, so ``Q_1``
    needs at least ``2^n`` nodes, and ``{u > 1}`` at least 1 cell; with
    fewer nodes ``{u > 1}`` is not rasterized.
    """
    if not depth >= 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    g = fld.grid
    n = g.dim
    eta0 = 0.05
    # barrier supremum for the ellipticity window at rho = 1/4,
    # scaled by the measure-estimate threshold 1/theta = 4
    M = 4.0 * localization_barrier(ell, n, 0.25)["M"]
    m1 = Cube((0.0,) * n, 1.0, closed=True).mask(g)
    coarse = unresolved("Q_1", np.count_nonzero(m1), 2 ** n)
    # a grid that does not resolve Q_1 may not hold its cell centers: E is
    # then empty, and the note on Q_1 decides
    E = CellUnion(depth, np.zeros((1 << depth,) * n, bool)) if coarse \
        else CellUnion.from_field_level(fld, 1.0, depth)
    dec = dyadic_decomposition(E, max_depth=depth)
    meas_E = float(E.measure)

    # per selected cube: the enlarged ball meets {u <= 1}, and a definite
    # fraction of the cube must already sit below the jump level M
    min_frac = 1.0
    ball_ok = True
    for cube in dec.cubes:
        ctr = tuple(float(x) for x in cube.center())
        side = float(cube.side)
        qmask = Cube(ctr, side, closed=True).mask(g) & m1
        if not qmask.any():
            continue
        frac = float((fld.values[qmask] <= M).sum()) / float(qmask.sum())
        min_frac = min(min_frac, frac)
        near = ClosedBall(ctr, 3 * side * math.sqrt(n) / 2).mask(g)
        if near.any() and float(fld.values[near].min()) > 1.0 + 1e-9:
            ball_ok = False
    mid = (fld.values <= M) & (fld.values > 1.0) & m1
    meas_mid = float(mid.sum()) * g.cell_measure
    eta = eta0 * _ball_volume(n, 0.5)
    return make_report(
        "diminish-of-distribution", eta * meas_E, meas_mid,
        constants={"eta": eta, "eta0": eta0, "M": M,
                   "n_cubes": len(dec.cubes),
                   "min_cube_fraction": min_frac,
                   "residual": float(dec.residual),
                   "superlevel_measure": meas_E},
        grid=g.meta(),
        notes="mass moved below level M per covering step",
        fail=None if ball_ok else "enlarged cube ball misses {u<=1}",
        hypothesis=coarse
        or unresolved("{u > 1}", np.count_nonzero(E.cells), 1, "cell"))


def local_max_check(fld: ScalarField, ell: Ellipticity | None = None,
                    eps: float = 1.0, p: float = np.inf) -> CheckReport:
    """Local maximum principle: sup bounded by a tiny integral norm.

    Laplacian mode (``ell=None``): ``sup_{B_1/2} u_+ <= C (||u_+||_{L^eps(B_1)}
    + ||(lap u)_-||_{L^p})``; with an ellipticity window, the forcing is
    the L^n norm of the negative part of the maximal Pucci operator.
    The implementation constant is pinned per mode: 50 with the
    Laplacian, 80 with the Pucci operator.  ``eps`` must be positive, and
    ``B_1/2`` needs 1 node.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = fld.grid
    n = g.dim
    half = ClosedBall((0.0,) * n, 0.5).mask(g)
    lhs = float(np.clip(fld.values[half], 0, None).max(initial=0.0))
    m1 = Ball((0.0,) * n, 1.0).mask(g)
    up = np.clip(fld.values[m1], 0, None)
    u_eps = _lp(up, eps, g.cell_measure)
    core = m1[_interior(g.counts)]
    if ell is None:
        fm = np.clip(-laplacian(fld)[core], 0, None)
        force = _lp(fm, p, g.cell_measure)
        mode, C_pinned = "laplacian", 50.0
    else:
        fm = np.clip(-pucci_plus(hessian(fld)[core], ell), 0, None)
        force = _lp(fm, n, g.cell_measure)
        mode, C_pinned = "pucci", 80.0
    rhs = C_pinned * (u_eps + force)
    return make_report("local-max", lhs, rhs,
                       constants={"C_pinned": C_pinned, "eps": eps,
                                  "mode": mode, "forcing": force,
                                  "u_eps_norm": u_eps},
                       grid=g.meta(),
                       notes="sup over B_1/2 vs small integral norm",
                       hypothesis=unresolved("B_1/2",
                                             np.count_nonzero(half), 1))


def ball_average_laplacian(fld: ScalarField, center,
                           rho: float) -> CheckReport:
    """Second-order ball-average expansion recovers the Laplacian.

    ``avg_{B_rho}(u - u(x0)) / rho^2 -> lap u(x0) / (2(n+2))``;
    Richardson extrapolation over ``rho`` and ``rho/2`` removes the
    next-order term; the extrapolated value is ``constants["limit"]``.
    ``rho`` must be positive.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    g = fld.grid
    n = g.dim
    idx = g.index_of(center)
    if not g._off_hull[idx]:
        raise ValueError(f"center {center} is on the outer layer of the grid")
    u0 = float(fld.values[idx])

    def v(r):
        return (_ball_average(fld, center, r) - u0) / r ** 2

    v1, v2 = v(rho), v(rho / 2)
    limit = (4 * v2 - v1) / 3
    lap0 = _lap(fld.values[_around(idx)], g.h).item()
    expected = lap0 / (2 * (n + 2))
    scale = max(1.0, abs(lap0))
    tol = 40 * (g.h / rho) * scale
    return make_report("ball-average-laplacian", abs(limit - expected), tol,
                       tol=0.0,
                       constants={"limit": limit, "expected": expected,
                                  "coefficient": 1.0 / (2 * (n + 2)),
                                  "rho": rho},
                       grid=g.meta(),
                       notes="extrapolated rescaled ball average vs "
                       "lap/(2(n+2))")


def mollification_identity_check(fld: ScalarField) -> CheckReport:
    """Smoothing by a compact bump moves smooth fields by O(h^2).

    Smooths by the normalized quartic bump ``(1 - |y/r|^2)^2``, r = 3h, as
    taps at the nodes 3 off the hull and compares with the field there; the
    deviation is bounded by ``C_pinned r^2 max|D^2 u|``, ``C_pinned = 10``.
    """
    g = fld.grid
    k = 3               # bump radius in cells
    C_pinned = 10.0
    r = k * g.h
    off = np.indices((2 * k + 1,) * g.dim).reshape(g.dim, -1).T - k
    ker = np.clip(1 - _sq_dist(off * g.h, np.zeros(g.dim)) / r ** 2,
                  0, None) ** 2
    taps = _taps(*zip(ker[ker > 0] / ker.sum(), off[ker > 0]))
    sm = _apply(fld.values, taps, k)
    core = tuple(slice(k, c - k) for c in g.counts)
    dev = float(np.abs(sm - fld.values[core]).max(initial=0.0))
    d2 = _d2_abs_max(fld)
    rhs = C_pinned * r ** 2 * max(d2, 1e-12)
    return make_report("mollification-identity", dev, rhs,
                       constants={"C_pinned": C_pinned, "radius": r,
                                  "d2": d2},
                       grid=g.meta(),
                       notes="bump smoothing deviation vs curvature * r^2",
                       hypothesis=unresolved("the nodes 3 off the hull",
                                             sm.size, 1))


def morrey_check(fld: ScalarField, p: float) -> CheckReport:
    """Gradient in L^p controls a Holder modulus (p above the dimension).

    The same estimate in every dimension: ``sup_r r^{-(1-n/p)} osc(B_r)
    <= C ||Du||_{L^p(B_1)}``, ``C_pinned = 4``, over the radii ``1/2,
    1/4, ...`` down to ``4h``; it needs at least 1 such ball, so ``h <=
    1/8``, and a node in each.  ``p`` must be above the dimension.
    """
    g = fld.grid
    n = g.dim
    if not p > n:
        raise ValueError(f"p must be above the dimension {n}, got {p}")
    gn = np.sqrt(_sq_dist(gradient(fld), np.zeros(n)))
    alpha = 1 - n / p
    C_pinned = 4.0
    b1 = Ball((0.0,) * n, 1.0).mask(g)[_interior(g.counts)]
    norm = _lp(gn[b1], p, g.cell_measure)
    radii = [0.5 ** k for k in range(1, 64) if 0.5 ** k >= 4 * g.h]
    held = [r for r in radii if ClosedBall((0.0,) * n, r).mask(g).any()]
    best = max((oscillation(fld, ClosedBall((0.0,) * n, r)) / r ** alpha
                for r in held), default=0.0)
    empty = [r for r in radii if r not in held]
    return make_report("morrey", best, C_pinned * norm,
                       constants={"p": p, "alpha": alpha,
                                  "C_pinned": C_pinned},
                       grid=g.meta(),
                       notes="scaled oscillation vs L^p gradient norm",
                       hypothesis=unresolved("B_r, r = 1/2, 1/4, ... >= 4h",
                                             len(radii), 1, "ball")
                       or (unresolved(f"B_1/{round(1 / empty[0])}", 0, 1)
                           if empty else None))


def rolle_gradient_check(fld: ScalarField, x1, r: float) -> CheckReport:
    """A node with small gradient inside every ball, by paraboloid touching.

    Slides the cap ``min u + osc (1 - |x-x1|^2/(delta r)^2)``,
    ``delta = 1/2``, below the field inside ``B_{delta r}(x1)``; at the
    touching node, ``constants["node"]``, ``|Du| <= 2 osc / (delta r)``
    up to lattice slack.  The
    ball needs ``2n + 1`` nodes, one node and its ``2n`` axis neighbours;
    an empty ball is a ``ValueError``.
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    g = fld.grid
    delta = 0.5
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    ball = ClosedBall(tuple(x1), delta * r)
    m = ball.mask(g)
    count = np.count_nonzero(m)
    if not count:
        raise ValueError("ball contains no grid node")
    at = np.nonzero(m)
    pts = np.stack([ax[i] for ax, i in zip(g.axes(), at)], axis=-1)
    vals = fld.values[m]
    osc = oscillation(fld)
    cap = vals.min() + osc * (1 - _sq_dist(pts, x1) / (delta * r) ** 2)
    k = int(np.argmin(vals - cap))
    idx = tuple(int(i[k]) for i in at)
    on_hull = not g._off_hull[idx]
    grad_norm = 0.0 if on_hull else float(np.linalg.norm(
        _grad(fld.values[_around(idx)], g.h).reshape(-1)))
    bound = 2 * osc / (delta * r)
    slack = 8 * osc * g.h / (delta * r) ** 2
    return make_report("rolle-gradient", grad_norm, bound, tol=slack,
                       constants={"osc": osc, "delta": delta, "r": r,
                                  "node": tuple(pts[k].tolist()),
                                  "on_hull": on_hull},
                       grid=g.meta(),
                       notes="gradient at the cap-contact node",
                       hypothesis=unresolved("B_(delta r)(x1)", count,
                                             2 * g.dim + 1)
                       or ("contact on the hull, gradient unavailable"
                           if on_hull else None))


# ---------------------------------------------------------------------------
# second differences of a solution of the convex equation P^+(D^2 u) = 0


def second_diff_supersolution_check(sol: ScalarField,
                                    ell: Ellipticity) -> CheckReport:
    """The second difference ``v = (u(x + 2h e_1) + u(x - 2h e_1) - 2 u) /
    (2h)^2`` of a solution of the convex equation ``P^+(D^2 u) = 0`` is a
    supersolution: ``P^-(D^2_h v) <= 0``, within ``200 h``, at the nodes
    of ``B_3/4`` whose Hessian stencil lies where ``v`` is defined, of
    which it needs 1."""
    g = sol.grid
    v, defined = _second_difference(sol, np.eye(g.dim)[0], 2 * g.h)
    inner = Ball((0.0,) * g.dim, 0.75).mask(g)[_interior(g.counts)]
    for off in {off for _, taps, _ in _d2_table(g.dim) for _, off in taps}:
        inner = inner & _shift(defined, off, 1)
    Pm = pucci_minus(hessian(v)[inner], ell)
    worst = float(Pm.max()) if inner.any() else 0.0
    return make_report("second-diff-supersolution", worst, 0.0,
                       tol=200 * g.h, grid=g.meta(),
                       notes="P^- of the second difference stays <= 0",
                       hypothesis=unresolved("B_3/4 where D^2 v_2h is defined",
                                             int(inner.sum()), 1))


def second_diff_lower_bound_check(sol: ScalarField) -> CheckReport:
    """The negative part of the second difference ``v`` along ``2h e_1``
    (as in :func:`second_diff_supersolution_check`) over the nodes of
    ``B_3/4`` where ``v`` is defined, of which it needs 1, is at most
    ``C osc_{B_1} u`` with the pinned ``C = 40``; ``B_1`` needs 1
    node."""
    g = sol.grid
    origin = (0.0,) * g.dim
    v, defined = _second_difference(sol, np.eye(g.dim)[0], 2 * g.h)
    b34 = Ball(origin, 0.75).mask(g) & defined
    b1 = Ball(origin, 1.0)
    in_b1 = int(b1.mask(g).sum())
    osc = oscillation(sol, b1) if in_b1 else 0.0
    neg = float(np.clip(-v.values[b34], 0, None).max(initial=0.0))
    return make_report("second-diff-lower-bound", neg, 40.0 * osc,
                       constants={"C_pinned": 40.0, "osc": osc},
                       grid=g.meta(),
                       notes="negative part of v_2h bounded by osc",
                       hypothesis=unresolved("B_1", in_b1, 1) or
                       unresolved("B_3/4 where v_2h is defined",
                                  int(b34.sum()), 1))
