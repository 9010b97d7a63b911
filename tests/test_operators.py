import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import ellipticlab as el
from ellipticlab.grid import ScalarField, _interior
from ellipticlab.operators import (FractionalResult, TailSpec, _sphere_area,
                                   hessian, sym_eigvals)


ELL = el.Ellipticity(1.0, 2.0)


def random_sym(rng, d):
    A = rng.normal(size=(d, d))
    return (A + A.T) / 2


def pucci_minus_reference(M, ell):
    """Independent route: optimize tr(A M) over the admissible eigenbasis."""
    e, Q = np.linalg.eigh(M)
    coeff = np.where(e >= 0, ell.lam, ell.Lam)
    A = Q @ np.diag(coeff) @ Q.T
    return float(np.trace(A @ M))


class TestPucci:
    def test_identity(self):
        d = 2
        assert el.pucci_minus(np.eye(d), ELL) == pytest.approx(d * ELL.lam)
        assert el.pucci_plus(np.eye(d), ELL) == pytest.approx(d * ELL.Lam)

    def test_negative_identity(self):
        d = 3
        assert el.pucci_minus(-np.eye(d), ELL) == pytest.approx(-d * ELL.Lam)
        assert el.pucci_plus(-np.eye(d), ELL) == pytest.approx(-d * ELL.lam)

    def test_matches_optimizer_route(self):
        rng = np.random.default_rng(42)
        for d in (2, 3):
            for _ in range(50):
                M = random_sym(rng, d)
                assert el.pucci_minus(M, ELL) == pytest.approx(
                    pucci_minus_reference(M, ELL), abs=1e-10)

    def test_lower_bound_over_admissible(self):
        # P^- is the infimum of tr(A M) over lam I <= A <= Lam I
        rng = np.random.default_rng(7)
        for d in (2, 3):
            M = random_sym(rng, d)
            pm = el.pucci_minus(M, ELL)
            pp = el.pucci_plus(M, ELL)
            for _ in range(200):
                Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                A = Q @ np.diag(rng.uniform(ELL.lam, ELL.Lam, d)) @ Q.T
                t = float(np.trace(A @ M))
                assert pm <= t + 1e-10
                assert t <= pp + 1e-10

    def test_batched(self):
        rng = np.random.default_rng(3)
        Ms = np.array([random_sym(rng, 2) for _ in range(10)])
        out = el.pucci_minus(Ms, ELL)
        for k in range(10):
            assert out[k] == pytest.approx(el.pucci_minus(Ms[k], ELL))

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_sandwich_property(self, a, b, c):
        M = np.array([[a, b], [b, c]])
        assert el.pucci_minus(M, ELL) <= el.pucci_plus(M, ELL) + 1e-12

    @given(s=st.floats(0.01, 10))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity(self, s):
        M = np.array([[1.0, 0.5], [0.5, -2.0]])
        assert el.pucci_minus(s * M, ELL) == pytest.approx(
            s * el.pucci_minus(M, ELL), rel=1e-10)

    def test_eigvals_closed_form(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            Ms = np.array([random_sym(rng, d) for _ in range(20)])
            got = sym_eigvals(Ms)
            ref = np.linalg.eigvalsh(Ms)
            np.testing.assert_allclose(got, ref, atol=1e-10)


class TestDerivatives:
    def test_quadratic_exact(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        A = np.array([[2.0, 0.7], [0.7, -1.0]])
        f = el.ScalarField.from_function(
            g, lambda p: 0.5 * np.einsum("...i,ij,...j->...", p, A, p))
        H = el.hessian(f)
        np.testing.assert_allclose(
            H.values, np.broadcast_to(A, H.values.shape), atol=1e-10)
        G = el.gradient(f)
        pts = H.grid.coords()
        np.testing.assert_allclose(
            G.values, np.einsum("ij,...j->...i", A, pts), atol=1e-10)
        L = el.laplacian(f)
        np.testing.assert_allclose(L.values, np.trace(A), atol=1e-10)

    def test_interior_grid(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        assert el.gradient(f).grid.counts == tuple(c - 2 for c in g.counts)

    def test_linear_apply(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField.from_function(
            g, lambda p: p[..., 0] ** 2 + 3 * p[..., 0] + 1)
        out = el.linear_apply(f, el.LinearCoefficients(A=np.eye(2)))
        np.testing.assert_allclose(out.values, 2.0, atol=1e-9)
        # a coefficient field: A = diag(1 + x^2, 5) at each interior node
        pts = out.grid.coords()
        A = np.zeros(pts.shape[:-1] + (2, 2))
        A[..., 0, 0], A[..., 1, 1] = 1 + pts[..., 0] ** 2, 5.0
        out = el.linear_apply(f, el.LinearCoefficients(A=A))
        np.testing.assert_allclose(out.values, 2.0 * (1 + pts[..., 0] ** 2),
                                   atol=1e-9)

    def test_sandwich_residual_admissible(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(5)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        rep = el.pucci_sandwich_residual(
            f, el.LinearCoefficients(A=1.5 * np.eye(2)), ELL)
        assert rep.passed

    def test_second_difference_quadratic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField.from_function(g, lambda p: p[..., 0] ** 2)
        v = el.second_difference(f, (1.0, 0.0), 2 / 16)
        np.testing.assert_allclose(v.values, 2.0, atol=1e-10)
        v2 = el.second_difference(f, (0.0, 1.0), 3 / 16)
        np.testing.assert_allclose(v2.values, 0.0, atol=1e-10)

    def test_second_difference_off_lattice(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        with pytest.raises(ValueError):
            el.second_difference(f, (1.0, 0.0), 0.03)
        with pytest.raises(ValueError):
            el.second_difference(f, (2.0, 0.0), 2 / 16)


# the finite differences as they were written before the tap table, kept
# as oracles: the table must reproduce them bit for bit


def gradient_loop(fld):
    g = fld.grid
    comps = []
    core = _interior(g.counts)
    for ax in range(g.dim):
        up = list(core); up[ax] = slice(2, g.counts[ax])
        dn = list(core); dn[ax] = slice(0, g.counts[ax] - 2)
        comps.append((fld.values[tuple(up)] - fld.values[tuple(dn)])
                     / (2 * g.h))
    return np.stack(comps, axis=-1)


def hessian_loop(fld):
    g = fld.grid
    d = g.dim
    u = fld.values
    core = _interior(g.counts)

    def shifted(offsets):
        sl = [slice(1 + o, g.counts[i] - 1 + o)
              for i, o in enumerate(offsets)]
        return u[tuple(sl)]

    out = np.empty(tuple(c - 2 for c in g.counts) + (d, d))
    h2 = g.h ** 2
    zero = [0] * d
    for i in range(d):
        oi = zero.copy(); oi[i] = 1
        mi = zero.copy(); mi[i] = -1
        out[..., i, i] = (shifted(oi) + shifted(mi) - 2 * u[core]) / h2
        for j in range(i + 1, d):
            pp = zero.copy(); pp[i] = 1; pp[j] = 1
            mm = zero.copy(); mm[i] = -1; mm[j] = -1
            pm = zero.copy(); pm[i] = 1; pm[j] = -1
            mp = zero.copy(); mp[i] = -1; mp[j] = 1
            v = (shifted(pp) + shifted(mm) - shifted(pm) - shifted(mp)) / (4 * h2)
            out[..., i, j] = v
            out[..., j, i] = v
    return out


def laplacian_loop(fld):
    g = fld.grid
    u = fld.values
    core = _interior(g.counts)
    acc = -2 * g.dim * u[core]
    for ax in range(g.dim):
        up = list(core); up[ax] = slice(2, g.counts[ax])
        dn = list(core); dn[ax] = slice(0, g.counts[ax] - 2)
        acc = acc + u[tuple(up)] + u[tuple(dn)]
    return acc / g.h ** 2


def second_difference_loop(fld, k, h_step):
    g = fld.grid
    sl_core, sl_up, sl_dn = [], [], []
    for ax in range(g.dim):
        mg = abs(k[ax])
        sl_core.append(slice(mg, g.counts[ax] - mg))
        sl_up.append(slice(mg + k[ax], g.counts[ax] - mg + k[ax]))
        sl_dn.append(slice(mg - k[ax], g.counts[ax] - mg - k[ax]))
    u = fld.values
    return (u[tuple(sl_up)] + u[tuple(sl_dn)] - 2 * u[tuple(sl_core)]) \
        / h_step ** 2


def assert_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestStencilTable:
    @pytest.mark.parametrize("dim,h", [(1, 1 / 64), (2, 1 / 24), (3, 1 / 8)])
    def test_matches_loop_stencils(self, dim, h):
        rng = np.random.default_rng(dim)
        g = el.Grid.cover((0.1,) * dim, 1.0, h)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        assert_bits(el.gradient(f).values, gradient_loop(f))
        assert_bits(el.hessian(f).values, hessian_loop(f))
        assert_bits(el.laplacian(f).values, laplacian_loop(f))
        for k in np.eye(dim, dtype=int):
            assert_bits(el.second_difference(f, k, 2 * h).values,
                        second_difference_loop(f, 2 * k, 2 * h))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_diagonal_second_difference(self, dim):
        rng = np.random.default_rng(10 + dim)
        h = 1 / 16
        g = el.Grid.cover((0.0,) * dim, 1.0, h)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        k = np.zeros(dim, dtype=int)
        k[0], k[-1] = 3, -3
        s = 3 * h * math.sqrt(2)
        got = el.second_difference(f, k / np.linalg.norm(k), s)
        assert_bits(got.values, second_difference_loop(f, k, s))


class TestFractional:
    def test_linear_vanishes(self):
        g = el.Grid.cover((0.0,), 8.0, 1 / 8)
        f = el.ScalarField.from_function(g, lambda p: 0.7 * p[..., 0])
        res = el.fractional_laplacian(
            f, el.FractionalParams(sigma=1.0, level=2),
            tail=el.TailSpec(kind="zero"))
        v = float(res.field.values[res.eval_mask][0])
        assert abs(v) < 1e-12

    def test_concave_cap_negative(self):
        g = el.Grid.cover((0.0,), 8.0, 1 / 8)
        f = el.ScalarField.from_function(
            g, lambda p: np.exp(-p[..., 0] ** 2))
        res = el.fractional_laplacian(f, el.FractionalParams(sigma=1.0))
        assert float(res.field.values[res.eval_mask][0]) < 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            el.FractionalParams(sigma=2.5)
        with pytest.raises(ValueError):
            el.FractionalParams(sigma=1.0, level=0)


def fractional_loop(fld, params, eval_region=None, tail=TailSpec()):
    """The per-node loop that ``fractional_laplacian`` replaced, kept
    verbatim as its oracle."""
    g = fld.grid
    n, sig = g.dim, params.sigma
    expo = n + sig
    delta = g.h / params.level
    if eval_region is None:
        emask = np.zeros(g.counts, dtype=bool)
        emask[tuple(c // 2 for c in g.counts)] = True
    else:
        emask = eval_region.mask(g)
    pts = g.coords()[emask]
    lo = np.asarray(g.origin)
    hi = np.asarray(g.upper())

    # distance from each eval point to the grid hull = usable kernel radius
    out_vals = np.zeros(len(pts))
    spline = ndimage.spline_filter(fld.values, order=3, mode="nearest")

    tail_err = 0.0
    quad_err = 0.0
    area = _sphere_area(n)
    # second-derivative scale for the near-field Taylor bound
    d2 = np.max(np.abs(hessian(fld).values)) if min(g.counts) >= 3 else 0.0

    for i, x in enumerate(pts):
        R = float(min(np.min(x - lo), np.min(hi - x)))
        if R < delta:
            raise ValueError("evaluation node too close to the grid hull")
        k = int(math.floor(R / delta))
        ax = np.arange(-k, k + 1) * delta
        mesh = np.meshgrid(*([ax] * n), indexing="ij")
        Y = np.stack(mesh, axis=-1).reshape(-1, n)
        r = np.linalg.norm(Y, axis=-1)
        keep = (r >= delta * (1 - 1e-12)) & (r <= R)
        Y, r = Y[keep], r[keep]
        # u at x +- y by cubic interpolation of the lattice values
        idx_p = ((x + Y - lo) / g.h).T
        idx_m = ((x - Y - lo) / g.h).T
        up = ndimage.map_coordinates(spline, idx_p, order=3,
                                     prefilter=False, mode="nearest")
        um = ndimage.map_coordinates(spline, idx_m, order=3,
                                     prefilter=False, mode="nearest")
        u0 = fld.values[g.index_of(x)]
        integrand = (up + um - 2 * u0) / r ** expo
        val = float(np.sum(integrand) * delta ** n)
        # near-field cell: |integrand| <= |D^2u| r^2 / r^expo
        if expo - 2 < n:
            quad_err = max(quad_err,
                           d2 * area * delta ** (n - expo + 2) / (n - expo + 2))
        # far field
        if tail.kind == "zero":
            if sig > 0 and expo > n:
                val -= 2 * u0 * area / ((expo - n) * R ** (expo - n))
        elif tail.kind == "power":
            q = tail.exponent
            if expo + q <= n:
                raise ValueError("power tail too heavy for the kernel")
            t = 2 * area * (tail.amplitude / ((expo + q - n) * R ** (expo + q - n))
                            + abs(u0) / ((expo - n) * R ** (expo - n)))
            tail_err = max(tail_err, t)
        else:
            raise ValueError(f"unknown tail kind {tail.kind!r}")
        out_vals[i] = val

    values = np.zeros(g.counts)
    values[emask] = out_vals
    out = ScalarField(g, values, name=f"fraclap[{fld.name}]" if fld.name else "",
                      mask=emask.copy())
    return FractionalResult(field=out, eval_mask=emask,
                            quadrature_error=quad_err, tail_error=tail_err)


def noisy_wave(g, seed):
    rng = np.random.default_rng(seed)
    wave = np.cos(3 * g.coords() @ rng.normal(size=g.dim))
    return el.ScalarField(g, wave + 0.1 * rng.normal(size=g.counts))


def assert_matches_loop(fld, params, region=None, tail=TailSpec()):
    got = el.fractional_laplacian(fld, params, region, tail)
    old = fractional_loop(fld, params, region, tail)
    assert np.array_equal(got.eval_mask, old.eval_mask)
    assert np.array_equal(got.field.mask, old.field.mask)
    scale = np.abs(old.field.values).max()
    assert np.abs(got.field.values - old.field.values).max() <= 1e-12 * scale
    for a, b in ((got.quadrature_error, old.quadrature_error),
                 (got.tail_error, old.tail_error)):
        assert abs(a - b) <= 1e-12 * abs(b)
    return got


class TestFractionalOracle:
    GRIDS = {1: (2.0, 1 / 8), 2: (1.0, 1 / 8), 3: (1.0, 1 / 4)}

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_loop(self, dim, level):
        radius, h = self.GRIDS[dim]
        g = el.Grid.cover((0.0,) * dim, radius, h)
        f = noisy_wave(g, 10 * dim + level)
        ball = el.Ball((0.1,) * dim, radius / 2)
        for sigma in (0.5, 1.0, 1.5):
            for tail in (TailSpec("zero"), TailSpec("power", 0.5, 1.0)):
                for region in (None, ball):
                    res = assert_matches_loop(
                        f, el.FractionalParams(sigma, level), region, tail)
                    assert res.eval_mask.sum() == (1 if region is None
                                                   else ball.mask(g).sum())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_loop_past_a_rounded_lattice(self, dim):
        # h = 1/7 at level 3: some nodes have (floor(R/delta) + 1) delta
        # <= R in floating point, so an axial offset the loop's lattice
        # leaves out has |y| <= R
        g = el.Grid.cover((0.0,) * dim, 1.0, 1 / 7)
        params = el.FractionalParams(1.0, 3)
        region = el.Ball((0.0,) * dim, 0.75)
        pts = g.coords()[region.mask(g)]
        R = np.minimum((pts - g.origin).min(-1), (g.upper() - pts).min(-1))
        delta = g.h / params.level
        assert np.any((np.floor(R / delta) + 1) * delta <= R)
        assert_matches_loop(noisy_wave(g, dim), params, region)

    def test_empty_region(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = noisy_wave(g, 0)
        res = assert_matches_loop(f, el.FractionalParams(1.0, 2),
                                  el.Ball((5.0, 5.0), 0.5))
        assert not res.eval_mask.any()
        assert not res.field.values.any()
        assert res.quadrature_error == 0.0 and res.tail_error == 0.0

    @pytest.mark.parametrize("region,tail", [
        (el.Ball((-1.0, 0.0), 0.1), TailSpec()),    # a node on the hull
        (None, TailSpec("cubic")),
        (None, TailSpec("power", 1.0, -1.5)),        # too heavy a tail
    ])
    def test_errors_match_loop(self, region, tail):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = noisy_wave(g, 1)
        params = el.FractionalParams(1.0, 2)
        for fn in (el.fractional_laplacian, fractional_loop):
            with pytest.raises(ValueError):
                fn(f, params, region, tail)
