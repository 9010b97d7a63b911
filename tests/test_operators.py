import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import ellipticlab as el
from ellipticlab.grid import ScalarField, _fold, _interior
from ellipticlab.operators import (FractionalResult, TailSpec, hessian,
                                   _d2, _grad, _refine, _second_difference,
                                   _sphere_area, _sym_eigvals)


ELL = el.Ellipticity(1.0, 2.0)


def random_sym(rng, d):
    A = rng.normal(size=(d, d))
    return (A + A.T) / 2


def pucci_clip(M, ell, sign):
    """Oracle: the clip form of P^- (``sign="minus"``) or P^+ that the
    operators had before their weighted eigenvalue sum, ``lo (e)_+ + hi
    (e)_-`` summed over the eigenvalues ``e``."""
    lo, hi = (ell.lam, ell.Lam) if sign == "minus" else (ell.Lam, ell.lam)
    e = _sym_eigvals(M)
    return _fold(np.add, lo * np.clip(e, 0, None) + hi * np.clip(e, None, 0))


def sym_stack(d):
    """Random symmetric ``d x d`` matrices at three scales, the matrices
    with exact-zero, repeated and +-0.0 eigenvalues, and the Hessians of a
    random field."""
    rng = np.random.default_rng(20 + d)
    M = rng.normal(size=(200, d, d))
    M = M + np.swapaxes(M, 1, 2)
    z = np.zeros(d)
    diags = [z, -0.0 * np.ones(d), np.ones(d), -np.ones(d), 3 * np.ones(d)]
    diags += [np.r_[z[1:], -0.0], np.r_[z[1:], 1.0], np.r_[-2.0, z[1:]]]
    if d > 1:
        diags += [np.r_[-0.0, 2.0 * np.ones(d - 1)],
                  np.r_[-1.0, 0.0, -0.0][:d], np.r_[2.0, -3.0, 2.0][:d]]
    special = [np.diag(v) for v in diags] + [np.ones((d, d)),
                                             -np.ones((d, d))]
    fld = ScalarField(el.Grid.cover((0.0,) * d, 1.0, 1 / 4),
                      rng.normal(size=(9,) * d))
    return np.concatenate([M, 1e-8 * M, 1e8 * M, np.array(special),
                           hessian(fld).reshape(-1, d, d)])


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

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_clip_form_bit_for_bit(self, d, sign):
        M = sym_stack(d)
        op = el.pucci_minus if sign == "minus" else el.pucci_plus
        got = op(M, ELL)
        assert got.tobytes() == pucci_clip(M, ELL, sign).tobytes()
        e = _sym_eigvals(M)
        zeros = np.signbit(e[e == 0])
        assert zeros.any() and not zeros.all()      # both 0.0 and -0.0

    def test_eigvals_closed_form(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            Ms = np.array([random_sym(rng, d) for _ in range(20)])
            got = _sym_eigvals(Ms)
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
            H, np.broadcast_to(A, H.shape), atol=1e-10)
        G = el.gradient(f)
        pts = g.coords()[_interior(g.counts)]
        np.testing.assert_allclose(
            G, np.einsum("ij,...j->...i", A, pts), atol=1e-10)
        L = el.laplacian(f)
        np.testing.assert_allclose(L, np.trace(A), atol=1e-10)

    def test_interior_grid(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 8)
        f = el.ScalarField(g, np.zeros(g.counts))
        assert el.gradient(f).shape == tuple(c - 2 for c in g.counts) + (2,)

    def test_linear_apply(self):
        # A : D^2_h u by einsum over the Hessian, as the Pucci sandwich
        # forms it, for a constant matrix and for a matrix field
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField.from_function(
            g, lambda p: p[..., 0] ** 2 + 3 * p[..., 0] + 1)
        out = np.einsum("...ij,...ij->...", np.eye(2), hessian(f))
        np.testing.assert_allclose(out, 2.0, atol=1e-9)
        # a coefficient field: A = diag(1 + x^2, 5) at each interior node
        pts = g.coords()[_interior(g.counts)]
        A = np.zeros(pts.shape[:-1] + (2, 2))
        A[..., 0, 0], A[..., 1, 1] = 1 + pts[..., 0] ** 2, 5.0
        out = np.einsum("...ij,...ij->...", A, hessian(f))
        np.testing.assert_allclose(out, 2.0 * (1 + pts[..., 0] ** 2),
                                   atol=1e-9)

    def test_sandwich_residual_admissible(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        rng = np.random.default_rng(5)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        rep = el.pucci_sandwich_residual(f, 1.5 * np.eye(2), ELL)
        assert rep.passed

    def test_second_difference_quadratic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField.from_function(g, lambda p: p[..., 0] ** 2)
        v, defined = _second_difference(f, (1.0, 0.0), 2 / 16)
        np.testing.assert_allclose(v.values[defined], 2.0, atol=1e-10)
        v2, _ = _second_difference(f, (0.0, 1.0), 3 / 16)
        np.testing.assert_allclose(v2.values, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_second_difference_that_leaves_from_every_node(self, n):
        # a step of 2 nodes along an axis of 3 or 4 nodes: no node of the
        # axis has both neighbours, and the field is 0 and defined nowhere
        g = el.Grid(2, 0.25, (0.0, 0.0), (n, 5))
        f = el.ScalarField.from_function(g, lambda p: p[..., 0] ** 2)
        v, defined = _second_difference(f, (1.0, 0.0), 0.5)
        assert v.values.shape == defined.shape == g.counts
        assert not defined.any()
        assert not v.values.any()

    def test_second_difference_off_lattice(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        with pytest.raises(ValueError):
            _second_difference(f, (1.0, 0.0), 0.03)
        with pytest.raises(ValueError):
            _second_difference(f, (2.0, 0.0), 2 / 16)


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
        assert_bits(el.gradient(f), gradient_loop(f))
        assert_bits(el.hessian(f), hessian_loop(f))
        assert_bits(el.laplacian(f), laplacian_loop(f))
        for k in np.eye(dim, dtype=int):
            v, defined = _second_difference(f, k, 2 * h)
            ref = second_difference_loop(f, 2 * k, 2 * h)
            assert_bits(v.values[defined].reshape(ref.shape), ref)

    @pytest.mark.parametrize("dim,h", [(1, 1 / 64), (2, 1 / 24), (3, 1 / 8)])
    def test_node_lists_read_the_whole_grid_arrays(self, dim, h):
        # D^2_h and the gradient at a list of flat node indices (repeated,
        # in any order, or none) are the whole-grid arrays at those nodes
        rng = np.random.default_rng(20 + dim)
        g = el.Grid.cover((0.1,) * dim, 1.0, h)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        inner = np.flatnonzero(g._off_hull)
        for nodes in (rng.choice(inner, size=2 * len(inner)), inner[::-7],
                      np.empty(0, dtype=np.intp)):
            core = tuple(i - 1 for i in np.unravel_index(nodes, g.counts))
            assert_bits(_d2(f.values, g.h, nodes), el.hessian(f)[core])
            assert_bits(_grad(f.values, g.h, nodes), el.gradient(f)[core])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_diagonal_second_difference(self, dim):
        rng = np.random.default_rng(10 + dim)
        h = 1 / 16
        g = el.Grid.cover((0.0,) * dim, 1.0, h)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        k = np.zeros(dim, dtype=int)
        k[0], k[-1] = 3, -3
        s = 3 * h * math.sqrt(2)
        got, defined = _second_difference(f, k / np.linalg.norm(k), s)
        ref = second_difference_loop(f, k, s)
        assert_bits(got.values[defined].reshape(ref.shape), ref)


class TestSecondDifferenceGrid:
    """A second difference lives on its input's grid, so that a region
    masked there selects the same nodes from both (ROADMAP item 9)."""

    # Grid.cover(0, R + 2h, h) with 1/h near 24, and steps h and 2h
    GRIDS = [(R, n, m) for R in (1.0, 1.05, 1.2) for n in (23, 24, 25)
             for m in (1, 2)]

    @staticmethod
    def difference(R, n, m):
        h = 1 / n
        g = el.Grid.cover((0.0, 0.0), R + 2 * h, h)
        rng = np.random.default_rng(n)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        return (f, *_second_difference(f, (1.0, 0.0), m * h))

    def test_on_the_input_grid(self):
        for R, n, m in self.GRIDS:
            f, v, defined = self.difference(R, n, m)
            assert v.grid == f.grid
            assert defined.sum() == (f.grid.counts[0] - 2 * m) \
                * f.grid.counts[1]
            assert not v.values[~defined].any()

    def test_ball_selects_the_parents_nodes(self):
        # the values a B_1 mask selects from the result must be those of
        # the loop at the parent grid's B_1 nodes where the step stays on
        # the grid; a grid of its own with the origin moved by m h can
        # disagree on a boundary node
        bad = []
        for R, n, m in self.GRIDS:
            f, v, _ = self.difference(R, n, m)
            ball = el.Ball((0.0, 0.0), 1.0)
            ref = second_difference_loop(f, (m, 0), m * f.grid.h)
            want = ref[ball.mask(f.grid)[m:-m, :]]
            got = v.values[ball.mask(v.grid)]
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                bad.append((R, n, m))
        assert bad == []


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


def scipy_refine(u, level):
    """scipy's cubic spline of ``u`` at the nodes of the lattice ``level``
    times finer: the prefilter and evaluation that ``_refine`` replaced."""
    spline = ndimage.spline_filter(u, order=3, mode="nearest")
    fine = tuple(level * (c - 1) + 1 for c in u.shape)
    at = np.indices(fine).reshape(u.ndim, -1) / level
    return ndimage.map_coordinates(spline, at, order=3, prefilter=False,
                                   mode="nearest").reshape(fine)


class TestRefine:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(257,), (33, 33), (65, 65),
                                       (17, 17, 17)], ids=str)
    def test_matches_the_scipy_spline(self, shape, level):
        u = np.random.default_rng(len(shape) * 10 + level).normal(size=shape)
        got = _refine(u, level)
        want = scipy_refine(u, level)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(u).max()
        if level == 1:
            assert np.array_equal(got, u)

    def test_interpolates_the_nodes(self):
        # scipy's own prefilter misses the nodes on axes of 2 or 3 nodes
        # (by 5e-4 here); the tridiagonal solve has no such horizon
        u = np.random.default_rng(5).normal(size=(2, 3, 20))
        for level in (2, 3):
            fine = _refine(u, level)
            assert np.abs(fine[::level, ::level, ::level] - u).max() < 1e-14

    def test_linear_data_stay_linear_inside(self):
        # the end rows s[-1] = s[0] bend the spline near the ends only:
        # the bend decays by 2 - sqrt(3) per node
        x = np.arange(80.0)
        fine = _refine(0.7 * x - 3.0, 3)
        err = np.abs(fine - (0.7 * np.arange(len(fine)) / 3 - 3.0))
        assert err[:3].max() > 1e-3
        assert err[75:-75].max() < 1e-12


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
    d2 = np.max(np.abs(hessian(fld))) if min(g.counts) >= 3 else 0.0

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
    return FractionalResult(field=ScalarField(g, values),
                            eval_mask=emask.copy(), quadrature_error=quad_err,
                            tail_error=tail_err)


def noisy_wave(g, seed):
    rng = np.random.default_rng(seed)
    wave = np.cos(3 * g.coords() @ rng.normal(size=g.dim))
    return el.ScalarField(g, wave + 0.1 * rng.normal(size=g.counts))


def assert_matches_loop(fld, params, region=None, tail=TailSpec()):
    got = el.fractional_laplacian(fld, params, region, tail)
    old = fractional_loop(fld, params, region, tail)
    assert np.array_equal(got.eval_mask, old.eval_mask)
    assert not got.eval_mask.flags.writeable
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
