"""End-to-end property checks with measured constants.

Each test class corresponds to one acceptance property of the library:
the exact combinatorial pieces are asserted with no tolerance, the
analytic inequalities with the stated slack, and the pinned
implementation constants are regression-checked against frozen values.
"""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.coverings import (BallCollection, BoxRegion, CellUnion,
                                   Cylinder, DyadicCube, cz_selection,
                                   dyadic_decomposition, stacking,
                                   sun_rising, vitali_check)
from ellipticlab.operators import _second_difference
from test_coverings import contains
from test_regularity import decay_field, oscillation_profile

ELL = el.Ellipticity(1.0, 2.0)


def holder_slope(radii, oscs):
    """Least-squares slope of log(osc) against log(r)."""
    return np.polyfit(np.log(radii), np.log(oscs), 1)[0]


def random_sym(rng, d, size=None):
    shape = (d, d) if size is None else (size, d, d)
    A = rng.normal(size=shape)
    return (A + np.swapaxes(A, -1, -2)) / 2


def harmonic_2d(k, a=1.0, b=0.0):
    def fn(p):
        z = p[..., 0] + 1j * p[..., 1]
        return a * (z ** k).real + b * (z ** k).imag
    return fn


def log_kernel(pole, scale=4.0):
    pole = np.asarray(pole)

    def fn(p):
        return np.log(scale / np.linalg.norm(p - pole, axis=-1))
    return fn


class TestPucciOracle:
    """1. Eigenvalue formula vs the sampled admissible extremum."""

    def test_lower_and_upper_bounds_and_extremum(self):
        rng = np.random.default_rng(101)
        for d in (2, 3):
            # 1e4 random admissible diffusion matrices A = Q diag(lam) Q^T
            Q, _ = np.linalg.qr(rng.normal(size=(10_000, d, d)))
            lams = rng.uniform(ELL.lam, ELL.Lam, size=(10_000, d))
            A = np.einsum("kij,kj,klj->kil", Q, lams, Q)
            Ms = random_sym(rng, d, size=200)
            pm = el.pucci_minus(Ms, ELL)
            pp = el.pucci_plus(Ms, ELL)
            traces = np.einsum("kij,mji->mk", A, Ms)
            # the formula is a lower/upper bound for every sample
            assert np.all(pm <= traces.min(axis=1) + 1e-10)
            assert np.all(pp >= traces.max(axis=1) - 1e-10)
            # appending the eigenbasis optimizer attains the extremum
            for m in range(200):
                e, V = np.linalg.eigh(Ms[m])
                lo = V @ np.diag(np.where(e >= 0, ELL.lam, ELL.Lam)) @ V.T
                hi = V @ np.diag(np.where(e >= 0, ELL.Lam, ELL.lam)) @ V.T
                best_lo = min(traces[m].min(), float(np.trace(lo @ Ms[m])))
                best_hi = max(traces[m].max(), float(np.trace(hi @ Ms[m])))
                assert abs(pm[m] - best_lo) <= 1e-4
                assert abs(pp[m] - best_hi) <= 1e-4


class TestMeanValue:
    """2. Ball averages of harmonic fields match the center to O(h)."""

    FIELDS = (
        [harmonic_2d(k, a, b) for k, a, b in
         [(1, 1, 0), (1, 0, 1), (2, 1, 0), (2, 0, 1), (2, 1, -1),
          (3, 1, 0), (3, 0, 1), (3, 0.5, 0.5), (4, 1, 0), (4, 0, 1),
          (5, 1, 0), (5, 0, 1), (6, 1, 0), (6, 0.3, -0.7)]]
        + [log_kernel(p) for p in
           [(1.3, 0.0), (0.0, 1.3), (-1.2, 0.4), (0.9, 0.9),
            (-0.8, -0.9), (1.1, -0.6)]])

    def test_twenty_fields_at_fine_resolution(self):
        h = 1 / 128
        g = el.Grid.cover((0.0, 0.0), 0.6, h)
        assert len(self.FIELDS) == 20
        for fn in self.FIELDS:
            f = el.ScalarField.from_function(g, fn)
            rep = el.mean_value_check(f, (0.0, 0.0), 0.5)
            assert rep.passed
            assert abs(rep.lhs - rep.rhs) <= 5 * h

    def test_refinement_order(self):
        for fn in (harmonic_2d(4), harmonic_2d(5, 0, 1),
                   log_kernel((1.3, 0.0))):
            errs = []
            for h in (1 / 32, 1 / 64, 1 / 128):
                g = el.Grid.cover((0.0, 0.0), 0.6, h)
                f = el.ScalarField.from_function(g, fn)
                rep = el.mean_value_check(f, (0.0, 0.0), 0.5)
                errs.append(max(abs(rep.lhs - rep.rhs), 1e-14))
            order = math.log2(errs[0] / errs[2]) / 2
            assert order >= 1.0


class TestHarnackQuotient:
    """3. sup/inf over B_r bounded by the translate-sandwich constant."""

    def test_ten_positive_harmonic_fields(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        fields = [log_kernel(p) for p in
                  [(1.3, 0.0), (0.0, 1.3), (-1.2, 0.4), (0.9, 0.9),
                   (-0.8, -0.9), (1.1, -0.6), (1.05, 0.0)]]
        fields += [lambda p, k=k: 3.0 + harmonic_2d(k)(p) for k in (1, 2, 3)]
        assert len(fields) == 10
        for fn in fields:
            f = el.ScalarField.from_function(g, fn)
            for r in (1 / 8, 1 / 4):
                rep = el.harnack_quotient_check(f, r)
                assert rep.passed
                n = g.dim
                bound = ((1 - r) / (1 - 3 * r)) ** n
                m = el.ClosedBall((0.0, 0.0), r).mask(g)
                quot = float(f.values[m].max() / f.values[m].min())
                assert quot <= bound + 0.05


class TestDecayEngine:
    """4. Geometric profiles chain with zero margin; exact constants."""

    def test_zero_margin_and_exact_constants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rng.uniform(0.05, 0.8)
            rho = rng.uniform(0.2, 0.8)
            depth = int(rng.integers(3, 9))
            osc0 = rng.uniform(0.1, 10.0)
            radii = rho ** np.arange(depth + 1)
            oscs = osc0 * (1 - theta) ** np.arange(depth + 1)
            f = decay_field(radii, oscs)
            rep = el.decay_implies_modulus_check(f, 1.0, rho, depth, theta)
            assert rep.passed
            assert abs(rep.margin) <= 1e-12 * osc0
            assert rep.constants["alpha"] == pytest.approx(
                math.log(1 - theta) / math.log(rho), rel=1e-15)
            assert rep.constants["C"] == pytest.approx(
                1.0 / (1 - theta), rel=1e-15)


class TestHolderFit:
    """5. Power exponents recovered; the log modulus fits nearly flat."""

    def test_power_profiles(self):
        g = el.Grid(1, 1 / 2048, (-1.0,), (4097,))
        for alpha in (0.3, 0.5, 0.7, 1.0):
            f = el.ScalarField.from_function(
                g, lambda p, a=alpha: np.abs(p[..., 0]) ** a)
            got = holder_slope(*oscillation_profile(f, 0.5, 0.5, 6))
            assert abs(got - alpha) / alpha <= 0.05

    def test_log_counterexample_is_flat(self):
        # u = |ln(e/|x|)|^{-0.15}: continuous at 0 but slower than any power
        g = el.Grid(1, 1 / 4096, (-1.0,), (8193,))

        def fn(p):
            r = np.abs(p[..., 0])
            with np.errstate(divide="ignore"):
                v = (1.0 / np.log(np.e / np.where(r > 0, r, 1.0))) ** 0.15
            return np.where(r > 0, v, 0.0)

        f = el.ScalarField.from_function(g, fn)
        got = holder_slope(*oscillation_profile(f, 0.5, 0.5, 8))
        assert got < 0.05


class TestInfConvolution:
    """6. Exactness vs brute force, Huber closed form, semigroup."""

    @staticmethod
    def brute(fld, eps):
        g = fld.grid
        pts = g.coords().reshape(-1, g.dim)
        u = fld.values.reshape(-1)
        inv2eps = 1.0 / (2.0 * eps)
        out = np.empty_like(u)
        for j, y in enumerate(pts):
            cand = u.copy()
            for ax in range(g.dim):
                cand = cand + (pts[:, ax] - y[ax]) ** 2 * inv2eps
            out[j] = cand.min()
        return out.reshape(fld.values.shape)

    def test_exact_vs_brute_force(self):
        rng = np.random.default_rng(6)
        g1 = el.Grid(1, 1 / 63, (0.0,), (64,))
        g2 = el.Grid(2, 1 / 31, (0.0, 0.0), (64, 64))
        for g in (g1, g2):
            f = el.ScalarField(g, rng.normal(size=g.counts))
            for eps in (0.02, 0.3):
                assert np.array_equal(el.inf_convolution(f, eps).values,
                                      self.brute(f, eps))

    def test_huber_closed_form(self):
        g = el.Grid(1, 1 / 256, (-1.0,), (513,))
        f = el.ScalarField.from_function(g, lambda p: np.abs(p[..., 0]))
        x = g.axes()[0]
        for eps in (0.05, 0.2):
            out = el.inf_convolution(f, eps).values
            huber = np.where(np.abs(x) >= eps, np.abs(x) - eps / 2,
                             x ** 2 / (2 * eps))
            keep = np.abs(x) <= 1 - eps  # minimizer inside the grid
            assert np.abs(out - huber)[keep].max() <= g.h

    def test_semigroup(self):
        rng = np.random.default_rng(66)
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField(g, rng.normal(size=g.counts))
        for e1, e2 in ((0.1, 0.2), (0.05, 0.05), (0.3, 0.1)):
            two = el.inf_convolution(el.inf_convolution(f, e1), e2).values
            one = el.inf_convolution(f, e1 + e2).values
            tol = 2 * g.h ** 2 * (1 / (2 * e1) + 1 / (2 * e2))
            assert np.abs(two - one).max() <= tol

    def test_ordering(self):
        rng = np.random.default_rng(67)
        g = el.Grid(1, 1 / 128, (0.0,), (129,))
        f = el.ScalarField(g, rng.normal(size=g.counts))
        small = el.inf_convolution(f, 0.05).values
        big = el.inf_convolution(f, 0.5).values
        assert np.all(big <= small + 1e-15)
        assert np.all(small <= f.values + 1e-15)


class TestContactPipeline:
    """7. Node-exact contact for u = 0; area formula never overshoots."""

    def test_flat_field_contact_is_center_ball(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField(g, np.zeros(g.counts))
        ball = el.Ball((0.0, 0.0), 0.25)
        fam = el.ParaboloidFamily(opening=1.0, center_set=ball)
        cs = el.contact_set(f, fam)
        assert np.array_equal(cs.node_mask(), ball.mask(g))
        # each paraboloid touches at its own vertex, which it transports to
        np.testing.assert_array_equal(cs.centers,
                                      g.coords()[tuple(cs.indices.T)])
        # identity transport: the area formula is an equality up to O(h)
        tr = el.transport_map(cs, f)
        np.testing.assert_array_equal(tr.targets, cs.centers)
        rep = el.area_formula_check(tr, ball)
        assert rep.passed
        assert abs(rep.rhs - rep.lhs) <= 4 * g.h

    def test_fifty_semiconvex_fields(self):
        rng = np.random.default_rng(7)
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        pts = g.coords()
        fam = el.ParaboloidFamily(opening=8.0,
                                  center_set=el.Ball((0.0, 0.0), 0.25))
        for _ in range(50):
            vals = np.zeros(g.counts)
            for _ in range(3):  # |D^2 u| <= 3 * 0.3 * 4 < 8
                kvec = rng.uniform(-2, 2, 2)
                amp = rng.uniform(-0.3, 0.3)
                ph = rng.uniform(0, 2 * np.pi)
                vals += amp * np.cos(pts @ kvec + ph)
            f = el.ScalarField(g, vals)
            cs = el.contact_set(f, fam,
                                tol=el.tangency_tolerance(fam, g.h))
            csi = cs.interior()
            assert len(csi) > 0
            tr = el.transport_map(csi, f)
            rep = el.area_formula_check(tr, fam.center_set)
            assert rep.rhs - rep.lhs >= 0.0


class TestABPAndAleksandrov:
    """8. Maximum principles on the convex family; pinned constants."""

    PINNED_ABP_C = 2.0 / (2.0 * 1.0 * math.pi ** 0.5)  # n=2, lam=1
    PINNED_ALEK_C = 1.0  # n / |B_1^{n-1}| at n=2

    def test_reference_bowl(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: np.sum(p ** 2, axis=-1) - 1.0)
        rep = el.abp_bound(f, ELL)
        assert rep.passed
        assert rep.constants["C_impl"] == pytest.approx(self.PINNED_ABP_C,
                                                        rel=1e-12)

    def test_randomized_convex_family(self):
        rng = np.random.default_rng(2024)
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        pts = g.coords()
        r = np.linalg.norm(pts, axis=-1)
        ring = np.abs(r - 1.0) <= g.h
        for _ in range(20):
            ev = rng.uniform(0.3, 2.0, 2)
            th = rng.uniform(0, np.pi)
            Q = np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]])
            A = Q @ np.diag(ev) @ Q.T
            b = rng.uniform(-0.1, 0.1, 2)
            q = 0.5 * np.einsum("...i,ij,...j->...", pts, A, pts) + pts @ b
            c = 0.8 * q[ring].min()  # the ellipse {q < c} sits inside B_1
            f = el.ScalarField(g, q - c)
            abp = el.abp_bound(f, ELL)
            assert abp.passed
            assert abp.constants["C_impl"] == pytest.approx(
                self.PINNED_ABP_C, rel=1e-12)
            alek = el.aleksandrov_check(f, el.SubLevel(f, 0.0))
            assert alek.passed
            assert alek.constants["C_impl"] == pytest.approx(
                self.PINNED_ALEK_C, rel=1e-12)


class TestCoveringsExact:
    """9. Exact combinatorics: dyadic, CZ, Vitali, stacking."""

    def test_halfline_depth_ten(self):
        reg = BoxRegion(((F(0), F(1, 2), True, False),))
        dec = dyadic_decomposition(reg, max_depth=10)
        want = {(k, (1 << (k - 1)) + 1) for k in range(2, 11)}
        assert {(c.gen, c.idx[0]) for c in dec.cubes} == want
        assert dec.residual == F(1, 1024)
        assert dec.covered + dec.residual == reg.measure

    def test_hundred_random_regions(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            dim = int(rng.integers(1, 3))
            depth = int(rng.integers(2, 5))
            cells = rng.random((2 ** depth,) * dim) < rng.uniform(0.2, 0.8)
            reg = CellUnion(depth, cells)
            dec = dyadic_decomposition(reg, max_depth=depth + 1)
            # two closed dyadic cubes nest exactly when they are equal or
            # one is an ancestor of the other: no cube of a decomposition
            # is selected twice, and none has a selected ancestor
            picked = {(a.gen, a.idx) for a in dec.cubes}
            assert len(picked) == len(dec.cubes)
            for a in dec.cubes:
                assert contains(reg, a)
                if a.gen > 0:
                    assert not contains(reg, DyadicCube(
                        a.gen - 1, tuple(j // 2 for j in a.idx)))
                assert not any((a.gen - k, tuple(j >> k for j in a.idx))
                               in picked for k in range(1, a.gen + 1))
            assert dec.covered + dec.residual == reg.measure

    def test_vitali_exact(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            m = int(rng.integers(10, 40))
            centers = rng.uniform(-0.4, 0.4, size=(m, 2))
            radii = rng.uniform(0.02, 0.15, size=m)
            rep = vitali_check(BallCollection(
                tuple(tuple(F(x).limit_denominator(10 ** 12) for x in c)
                      for c in centers),
                tuple(F(r).limit_denominator(10 ** 12) for r in radii)))
            assert rep.passed

    def test_thousand_stackings(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            n_cyl = int(rng.integers(1, 6))
            cyls = []
            for _ in range(n_cyl):
                gen = int(rng.integers(0, 4))
                idx = int(rng.integers(0, 1 << gen))
                t = F(int(rng.integers(-(4 ** gen), 4 ** gen)), 4 ** gen)
                cyls.append(Cylinder(DyadicCube(gen, (idx,)), t))
            rep = stacking(cyls, m)
            assert rep.passed

    def test_single_cylinder_equality(self):
        for m in (1, 2, 5):
            rep = stacking([Cylinder(DyadicCube(2, (1,)), F(1, 16))], m)
            assert rep.passed
            assert rep.lhs == pytest.approx(rep.rhs, rel=1e-15)


class TestSunRising:
    """10. Shaded-measure bound on monotone fields and the sine example."""

    def test_fifty_random_fields(self):
        rng = np.random.default_rng(10)
        g = el.Grid(1, 1 / 512, (0.0,), (513,))
        for _ in range(50):
            vals = np.cumsum(np.abs(rng.normal(size=513))) * g.h \
                * rng.uniform(0.2, 3.0)
            f = el.ScalarField(g, vals)
            for m in (0.5, 1.0, 4.0):
                rep = sun_rising(f, m=m)
                assert rep.passed
                assert rep.lhs <= rep.rhs + 2 * g.h + 1e-12

    def test_sine_at_m_twenty(self):
        g = el.Grid(1, 1 / 1024, (0.0,), (1025,))
        f = el.ScalarField.from_function(
            g, lambda p: np.sin(2 * np.pi * p[..., 0]))
        rep = sun_rising(f, m=20.0)
        assert rep.passed
        assert rep.lhs <= 2.0 / 20.0 + 2 * g.h


@pytest.fixture(scope="module")
def solved_family():
    R, h = 3.2, 1 / 8
    g = el.Grid.cover((0.0, 0.0), R, h)
    dom = el.Ball((0.0, 0.0), R)
    rng = np.random.default_rng(7)
    out = []
    for _ in range(10):
        ang = rng.uniform(0, 2 * np.pi)
        ctr = R * np.array([np.cos(ang), np.sin(ang)])
        amp = rng.uniform(4.0, 12.0)
        wid = rng.uniform(1.0, 2.0)
        bd = el.BoundaryData(
            lambda p, c=ctr, a=amp, w=wid:
            0.1 + a * np.exp(-w * np.sum((p - c) ** 2, axis=-1)))
        u, rep = el.solve_pucci(
            g, dom, 0.0, bd, ELL,
            config=el.SolverConfig(tol=2e-3, max_iter=50))
        assert rep.passed
        out.append((g, u))
    return out


class TestWeakHarnackDecay:
    """11. Distribution decay and Harnack for solved supersolutions."""

    PINNED_HARNACK_C = 8.0

    def test_distribution_decay(self, solved_family):
        for g, u in solved_family:
            q3 = el.Cube((0.0, 0.0), 3.0, closed=True)
            m3 = float(u.values[q3.mask(g)].min())
            # normalize so min over the big cube is 1 (<= 1 required)
            un = el.ScalarField(g, u.values / m3)
            rep = el.weak_harnack_ue_check(un, ELL)
            assert rep.passed
            assert rep.constants["eps"] == pytest.approx(
                -math.log(0.5) / math.log(64.0))
            assert rep.constants["C"] == pytest.approx(
                64.0 ** rep.constants["eps"])

    def test_harnack_sup_inf(self, solved_family):
        for g, u in solved_family:
            q1 = el.Cube((0.0, 0.0), 1.0, closed=True).mask(g)
            sup1 = float(u.values[q1].max())
            inf1 = float(u.values[q1].min())
            P = el.pucci_minus(el.hessian(u), ELL)
            core = tuple(slice(1, c - 1) for c in g.counts)
            fnorm = float((np.sum(np.abs(P[q1[core]]) ** 2)
                           * g.cell_measure) ** 0.5)
            assert sup1 <= self.PINNED_HARNACK_C * (inf1 + fnorm)


class TestProbabilistic:
    """12. Monte Carlo vs the exact lattice-harmonic oracle."""

    def test_mc_within_three_sigma(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        target = el.ClosedBall((0.0, 0.0), 0.25)
        dom = el.Ball((0.0, 0.0), 1.0)
        cfg = el.WalkConfig(n_samples=100_000, seed=5)
        start = (0.4, 0.0)
        est, se, rep = el.random_walk_hitting(g, start, target, dom, cfg)
        exact = el.discrete_harmonic_hitting(g, target, dom)
        want = float(exact.values[g.index_of(start)])
        sigma = math.sqrt(want * (1 - want) / cfg.n_samples)
        assert abs(est - want) <= 3 * sigma

    def test_hitting_scales_with_target_mass(self):
        c_pinned = 0.02
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        dom = el.Ball((0.0, 0.0), 1.0)
        rho = 0.5
        pts = g.coords()
        ang = np.arctan2(pts[..., 1], pts[..., 0])
        inB = np.linalg.norm(pts, axis=-1) <= rho
        b13 = el.ClosedBall((0.0, 0.0), 1 / 3)
        for lim in (np.pi / 2, np.pi, 1.5 * np.pi):  # quarter/half/3-quarter
            mask = inB & (ang <= -np.pi + lim)
            A = el.SubLevel(el.ScalarField(g, (~mask).astype(float)), 0.0)
            v = el.discrete_harmonic_hitting(g, A, dom)
            measA = float(mask.sum()) * g.cell_measure
            min13 = float(v.values[b13.mask(g)].min())
            assert min13 >= c_pinned * measA


class TestFractional:
    """13. Kernel quadrature against closed forms and symmetries."""

    def test_zero_on_linear(self):
        g = el.Grid(1, 1 / 8, (-8.0,), (129,))
        f = el.ScalarField.from_function(g, lambda p: 0.7 * p[..., 0])
        res = el.fractional_laplacian(f, el.FractionalParams(sigma=1.0,
                                                             level=2),
                                      tail=el.TailSpec(kind="zero"))
        v = float(res.field.values[g.index_of((0.0,))])
        # symmetric differences of an odd field cancel exactly at 0
        assert abs(v) <= res.quadrature_error + res.tail_error + 1e-10

    def test_nonpositive_at_strict_max(self):
        g = el.Grid(1, 1 / 8, (-8.0,), (129,))
        for fn in (lambda p: np.exp(-p[..., 0] ** 2),
                   lambda p: 1.0 / (1.0 + p[..., 0] ** 2)):
            f = el.ScalarField.from_function(g, fn)
            res = el.fractional_laplacian(f, el.FractionalParams(sigma=1.0))
            assert float(res.field.values[res.eval_mask][0]) <= 0.0

    def test_gaussian_closed_form(self):
        # int (e^{-y^2} + e^{-y^2} - 2) / y^2 dy over R = -4 sqrt(pi)
        g = el.Grid(1, 1 / 16, (-8.0,), (257,))
        f = el.ScalarField.from_function(g, lambda p: np.exp(-p[..., 0] ** 2))
        res = el.fractional_laplacian(f, el.FractionalParams(sigma=1.0,
                                                             level=3),
                                      tail=el.TailSpec(kind="zero"))
        v = float(res.field.values[res.eval_mask][0])
        exact = -4.0 * math.sqrt(math.pi)
        assert abs(v - exact) / abs(exact) <= 0.01

    def test_kernel_scaling_symmetry(self):
        # u_lam(x) = u(lam x): the value at 0 scales by lam^sigma
        sigma, lam = 1.0, 2.0
        g1 = el.Grid(1, 1 / 16, (-8.0,), (257,))
        u = el.ScalarField.from_function(g1, lambda p: np.exp(-p[..., 0] ** 2))
        g2 = el.Grid(1, 1 / 32, (-8.0,), (513,))
        ul = el.ScalarField.from_function(
            g2, lambda p: np.exp(-(lam * p[..., 0]) ** 2))
        params = el.FractionalParams(sigma=sigma, level=3)
        v1 = float(el.fractional_laplacian(
            u, params, tail=el.TailSpec(kind="zero")).field.values[
                g1.index_of((0.0,))])
        v2 = float(el.fractional_laplacian(
            ul, params, tail=el.TailSpec(kind="zero")).field.values[
                g2.index_of((0.0,))])
        assert v2 == pytest.approx(lam ** sigma * v1, rel=5e-3)


class TestHessianEstimates:
    """14. Second differences of solved concave-operator solutions."""

    PINNED_C = 4.0  # for the fixed difference step 1/8

    def test_second_difference_supersolutions(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        dom = el.Ball((0.0, 0.0), 1.0)
        rng = np.random.default_rng(9)
        step = 2 / 16
        tol = 20 * 1e-3  # solver defect budget amplified by the quotient
        for _ in range(5):
            kv = rng.uniform(-2, 2, 2)
            ph = rng.uniform(0, 2 * np.pi)
            bd = el.BoundaryData(
                lambda p, kv=kv, ph=ph: np.cos(p @ kv + ph) + 0.3 * p[..., 0])
            u, rep = el.solve_pucci(
                g, dom, 0.0, bd, ELL, sign="plus",
                config=el.SolverConfig(tol=1e-3, max_iter=50))
            assert rep.passed
            osc = float(u.values.max() - u.values.min())
            for e in ((1.0, 0.0), (0.0, 1.0)):
                v, _ = _second_difference(u, e, step)
                ptsv = v.grid.coords()
                inner = np.linalg.norm(ptsv, axis=-1) < 1.0 - 3 * g.h - step
                Pm = el.pucci_minus(el.hessian(v), ELL)
                corev = tuple(slice(1, c - 1) for c in v.grid.counts)
                keep = inner[corev]
                assert keep.any()
                # P^+ concavity: v_{2,h} is a P^- supersolution up to defect
                assert float(Pm[keep].max()) <= tol
                neg = float(np.clip(-v.values[inner], 0, None).max())
                assert neg <= self.PINNED_C * osc
