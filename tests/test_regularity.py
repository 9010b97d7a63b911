import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

import ellipticlab as el
from ellipticlab.grid import _interior, _lp
from ellipticlab.regularity import _holder_from_decay, _mean_value_constant


ELL = el.Ellipticity(1.0, 2.0)


def harmonic_2d(k, coeffs=(1.0, 0.0)):
    """Real/imag parts of z^k mixed with the given coefficients."""
    a, b = coeffs

    def fn(p):
        z = p[..., 0] + 1j * p[..., 1]
        return a * (z ** k).real + b * (z ** k).imag

    return fn


def gaussian(g, sigma):
    """``exp(-|x|^2 / (2 sigma^2))`` on ``g``, as the suites build it."""
    return el.ScalarField(g, np.exp(-g._r2 / (2 * sigma * sigma)))


def concave_quadratic(g):
    """``-|x|^2 / 2`` on a 2-D ``g``, the quadratic form of ``-I``."""
    pts = g.coords()
    return el.ScalarField(g, 0.5 * np.einsum("...i,ij,...j->...", pts,
                                             -np.eye(2), pts))


def decay_field(radii, oscs):
    """A field whose oscillation over each closed ball ``B_{radii[k]}``
    about the origin is exactly ``oscs[k]`` (radii decreasing, oscs not
    increasing): on the half-line ``[0, radii[0]]``, 0 at the origin and
    piecewise linear in ``|x|``, taking ``oscs[k]`` at the farthest node of
    ``B_{radii[k]}``.  The spacing is half the least gap between the
    radii and 0, so each ball reaches a node past the next smaller one."""
    radii = np.asarray(radii, dtype=float)
    h = float(np.min(-np.diff(np.append(radii, 0.0)))) / 2
    g = el.Grid(1, h, (0.0,), (int(radii[0] / h) + 1,))
    x = g.axes()[0]
    far = [x[el.ClosedBall((0.0,), r).mask(g)].max() for r in radii]
    return el.ScalarField(g, np.interp(x, [0.0, *far[::-1]],
                                       [0.0, *np.asarray(oscs)[::-1]]))


def oscillation_profile(f, r0, rho, depth):
    """The radii ``rho^k r0`` and the oscillations of ``f`` over the closed
    balls of those radii about the origin, k = 0..depth."""
    radii = np.array([r0 * rho ** k for k in range(depth + 1)])
    center = (0.0,) * f.grid.dim
    return radii, np.array([el.oscillation(f, el.ClosedBall(center, r))
                            for r in radii])


class TestDecayProfiles:
    def test_geometric_profile_zero_margin(self):
        radii = 0.5 ** np.arange(6)
        oscs = 2.0 * 0.75 ** np.arange(6)
        f = decay_field(radii, oscs)
        np.testing.assert_array_equal(
            oscillation_profile(f, 1.0, 0.5, 5)[1], oscs)
        rep = el.decay_implies_modulus_check(f, 1.0, 0.5, 5, theta=0.25)
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.grid == f.grid.meta()

    def test_exponent_and_constant(self):
        consts = _holder_from_decay(theta=0.25, rho=0.5)
        assert consts["alpha"] == pytest.approx(
            math.log(0.75) / math.log(0.5))
        assert consts["C"] == pytest.approx(4 / 3)

    def test_failing_step_reported(self):
        radii = 0.5 ** np.arange(4)
        oscs = np.array([1.0, 0.7, 0.6, 0.55])
        f = decay_field(radii, oscs)
        rep = el.decay_implies_modulus_check(f, 1.0, 0.5, 3, theta=0.3)
        assert not rep.passed
        assert "k=1" in rep.notes

    def test_fit_recovers_power(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 256)
        for alpha in (0.3, 0.5, 0.7, 1.0):
            f = el.ScalarField.from_function(
                g, lambda p, a=alpha: np.sum(p ** 2, axis=-1) ** (a / 2))
            radii, oscs = oscillation_profile(f, r0=1.0, rho=0.5, depth=5)
            x, y = np.log(radii), np.log(oscs)
            got, icpt = np.polyfit(x, y, 1)
            r2 = 1.0 - (np.sum((got * x + icpt - y) ** 2)
                        / np.sum((y - y.mean()) ** 2))
            assert got == pytest.approx(alpha, rel=0.05)
            assert r2 > 0.99


class TestMeanValue:
    def test_constant_formula(self):
        assert _mean_value_constant(2, np.inf) == pytest.approx(1 / 8)
        assert _mean_value_constant(3, np.inf) == pytest.approx(1 / 10)
        a = 2.0 - 2 / 4.0
        want = 1.0 / (a * (2 + a) * math.pi ** (1 / 4.0))
        assert _mean_value_constant(2, 4.0) == pytest.approx(want)
        with pytest.raises(ValueError):
            _mean_value_constant(3, 1.0)

    def test_harmonic_equality(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(g, harmonic_2d(3, (0.7, -0.2)))
        rep = el.mean_value_check(f, (0.0, 0.0), 0.5)
        assert rep.passed
        # harmonic: the average actually matches the center value
        assert abs(rep.lhs - f.at((0.0, 0.0))) < 5 * g.h

    def test_subharmonic_strict(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: np.sum(p ** 2, axis=-1))
        rep = el.mean_value_check(f, (0.0, 0.0), 0.5)
        assert rep.passed
        assert rep.constants["forcing"] == pytest.approx(4.0, abs=1e-8)

    def test_convergence_order(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = el.Grid.cover((0.0, 0.0), 1.0, h)
            f = el.ScalarField.from_function(g, harmonic_2d(4))
            rep = el.mean_value_check(f, (0.0, 0.0), 0.5)
            errs.append(abs(rep.lhs - rep.rhs))
        rate = np.log2(errs[0] / errs[2]) / 2
        assert rate > 0.9


class TestHarnack:
    def test_weak_harnack_positive_harmonic(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: 2.0 + harmonic_2d(2)(p))
        rep = el.weak_harnack_laplacian_check(f)
        assert rep.passed

    @pytest.mark.parametrize("p", [np.inf, 3.0])
    def test_weak_harnack_constant_is_the_mean_value_one(self, p):
        # the chain's constant from the mean value check at the minimum
        # point x0 of B_1/3 with radius 2/3, which the check once ran
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField.from_function(
            g, lambda q: 2.0 + harmonic_2d(2)(q) + 0.3 * np.sum(q ** 2, -1))
        rep = el.weak_harnack_laplacian_check(f, p)
        m = el.ClosedBall((0.0, 0.0), 1 / 3).mask(g)
        x0 = g.coords()[m][np.argmin(f.values[m])]
        mv = el.mean_value_check(f, x0, 2 / 3, p=p).constants
        assert rep.constants["C_impl"] == \
            4.0 * max(1.0, mv["C"] * (2 / 3) ** mv["exponent"])
        assert rep.constants["forcing"] > 0 and rep.passed

    def test_weak_harnack_guard(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
        f = el.ScalarField(g, np.full(g.counts, -1.0))
        rep = el.weak_harnack_laplacian_check(f)
        assert not rep.passed

    def test_quotient_bound_translated_kernel(self):
        # positive harmonic with a pole outside the closed ball
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        pole = np.array([1.3, 0.0])

        def fn(p):
            return np.log(4.0 / np.linalg.norm(p - pole, axis=-1))

        f = el.ScalarField.from_function(g, fn)
        for r in (1 / 8, 1 / 4):
            rep = el.harnack_quotient_check(f, r)
            assert rep.passed

    def test_quotient_radius_validation(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.ones(g.counts))
        with pytest.raises(ValueError):
            el.harnack_quotient_check(f, 0.4)

    def test_weak_harnack_ue_constant_field(self):
        g = el.Grid.cover((0.0, 0.0), 3.2, 1 / 16)
        f = el.ScalarField(g, np.ones(g.counts))
        rep = el.weak_harnack_ue_check(f, ELL)
        assert rep.passed
        assert rep.constants["eps"] == pytest.approx(1 / 6)
        assert rep.constants["C"] == pytest.approx(2.0)

    def test_weak_harnack_ue_reads_only_the_big_cube(self):
        # convex in x1 > 3 and negative at a corner, both outside the
        # closed cube Q_{4 sqrt 2} (half side 2.83), where the hypotheses
        # are stated: neither enters
        g = el.Grid.cover((0.0, 0.0), 3.6, 1 / 10)
        x1 = g.coords()[..., 0]
        vals = 1.0 + np.clip(x1 - 3.0, 0, None) ** 2
        vals[0, 0] = -1.0
        rep = el.weak_harnack_ue_check(el.ScalarField(g, vals), ELL)
        assert rep.status == "pass"
        assert rep.constants["forcing"] == 0.0
        assert rep.rhs == rep.constants["C"] * rep.constants["min_Q3"] ** (
            rep.constants["eps"])


class TestLocalMax:
    def test_laplacian_mode(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 48)
        f = el.ScalarField.from_function(g, harmonic_2d(2, (0.5, 0.5)))
        rep = el.local_max_check(f)
        assert rep.passed
        assert rep.constants["mode"] == "laplacian"

    def test_pucci_mode(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 48)
        f = el.ScalarField.from_function(
            g, lambda p: 1.0 - np.sum(p ** 2, axis=-1))
        rep = el.local_max_check(f, ell=ELL)
        assert rep.passed
        assert rep.constants["mode"] == "pucci"

    def test_constant_is_pinned_per_mode(self):
        h = 1 / 24
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = concave_quadratic(g)
        lap = el.local_max_check(f)
        pucci = el.local_max_check(f, ell=el.Ellipticity(1.0, 2.0))
        assert (lap.constants["mode"], lap.constants["C_pinned"]) \
            == ("laplacian", 50.0)
        assert (pucci.constants["mode"], pucci.constants["C_pinned"]) \
            == ("pucci", 80.0)
        for rep in (lap, pucci):
            c = rep.constants
            assert rep.rhs == c["C_pinned"] * (c["u_eps_norm"] + c["forcing"])

    def test_finite_p_forcing(self):
        # the laplacian-core Gaussian; the forcing is the Riemann sum
        # (sum ((lap u)_-)^4 h^2)^(1/4) over the B_1 nodes of the interior
        # grid, with the 5-point Laplacian written out here
        h = 1 / 128
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = gaussian(g, 0.6)
        rep = el.local_max_check(f, eps=1.0, p=4)
        u = f.values
        lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
               - 4 * u[1:-1, 1:-1]) / h ** 2
        inside = np.sum(g.coords()[1:-1, 1:-1] ** 2, axis=-1) < 1.0
        neg = np.clip(-lap[inside], 0, None)
        want = (np.sum(neg ** 4) * h ** 2) ** 0.25
        assert rep.constants["forcing"] == pytest.approx(want, rel=1e-12)
        assert rep.passed

    def test_forcing_ball_is_the_fields_ball(self):
        # the forcing selects the Laplacian by the field grid's own B_1
        # mask, node for node, so the two sums agree bit for bit; an open
        # ball, because ClosedBall's slack hides an ulp
        wrong = []
        for dim, top in ((1, 47), (2, 47), (3, 19)):
            for inv_h, R in itertools.product(range(8, top + 1),
                                              (1.0, 1.05, 1.2)):
                h = 1 / inv_h
                g = el.Grid.cover((0.0,) * dim, R + 2 * h, h)
                f = el.ScalarField(g, -np.sum(g.coords() ** 2, axis=-1))
                rep = el.local_max_check(f, p=4)
                core = el.Ball((0.0,) * dim, 1.0).mask(g)[_interior(g.counts)]
                want = _lp(np.clip(-el.laplacian(f), 0, None)[core], 4,
                           g.cell_measure)
                if rep.constants["forcing"] != want:
                    wrong.append((dim, inv_h, R))
        assert wrong == []

    @pytest.mark.parametrize("eps", [0.0, -1.0, -np.inf, np.nan])
    def test_rejects_eps_not_above_zero(self, eps):
        # the laplacian-core Gaussian, on which eps = -1 used to pass, and
        # eps = nan failed with "non-finite side"
        h = 1 / 32
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = gaussian(g, 0.6)
        with pytest.raises(ValueError, match="eps must be positive"):
            el.local_max_check(f, eps=eps)

    def test_overflowing_rhs_fails(self):
        # at eps = 1e-3 the B_1 sum of u_+^eps h^2 is near pi, and its
        # 1/eps-th power overflows to rhs = inf, which used to pass
        h = 1 / 32
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = gaussian(g, 0.6)
        with np.errstate(over="ignore"):
            rep = el.local_max_check(f, eps=1e-3)
        assert rep.rhs == np.inf
        assert rep.status == "fail" and "non-finite side" in rep.notes

    def test_pucci_forcing_at_h_24(self):
        h = 1 / 24
        g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
        f = concave_quadratic(g)
        rep = el.local_max_check(f, ell=el.Ellipticity(1.0, 2.0))
        assert rep.constants["forcing"] == 3.528652559956688


class TestCalculusChecks:
    def test_ball_average_laplacian(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 128)
        f = el.ScalarField.from_function(
            g, lambda p: np.sum(p ** 2, axis=-1) + p[..., 0])
        rep = el.ball_average_laplacian(f, (0.0, 0.0), 0.25)
        assert rep.passed
        # normalized limit lap/(2(n+2)) = 4/8
        assert rep.constants["limit"] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("center", [(-1.0, 0.0), (0.0, 1.0)])
    def test_ball_average_laplacian_off_the_outer_layer(self, center):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 16)
        f = el.ScalarField(g, np.zeros(g.counts))
        with pytest.raises(ValueError):
            el.ball_average_laplacian(f, center, 0.25)

    def test_mollification_identity(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: np.cos(2 * p[..., 0]) * np.sin(p[..., 1]))
        rep = el.mollification_identity_check(f)
        assert rep.passed

    @pytest.mark.parametrize("dim, h", [(1, 1 / 32), (2, 1 / 16), (3, 1 / 8)])
    def test_mollification_matches_convolve(self, dim, h):
        # the scipy convolution the tap sum replaced, on the core it reads
        g = el.Grid.cover((0.0,) * dim, 1.0, h)
        u = np.random.default_rng(dim).normal(size=g.counts)
        ax = np.arange(-3, 4) * h
        r2 = sum(a ** 2 for a in np.meshgrid(*[ax] * dim, indexing="ij"))
        ker = np.clip(1 - r2 / (3 * h) ** 2, 0, None) ** 2
        sm = ndimage.convolve(u, ker / ker.sum(), mode="nearest")
        core = tuple(slice(3, c - 3) for c in g.counts)
        rep = el.mollification_identity_check(el.ScalarField(g, u))
        assert rep.lhs == float(np.abs(sm[core] - u[core]).max())

    def test_morrey_in_1d_is_the_general_estimate(self):
        # no branch of its own: the scaled oscillations over the closed
        # B_1/2, B_1/4, B_1/8 and B_1/16 (radii down to 4h) against
        # C = 4 times the L^8 norm of the centered differences over the
        # open B_1, by hand
        h, p = 1 / 64, 8.0
        alpha = 1 - 1 / p
        g = el.Grid.cover((0.0,), 1.0, h)
        x = g.axes()[0]
        vals = np.abs(x - 0.1) ** (7 / 8)
        rep = el.morrey_check(el.ScalarField(g, vals), p)
        best = 0.0
        for r in (1 / 2, 1 / 4, 1 / 8, 1 / 16):
            ball = vals[np.abs(x) <= r]
            best = max(best, (ball.max() - ball.min()) / r ** alpha)
        du = (vals[2:] - vals[:-2]) / (2 * h)
        norm = (np.sum(np.abs(du[np.abs(x[1:-1]) < 1]) ** p) * h) ** (1 / p)
        assert rep.lhs == pytest.approx(best, rel=1e-12, abs=0)
        assert rep.rhs == pytest.approx(4 * norm, rel=1e-12, abs=0)
        assert rep.constants == {"p": p, "alpha": alpha, "C_pinned": 4.0}
        assert rep.status == "pass"

    def test_morrey_with_no_radius_is_a_hypothesis(self):
        # the radii 1/2, 1/4, ... stop below 4h: at h = 0.5 none is left,
        # at h = 1/8 the radius 1/2 alone
        for h, status in ((0.5, "hypothesis"), (0.125, "pass")):
            g = el.Grid.cover((0.0, 0.0), 1.0, h)
            f = el.ScalarField.from_function(
                g, lambda p: np.cos(p[..., 0]) + p[..., 1] ** 2)
            rep = el.morrey_check(f, p=8.0)
            assert rep.status == status
            assert (rep.lhs > 0) == (status == "pass")

    def test_rolle_gradient_point(self):
        g = el.Grid(1, 1 / 256, (0.0,), (513,))
        f = el.ScalarField.from_function(g, lambda p: np.sin(p[..., 0]))
        rep = el.rolle_gradient_check(f, (1.0,), 0.5)
        assert rep.passed
        # the touching node lies in B_(r/2)(x1)
        assert abs(rep.constants["node"][0] - 1.0) <= 0.25


class TestParameterRanges:
    """A radius, depth or exponent out of range, NaN included, is a
    ``ValueError`` that names the parameter."""

    GRID = el.Grid.cover((0.0, 0.0), 1.0 + 2 / 16, 1 / 16)
    FIELD = el.ScalarField.from_function(
        GRID, lambda p: np.cos(p[..., 0]) + p[..., 1] ** 2)

    @pytest.mark.parametrize("rho", [0.0, -0.25, math.nan])
    def test_ball_average_laplacian_rho(self, rho):
        # rho = 0 divided by zero; rho = -0.25 took the ball of 0.25
        with pytest.raises(ValueError, match="rho must be positive"):
            el.ball_average_laplacian(self.FIELD, (0.0, 0.0), rho)

    @pytest.mark.parametrize("r", [0.0, -0.5, math.nan])
    def test_rolle_gradient_point_r(self, r):
        # r = -0.5 took the ball of 0.25 and failed on a negative bound
        with pytest.raises(ValueError, match="r must be positive"):
            el.rolle_gradient_check(self.FIELD, (0.0, 0.0), r)

    @pytest.mark.parametrize("radius", [0.0, -0.5, math.nan])
    @pytest.mark.parametrize("p", [4.0, np.inf])
    def test_mean_value_check_radius(self, radius, p):
        # radius -0.5 at p = 4 raised TypeError on a complex power, and
        # radius 0 passed on the one node at the center
        with pytest.raises(ValueError, match="radius must be positive"):
            el.mean_value_check(self.FIELD, (0.0, 0.0), radius, p=p)

    @pytest.mark.parametrize("depth", [-1, -5])
    def test_oscillation_profile_depth(self, depth):
        # depth -1 built an empty profile, on which
        # decay_implies_modulus_check raised IndexError
        with pytest.raises(ValueError, match="depth must be at least 0"):
            el.decay_implies_modulus_check(self.FIELD, 1.0, 0.5, depth, 0.25)

    @pytest.mark.parametrize("r0", [math.nan, 0.0, -0.5, math.inf])
    def test_decay_implies_modulus_check_r0(self, r0):
        # r0 = nan raised "region contains no grid nodes", and r0 <= 0
        # "radii must decrease"
        with pytest.raises(ValueError, match="r0 must be a finite number "
                                             "above 0"):
            el.decay_implies_modulus_check(self.FIELD, r0, 0.5, 4, 0.25)

    @pytest.mark.parametrize("depth", [-1, -5])
    def test_diminish_of_distribution_check_depth(self, depth):
        # depth -1 raised "negative shift count"
        with pytest.raises(ValueError, match="depth must be at least 0"):
            el.diminish_of_distribution_check(self.FIELD, ELL, depth=depth)

    @pytest.mark.parametrize("p", [math.nan, 2.0, 1.0])
    def test_morrey_check_p(self, p):
        # p = nan failed with "non-finite side": p <= dim is false
        with pytest.raises(ValueError, match="p must be above the "
                                             "dimension 2"):
            el.morrey_check(self.FIELD, p)

    @pytest.mark.parametrize("p", [math.nan, 1.0, 0.5])
    def test_mean_value_exponent(self, p):
        # p = nan made the exponent 2 - n/p nan, which "a <= 0" let by
        with pytest.raises(ValueError, match="p must be above n/2"):
            el.mean_value_check(self.FIELD, (0.0, 0.0), 0.5, p=p)


class TestDistribution:
    def test_diminish_on_barrier_like_field(self):
        g = el.Grid.cover((0.0, 0.0), 0.5, 1 / 64)
        # supersolution spiking above 1 near the center
        f = el.ScalarField.from_function(
            g, lambda p: 4.0 * np.exp(-32 * np.sum(p ** 2, axis=-1)))
        rep = el.diminish_of_distribution_check(f, ELL, depth=4)
        assert rep.passed
        assert rep.constants["n_cubes"] >= 1
