import math

import numpy as np
import pytest

import ellipticlab as el


ELL = el.Ellipticity(1.0, 2.0)


def harmonic_2d(k, coeffs=(1.0, 0.0)):
    """Real/imag parts of z^k mixed with the given coefficients."""
    a, b = coeffs

    def fn(p):
        z = p[..., 0] + 1j * p[..., 1]
        return a * (z ** k).real + b * (z ** k).imag

    return fn


class TestDecayProfiles:
    def test_geometric_profile_zero_margin(self):
        radii = 0.5 ** np.arange(6)
        oscs = 2.0 * 0.75 ** np.arange(6)
        prof = el.DecayProfile(radii=radii, oscillations=oscs, rho=0.5,
                               center=(0.0,))
        rep = el.decay_implies_modulus_check(prof, theta=0.25)
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_exponent_and_constant(self):
        consts = el.holder_from_decay(theta=0.25, rho=0.5)
        assert consts.alpha == pytest.approx(
            math.log(0.75) / math.log(0.5))
        assert consts.C == pytest.approx(4 / 3)

    def test_failing_step_reported(self):
        radii = 0.5 ** np.arange(4)
        oscs = np.array([1.0, 0.7, 0.6, 0.55])
        prof = el.DecayProfile(radii=radii, oscillations=oscs, rho=0.5,
                               center=(0.0,))
        rep = el.decay_implies_modulus_check(prof, theta=0.3)
        assert not rep.passed
        assert "k=1" in rep.notes

    def test_fit_recovers_power(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 256)
        for alpha in (0.3, 0.5, 0.7, 1.0):
            f = el.ScalarField.from_function(
                g, lambda p, a=alpha: np.sum(p ** 2, axis=-1) ** (a / 2))
            prof = el.oscillation_profile(f, r0=1.0, rho=0.5, depth=5)
            x, y = np.log(prof.radii), np.log(prof.oscillations)
            got, icpt = np.polyfit(x, y, 1)
            r2 = 1.0 - (np.sum((got * x + icpt - y) ** 2)
                        / np.sum((y - y.mean()) ** 2))
            assert got == pytest.approx(alpha, rel=0.05)
            assert r2 > 0.99

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            el.DecayProfile(radii=np.array([0.5, 1.0]),
                            oscillations=np.array([1.0, 1.0]),
                            rho=0.5, center=(0.0,))


class TestMeanValue:
    def test_constant_formula(self):
        assert el.mean_value_constant(2, np.inf) == pytest.approx(1 / 8)
        assert el.mean_value_constant(3, np.inf) == pytest.approx(1 / 10)
        a = 2.0 - 2 / 4.0
        want = 1.0 / (a * (2 + a) * math.pi ** (1 / 4.0))
        assert el.mean_value_constant(2, 4.0) == pytest.approx(want)
        with pytest.raises(ValueError):
            el.mean_value_constant(3, 1.0)

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
            rep = el.mean_value_check(f, (0.0, 0.0), 0.5, tol=0.0)
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


class TestCalculusChecks:
    def test_ball_average_laplacian(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 128)
        f = el.ScalarField.from_function(
            g, lambda p: np.sum(p ** 2, axis=-1) + p[..., 0])
        val, rep = el.ball_average_laplacian(f, (0.0, 0.0), 0.25)
        assert rep.passed
        # normalized limit lap/(2(n+2)) = 4/8
        assert val == pytest.approx(0.5, abs=0.02)

    def test_mollification_identity(self):
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)
        f = el.ScalarField.from_function(
            g, lambda p: np.cos(2 * p[..., 0]) * np.sin(p[..., 1]))
        rep = el.mollification_identity_check(f)
        assert rep.passed

    def test_morrey_1d_sharp(self):
        g = el.Grid(1, 1 / 256, (0.0,), (257,))
        f = el.ScalarField.from_function(
            g, lambda p: np.sqrt(np.abs(p[..., 0])))
        rep = el.morrey_check(f, p=2.0)
        assert rep.passed

    @pytest.mark.parametrize("p", [1.5, 2.0, 6.0])
    def test_morrey_1d_matches_pair_loop(self, p):
        # the exhaustive pair loop morrey_check ran before it called
        # holder_seminorm on the interior nodes
        rng = np.random.default_rng(int(p * 10))
        g = el.Grid.cover((0.1,), 1.0, 1 / 96)
        for vals in (np.sqrt(np.abs(g.axes()[0])),
                     np.cumsum(rng.normal(size=g.counts)) * g.h):
            f = el.ScalarField(g, vals)
            alpha = 1 - 1 / p
            xi, ui = g.axes()[0][1:-1], vals[1:-1]
            best = 0.0
            for i in range(len(ui)):
                d = np.abs(xi - xi[i]); d[i] = np.inf
                best = max(best,
                           float(np.max(np.abs(ui - ui[i]) / d ** alpha)))
            rep = el.morrey_check(f, p=p)
            assert rep.lhs == pytest.approx(best, rel=1e-12, abs=0)

    def test_rolle_gradient_point(self):
        g = el.Grid(1, 1 / 256, (0.0,), (513,))
        f = el.ScalarField.from_function(g, lambda p: np.sin(p[..., 0]))
        x2, rep = el.rolle_gradient_point(f, (1.0,), 0.5)
        assert rep.passed


class TestDistribution:
    def test_diminish_on_barrier_like_field(self):
        g = el.Grid.cover((0.0, 0.0), 0.5, 1 / 64)
        # supersolution spiking above 1 near the center
        f = el.ScalarField.from_function(
            g, lambda p: 4.0 * np.exp(-32 * np.sum(p ** 2, axis=-1)))
        rep = el.diminish_of_distribution_check(f, ELL, depth=4)
        assert rep.passed
        assert rep.constants["n_cubes"] >= 1
