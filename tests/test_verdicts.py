"""Verdicts: how ``make_report`` decides a status, what every check says
when a hypothesis of its estimate is not met, and the committed verdict
baseline of ``verify full``."""
import dataclasses
import inspect
import json
import re
from fractions import Fraction as F

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab import coverings
from ellipticlab.cli import main
from ellipticlab.reports import unresolved
from ellipticlab.suites import SUITES, run_suite
import verdict_baseline
from verdict_baseline import BASELINE, moved, moved_verdicts, strict_loads

ELL = el.Ellipticity(1.0, 2.0)


class TestMakeReport:
    def test_inequality_decides_with_its_tolerance(self):
        ok = el.make_report("x", 1.05, 1.0, tol=0.1)
        bad = el.make_report("x", 1.2, 1.0, tol=0.1)
        assert (ok.status, ok.passed, ok.tol) == ("pass", True, 0.1)
        assert (bad.status, bad.passed) == ("fail", False)

    def test_notes_decide_and_are_appended(self):
        rep = el.make_report("x", 0.0, 1.0, notes="base", fail="side")
        assert (rep.status, rep.notes) == ("fail", "base; side")
        rep = el.make_report("x", 0.0, 0.0, fail="side", hypothesis="hyp")
        assert (rep.status, rep.passed, rep.notes) == \
            ("hypothesis", False, "side; hyp")
        assert el.make_report("x", 0.0, 0.0, hypothesis="hyp").notes == "hyp"

    def test_nan_fails(self):
        assert el.make_report("x", float("nan"), 1.0).status == "fail"

    @pytest.mark.parametrize("lhs, rhs", [(0.0, np.inf), (-np.inf, 1.0),
                                          (np.nan, np.inf), (1.0, np.nan)])
    def test_a_non_finite_side_fails_with_a_note(self, lhs, rhs):
        # an overflow to inf measured nothing; it must not pass
        rep = el.make_report("x", lhs, rhs, tol=1.0, notes="base")
        assert (rep.status, rep.notes) == ("fail", "base; non-finite side")
        rep = el.make_report("x", lhs, rhs, fail="side")
        assert (rep.status, rep.notes) == ("fail", "side")
        assert el.make_report("x", lhs, rhs, hypothesis="hyp").status \
            == "hypothesis"

    def test_rationals_are_compared_exactly(self):
        # both sides round to the same float; the exact difference decides
        lhs, rhs = F(1, 3) + F(1, 10 ** 30), F(1, 3)
        rep = el.make_report("x", lhs, rhs)
        assert rep.lhs == rep.rhs and rep.status == "fail"
        assert el.make_report("x", rhs, lhs).status == "pass"

    def test_one_note_for_a_grid_too_coarse(self):
        assert unresolved("Q_1", 4, 4) is None
        assert unresolved("Q_1", 1, 4) == \
            "grid does not resolve Q_1: 1 node, needs 4"
        assert unresolved("{u > 1}", 0, 1, "cell") == \
            "grid does not resolve {u > 1}: 0 cells, needs 1"

    def test_json_keeps_passed_and_adds_status_and_tol(self):
        d = el.make_report("x", 0.0, 1.0, tol=0.5).to_dict()
        assert list(d)[:7] == ["name", "lhs", "rhs", "margin", "passed",
                               "status", "tol"]
        assert (d["passed"], d["status"], d["tol"]) == (True, "pass", 0.5)


def _field(g, fn):
    return el.ScalarField.from_function(g, fn)


def _disk(h):
    return el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)


def _const(g, c):
    return el.ScalarField(g, np.full(g.counts, float(c)))


def _sq(p):
    return np.sum(p ** 2, axis=-1)


def _aleksandrov(domain_of):
    """Aleksandrov's check of the bowl ``|x|^2 - 1`` on ``domain_of(bowl)``."""
    bowl = _field(_disk(1 / 16), lambda p: _sq(p) - 1.0)
    return el.aleksandrov_check(bowl, domain_of(bowl))


def _gaussian(g, sigma):
    """``exp(-|x|^2 / (2 sigma^2))`` on ``g``, as the suites build it."""
    return el.ScalarField(g, np.exp(-g._r2 / (2 * sigma * sigma)))


def _quadratic(g, A):
    """``x . A x / 2`` on ``g``, as the suites build it."""
    pts = g.coords()
    return el.ScalarField(g, 0.5 * np.einsum("...i,ij,...j->...", pts, A,
                                             pts))


def _quartic(sign, g):
    """``sign (x_1^4 + x_2^4)`` on ``g``."""
    return _field(g, lambda p: sign * (p[..., 0] ** 4 + p[..., 1] ** 4))


# B_3/4 holds this grid's nodes at x_1 = 0.7, and a second difference along
# 2h e_1 is defined only from x_1 = 0.95 on
OFF_CENTER = el.Grid.cover((1.2, 0.0), 0.5, 1 / 8)

# no node of this grid lies in B_1, nor in any smaller set a check takes
FAR = el.Grid.cover((3.0, 0.0), 0.5, 1 / 8)


def _far():
    """``1 + x_1^2 / 10`` on ``FAR``."""
    return _field(FAR, lambda p: 1.0 + 0.1 * p[..., 0] ** 2)


# one row per hypothesis site: a call whose input breaks that hypothesis,
# and the report's notes, the check's own notes before the unmet hypothesis
HYPOTHESIS_ROWS = {
    "measure-estimate u >= 0": (
        lambda: el.measure_estimate_check(_const(_disk(1 / 16), -1.0)),
        "lower bound on |{u<=1} cap B_1| from the contact mass; "
        "hypothesis failed: u negative on B_1"),
    "measure-estimate min over B_1/4": (
        lambda: el.measure_estimate_check(_const(_disk(1 / 16), 5.0)),
        "lower bound on |{u<=1} cap B_1| from the contact mass; "
        "hypothesis failed: min over B_1/4 above 1/4"),
    "measure-estimate interior contacts": (
        # u falls steeply toward the rim of a grid inside B_1, so every
        # paraboloid touches on the outer layer
        lambda: el.measure_estimate_check(_field(
            el.Grid.cover((0.0, 0.0), 0.25, 1 / 32),
            lambda p: 10 * (0.25 - np.abs(p).max(axis=-1)))),
        "lower bound on |{u<=1} cap B_1| from the contact mass; "
        "grid does not resolve the interior contact set: 0 nodes, needs 1"),
    "hessian-contact interior contacts": (
        # u falls steeply toward a corner, so the contacts of the one
        # center land on the outer layer
        lambda: el.hessian_contact_check(
            _field(el.Grid.cover((0.0, 0.0), 1.0, 1 / 8),
                   lambda p: -3.0 * (p[..., 0] + p[..., 1])),
            1.0, el.Ball((0.0, 0.0), 1e-9)),
        "smallest Hessian eigenvalue at contact nodes vs opening; "
        "grid does not resolve the interior contact set: 0 nodes, needs 1"),
    "pucci-sandwich A in [lam, Lam]": (
        # A = 3I gives A:D^2u = 3 above P^+ = 2.5 on the suite's quadratic
        lambda: el.pucci_sandwich_residual(
            _quadratic(_disk(1 / 24), np.diag([1.5, -0.5])), 3 * np.eye(2),
            ELL),
        "max violation of the extremal-operator sandwich; hypothesis "
        "failed: sym(A) has an eigenvalue outside [lam, Lam]"),
    "abp ring": (
        lambda: el.abp_bound(_const(_disk(1 / 16), -1.0), ELL),
        "max u_- vs L^n norm of (P^-)_+ on the plane-contact set; "
        "hypothesis failed: u negative on the ring"),
    "weak-harnack-laplacian u >= 0": (
        lambda: el.weak_harnack_laplacian_check(_const(_disk(1 / 16), -1.0)),
        "B_1/3 average vs infimum plus forcing; "
        "hypothesis failed: u negative on B_1"),
    "harnack-quotient u > 0": (
        # sup/inf has no value: the quotient side is NaN
        lambda: el.harnack_quotient_check(_const(_disk(1 / 16), 0.0), 0.25),
        "sup/inf over B_r vs translation-ball constant; non-finite side; "
        "hypothesis failed: u not positive on B_r"),
    "harnack-quotient harmonic": (
        lambda: el.harnack_quotient_check(
            _field(_disk(1 / 64), lambda p: 1.0 + _sq(p)), 0.25),
        "sup/inf over B_r vs translation-ball constant; "
        "field is not harmonic at grid tolerance"),
    "weak-harnack-ue u >= 0": (
        lambda: el.weak_harnack_ue_check(_const(_disk(1 / 16), -1.0), ELL),
        "distribution decay over Q_1 for supersolutions; "
        "hypothesis failed: u negative on Q_(4 sqrt n)"),
    "aleksandrov convex": (
        lambda: el.aleksandrov_check(
            _field(_disk(1 / 32), lambda p: 1.0 - _sq(p)),
            el.Ball((0.0, 0.0), 1.0)),
        "pointwise pinch vs Hessian determinant mass; "
        "hypothesis failed: field not convex on the domain"),
    # a domain with no node off its ring: empty, off the grid, or one node
    "aleksandrov empty sublevel set": (
        lambda: _aleksandrov(lambda bowl: el.SubLevel(bowl, -2.0)),
        "pointwise pinch vs Hessian determinant mass; "
        "grid does not resolve the domain off its ring: 0 nodes, needs 1"),
    "aleksandrov ball off the grid": (
        lambda: _aleksandrov(lambda bowl: el.Ball((5.0, 5.0), 0.5)),
        "pointwise pinch vs Hessian determinant mass; "
        "grid does not resolve the domain off its ring: 0 nodes, needs 1"),
    "aleksandrov ring only": (
        lambda: _aleksandrov(lambda bowl: el.Ball((0.0, 0.0), 1 / 32)),
        "pointwise pinch vs Hessian determinant mass; "
        "grid does not resolve the domain off its ring: 0 nodes, needs 1"),
    "localization min over B_1/2": (
        lambda: el.localization_check(
            _const(el.Grid.cover((0.0, 0.0), 1.0, 1 / 32), 5.0), ELL, 0.25),
        "min over B_rho controlled by the barrier supremum; "
        "hypothesis failed: min over B_1/2 above 1"),
    "ink-spots density": (
        # E is far too thin to fill an eta fraction of any ball
        lambda: el.ink_spots_check(
            el.Ball((0.0, 0.0), 0.01), el.Ball((0.0, 0.0), 0.5),
            el.Grid.cover((0.0, 0.0), 1.0, 1 / 32), eta=0.3),
        "growth of E beyond F inside the core ball; "
        "sampled hypothesis failed"),
    "rolle hull contact": (
        lambda: el.rolle_gradient_check(
            _field(el.Grid.cover((0.0, 0.0), 1.0, 1 / 16),
                   lambda p: -p[..., 0]), (1.0, 0.0), 0.5),
        "gradient at the cap-contact node; "
        "contact on the hull, gradient unavailable"),
    "rolle ball of too few nodes": (
        # B_1/4(0.1, 0) holds 2 nodes at h = 1/4, not a node and its 4
        # axis neighbours, so no centered gradient is taken inside it
        lambda: el.rolle_gradient_check(
            _gaussian(_disk(0.25), 0.6),
            (0.1, 0.0), 0.5),
        "gradient at the cap-contact node; "
        "grid does not resolve B_(delta r)(x1): 2 nodes, needs 5"),
    "walk-vs-oracle target": (
        # the target lies off the grid
        lambda: el.walk_vs_oracle_check(
            _disk(1 / 8), el.ClosedBall((5.0, 0.0), 0.1),
            el.WalkConfig(n_samples=50, seed=1)),
        "Monte Carlo vs discrete-harmonic hitting; "
        "grid does not resolve the target: 0 nodes, needs 1"),
    "second-diff-supersolution B_3/4": (
        lambda: el.second_diff_supersolution_check(
            _quartic(-1.0, OFF_CENTER), ELL),
        "P^- of the second difference stays <= 0; grid does not resolve "
        "B_3/4 where D^2 v_2h is defined: 0 nodes, needs 1"),
    "second-diff-lower-bound B_3/4": (
        lambda: el.second_diff_lower_bound_check(_quartic(-1.0, OFF_CENTER)),
        "negative part of v_2h bounded by osc; grid does not resolve "
        "B_3/4 where v_2h is defined: 0 nodes, needs 1"),
    # over B_1 the bound takes osc u
    "second-diff-lower-bound B_1": (
        lambda: el.second_diff_lower_bound_check(
            _field(FAR, lambda p: p[..., 0] ** 2)),
        "negative part of v_2h bounded by osc; grid does not resolve "
        "B_1: 0 nodes, needs 1"),
    "measure-estimate B_1/4": (
        lambda: el.measure_estimate_check(_far()),
        "lower bound on |{u<=1} cap B_1| from the contact mass; "
        "grid does not resolve B_1/4: 0 nodes, needs 1"),
    # no center node, so no paraboloid to slide
    "hessian-contact center set": (
        lambda: el.hessian_contact_check(_far(), 8.0,
                                         el.Ball((0.0, 0.0), 0.25)),
        "smallest Hessian eigenvalue at contact nodes vs opening; "
        "grid does not resolve the center set: 0 nodes, needs 1"),
    "mean-value B_r(x0)": (
        lambda: el.mean_value_check(_far(), (0.0, 0.0), 0.75),
        "ball average vs center value plus forcing; "
        "grid does not resolve B_r(x0): 0 nodes, needs 1"),
    # the center (0, 0) is off FAR too: no node to average, nor a center node
    "ball-average-laplacian B_rho/2(x0)": (
        lambda: el.ball_average_laplacian(_far(), (0.0, 0.0), 0.25),
        "extrapolated rescaled ball average vs lap/(2(n+2)); "
        "grid does not resolve B_rho/2(x0): 0 nodes, needs 1"),
    "rolle empty ball": (
        lambda: el.rolle_gradient_check(_far(), (0.1, 0.0), 0.5),
        "gradient at the cap-contact node; "
        "grid does not resolve B_(delta r)(x1): 0 nodes, needs 5"),
    "localization B_rho": (
        lambda: el.localization_check(_far(), ELL, 0.25),
        "min over B_rho controlled by the barrier supremum; "
        "grid does not resolve B_rho: 0 nodes, needs 1"),
    "weak-harnack-laplacian B_1/3": (
        lambda: el.weak_harnack_laplacian_check(_far()),
        "B_1/3 average vs infimum plus forcing; "
        "grid does not resolve B_1/3: 0 nodes, needs 1"),
    "harnack-quotient B_r": (
        # sup/inf over no node has no value: the quotient side is NaN
        lambda: el.harnack_quotient_check(_far(), 0.25),
        "sup/inf over B_r vs translation-ball constant; non-finite side; "
        "grid does not resolve B_r: 0 nodes, needs 1"),
    "weak-harnack-ue Q_1": (
        lambda: el.weak_harnack_ue_check(_far(), ELL),
        "distribution decay over Q_1 for supersolutions; "
        "grid does not resolve Q_1: 0 nodes, needs 4"),
    "local-max B_1/2": (
        lambda: el.local_max_check(_far()),
        "sup over B_1/2 vs small integral norm; "
        "grid does not resolve B_1/2: 0 nodes, needs 1"),
    "local-max pucci B_1/2": (
        lambda: el.local_max_check(_far(), ell=ELL),
        "sup over B_1/2 vs small integral norm; "
        "grid does not resolve B_1/2: 0 nodes, needs 1"),
    # the radius schedule holds B_1/2 at h = 1/8, and FAR none of its nodes
    "morrey B_r": (
        lambda: el.morrey_check(_far(), p=8.0),
        "scaled oscillation vs L^p gradient norm; "
        "grid does not resolve B_1/2: 0 nodes, needs 1"),
    # one oscillation needs two nodes: at h = 1/4 B_1/8 holds the origin
    # alone, and FAR holds no node of B_1/2
    "decay-to-modulus B_1/8": (
        lambda: el.decay_implies_modulus_check(
            _field(_disk(0.25), lambda p: _sq(p) ** 0.25), 0.5, 0.5, 4,
            1 - 0.5 ** 0.5),
        "chained geometric bound; zero margin iff exact decay; "
        "grid does not resolve B_0.125: 1 node, needs 2"),
    "decay-to-modulus B_1/2": (
        lambda: el.decay_implies_modulus_check(_far(), 0.5, 0.5, 4,
                                               1 - 0.5 ** 0.5),
        "chained geometric bound; zero margin iff exact decay; "
        "grid does not resolve B_0.5: 0 nodes, needs 2"),
    # 5 nodes per axis: none lies 3 off the hull
    "mollification-identity nodes 3 off the hull": (
        lambda: el.mollification_identity_check(
            _gaussian(el.Grid.cover((0.0, 0.0), 1.8, 0.9), 0.6)),
        "bump smoothing deviation vs curvature * r^2; grid does not "
        "resolve the nodes 3 off the hull: 0 nodes, needs 1"),
    # Q_1's cell centers are off FAR: the note on Q_1 decides before E is
    # rasterized
    "diminish-of-distribution Q_1": (
        lambda: el.diminish_of_distribution_check(_far(), ELL),
        "mass moved below level M per covering step; "
        "grid does not resolve Q_1: 0 nodes, needs 4"),
    # [-0.3, 0.3]^2 holds 49 nodes of Q_1 but 10 of the 16 depth-4 cell
    # centers per axis; rasterizing E raised on the others
    "diminish-of-distribution cell centers": (
        lambda: el.diminish_of_distribution_check(
            _const(el.Grid.cover((0.0, 0.0), 0.3, 0.1), 2.0), ELL),
        "mass moved below level M per covering step; grid does not "
        "resolve the cell centers of Q_1: 100 centers, needs 256"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", HYPOTHESIS_ROWS)
def test_unmet_hypothesis_has_its_own_status(row):
    call, notes = HYPOTHESIS_ROWS[row]
    rep = call()
    assert rep.status == "hypothesis"
    assert rep.passed is False
    assert rep.notes == notes
    # the check measured its sides on its grid as on any other input, and
    # without a warning
    assert rep.grid


def asdict_form(rep):
    """``rep.to_dict()`` as the ``dataclasses.asdict`` deep copy gave it,
    numpy scalars and tuples of its constants as Python values and lists,
    and each non-finite number as the string of its JSON token: the
    oracle of the one-pass walk."""
    def plain(v):
        if hasattr(v, "item"):
            return v.item()
        return [plain(x) for x in v] if isinstance(v, (list, tuple)) else v
    d = dataclasses.asdict(rep)
    d["constants"] = {k: plain(v) for k, v in rep.constants.items()}
    head = {k: d.pop(k) for k in ("name", "lhs", "rhs", "margin")}
    return json.loads(json.dumps({**head, "passed": rep.passed, **d}),
                      parse_constant=str)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", ["verify full", *HYPOTHESIS_ROWS])
def test_to_dict_is_the_asdict_form_and_strict_json(row, tmp_path):
    # "harnack-quotient u > 0" has a NaN side; the weak Harnack
    # inequality for the Laplacian, in verify full and in its row, and
    # verify full's mean-value have an infinite exponent p
    reports = run_suite("full") if row == "verify full" \
        else [HYPOTHESIS_ROWS[row][0]()]
    for rep in reports:
        got, want = rep.to_dict(), asdict_form(rep)
        assert got == want
        assert json.dumps(got) == json.dumps(want)      # order and floats
    out = tmp_path / "doc.json"
    doc = el.write_report_document(reports, out)
    assert strict_loads(out.read_text()) == json.loads(json.dumps(doc))


def _line(h):
    return el.Grid.cover((0.0,), 10.0, h)


def _cells(depth, *set_cells):
    cells = np.zeros((2 ** depth,) * 2, dtype=bool)
    for c in set_cells:
        cells[c] = True
    return el.CellUnion(depth, cells)


# each check that a suite once decided inline, on inputs of its own: a call
# and the status it must give (second-diff-supersolution passes on -x^4 in
# test_second_differences_read_only_valid_nodes)
OWN_INPUTS = {
    "envelope-sandwich of |x|_1": (
        lambda: el.envelope_sandwich_check(
            _field(_disk(1 / 16), lambda p: np.abs(p).sum(axis=-1))), "pass"),
    "cz-cube-lemma of depth-2 cells": (
        lambda: el.cz_cube_lemma_check(_cells(2, (0, 0), (0, 1), (3, 2))),
        "pass"),
    # a depth-7 cell is finer than the depth-6 descent: all residual
    "cz-cube-lemma of a depth-7 cell": (
        lambda: el.cz_cube_lemma_check(_cells(7, (5, 7))), "pass"),
    "cz-cube-lemma of (0, 1/3)": (
        lambda: el.cz_cube_lemma_check(
            el.BoxRegion(((F(0), F(1, 3), True, True),))), "pass"),
    "fractional-linear of slope 1 at h = 1/8": (
        lambda: el.fractional_linear_check(
            _field(_line(1 / 8), lambda p: p @ np.asarray([1.0]))), "pass"),
    "fractional-gaussian-refine at h = 1/8": (
        lambda: el.fractional_gaussian_refine_check(
            _gaussian(_line(1 / 8), 0.5)), "pass"),
    # the level-3 value is 18 % off the level-6 one here
    "fractional-gaussian-refine at h = 1/4": (
        lambda: el.fractional_gaussian_refine_check(
            _gaussian(_line(1 / 4), 0.5)), "fail"),
    "fractional-scaling at h = 1/8": (
        lambda: el.fractional_scaling_check(
            _gaussian(_line(1 / 8), 0.5), _gaussian(_line(1 / 8), 1.0)),
        "pass"),
    # wide is u(x / 3), not u(x / 2)
    "fractional-scaling of a dilation by 3": (
        lambda: el.fractional_scaling_check(
            _gaussian(_line(1 / 8), 0.5), _gaussian(_line(1 / 8), 1.5)),
        "fail"),
    "walk-vs-oracle at h = 1/8": (
        lambda: el.walk_vs_oracle_check(
            _disk(1 / 8), el.ClosedBall((0.3, 0.0), 0.2),
            el.WalkConfig(n_samples=2000, seed=1)), "pass"),
    # P^-(D^2 v) = 24 lam: v is convex in x_1, no supersolution
    "second-diff-supersolution of x^4": (
        lambda: el.second_diff_supersolution_check(
            _quartic(1.0, el.Grid.cover((0.0, 0.0), 0.8, 1 / 16)), ELL),
        "fail"),
    "second-diff-lower-bound of -x^4": (
        lambda: el.second_diff_lower_bound_check(
            _quartic(-1.0, el.Grid.cover((0.0, 0.0), 0.8, 1 / 16))), "pass"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", OWN_INPUTS)
def test_moved_checks_decide_inputs_of_their_own(row):
    call, status = OWN_INPUTS[row]
    assert call().status == status


def test_second_differences_read_only_valid_nodes():
    # v_2h is 0 and undefined on the two outer layers of this grid, which
    # B_3/4 reaches: over every node of B_3/4, P^-(D^2 v) read 1712, a
    # false fail; where the stencil reads defined nodes alone, D^2 v =
    # diag(-24, 0) and P^- = -24 Lam = -48
    g = el.Grid.cover((0.0, 0.0), 0.8, 1 / 16)
    rep = el.second_diff_supersolution_check(_quartic(-1.0, g), ELL)
    assert (rep.status, rep.lhs) == ("pass", -48.0)


def test_abp_without_a_negative_part_takes_no_slope():
    g = _disk(1 / 16)
    rep = el.abp_bound(_field(g, _sq), ELL)
    assert (rep.status, rep.lhs, rep.rhs) == ("pass", 0.0, 0.0)
    assert rep.constants["n_slopes"] == 0
    assert rep.constants["contact_nodes"] == 0
    assert rep.grid == g.meta()


RESOLUTION = re.compile(r"(^|; )grid does not resolve [^;]+: \d+ \w+, "
                        r"needs \d+$")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coarse_grids_give_no_verdict_on_what_they_cannot_measure():
    rows = [(h, rep) for name, runner in SUITES.items()
            if "h" in inspect.signature(runner).parameters
            for h in (0.5, 0.35, 0.3, 0.25, 0.2)
            for rep in run_suite(name, h=h)]
    # an honest failure of the fractional self-consistency test: the
    # level-3 Gaussian value is not within 1% of the level-6 one there
    assert {(rep.name, h) for h, rep in rows if rep.status == "fail"} == {
        ("fractional-gaussian-refine", h) for h in (0.5, 0.35, 0.3)}
    notes = [rep.notes for h, rep in rows if rep.status == "hypothesis"]
    assert notes and all(RESOLUTION.search(n) for n in notes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spacings_off_the_dyadic_ladder_give_verdicts():
    # 1.05 is a multiple of 0.07 and 0.0525, so poisson-kernel-ish has its
    # pole 1.05 e_1 on a node; (0.5, 0) is a node at none of the four, so
    # the localization input takes its least value over B_1/2 elsewhere
    rows = [(h, rep) for name, runner in SUITES.items()
            if "h" in inspect.signature(runner).parameters
            for h in (0.07, 0.0525, 0.03, 0.0204)
            for rep in run_suite(name, h=h)]
    assert [(rep.name, h) for h, rep in rows if rep.status == "fail"] == []
    notes = [rep.notes for h, rep in rows if rep.status == "hypothesis"]
    assert all(RESOLUTION.search(n) for n in notes)


@pytest.mark.parametrize("far, selected, note", [
    (F(1, 10), [0, 1], "selected balls overlap"),
    (F(10), [0], "a ball escapes its 3x dilation")])
def test_a_failed_side_condition_fails(far, selected, note, monkeypatch):
    # the check certifies this selection and assignment in place of its
    # greedy pass's; lhs is the dilation it needed: 1 with each ball its
    # own cover, |c_1 - c_0| + 1 with ball 0 covering ball 1
    balls = el.BallCollection(((F(0), F(0)), (far, F(0))), (F(1), F(1)))
    monkeypatch.setattr(coverings, "_vitali_select",
                        lambda c, r: (selected, [0, selected[-1]]))
    rep = el.vitali_check(balls)
    assert (rep.status, rep.lhs, rep.rhs) == \
        ("fail", 1.0 if len(selected) == 2 else float(far) + 1, 3.0)
    assert rep.notes == "exact disjointness and 3x coverage; " + note


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_loads_rejects_a_bare_non_finite_token(token):
    assert strict_loads(f'{{"p": "{token}"}}') == {"p": token}
    with pytest.raises(ValueError, match=f"bare {token}"):
        strict_loads(f'{{"p": {token}}}')


class TestMoved:
    def test_agreeing_documents(self):
        doc = {"a": [1, "s", 1.0, True, None, float("nan")], "b": {"c": 2.5}}
        assert moved(doc, json.loads(json.dumps(doc))) == []

    def test_every_moved_value_is_listed(self):
        old = {"i": 1, "s": "x", "f": 1.0, "g": 0.0, "t": True, "l": [1, 2],
               "gone": 0}
        new = {"i": 2, "s": "y", "f": 1.0 + 1e-6, "g": 1e-300, "t": 1,
               "l": [1], "new": 0}
        assert moved(old, new) == [
            ".gone: removed", ".new: added", ".i: 1 -> 2", ".s: 'x' -> 'y'",
            ".f: 1.0 -> 1.000001", ".g: 0.0 -> 1e-300", ".t: True -> 1",
            ".l: 2 items -> 1"]

    def test_floats_within_the_relative_bound(self):
        assert moved({"f": 3.0}, {"f": 3.0 * (1 + 5e-10)}) == []
        assert moved({"f": 3}, {"f": 3.0}) == []

    def test_names_and_order_are_compared_first(self):
        a = {"checks": [{"name": "p", "lhs": 1.0}, {"name": "q"}]}
        b = {"checks": [{"name": "q"}, {"name": "p", "lhs": 2.0}]}
        assert moved_verdicts(a, b) == ["checks: order changed"]
        b = {"checks": [{"name": "p", "lhs": 2.0}, {"name": "q"}]}
        assert moved_verdicts(a, b) == ["checks[0] p.lhs: 1.0 -> 2.0"]

    def test_changed_names_are_listed_as_removed_and_added(self):
        # a multiset difference: one of two "q"s goes, and "r" comes
        a = {"checks": [{"name": "p"}, {"name": "q"}, {"name": "q"}]}
        b = {"checks": [{"name": "r"}, {"name": "q"}, {"name": "p"}]}
        assert moved_verdicts(a, b) == ["checks: removed ['q'], added ['r']"]
        assert moved_verdicts(b, {"checks": b["checks"][:1]}) == [
            "checks: removed ['p', 'q'], added []"]


def _verify_full(tmp_path):
    # the baseline and the document written now are both strict JSON
    out = tmp_path / "full.json"
    main(["verify", "full", "--out", str(out)])
    return moved_verdicts(strict_loads(BASELINE.read_text()),
                          strict_loads(out.read_text()))


def test_verify_full_matches_the_baseline(tmp_path, capsys):
    diffs = _verify_full(tmp_path)
    assert diffs == [], ("verify full moved from tests/data/verify_full.json"
                         " (re-record it with tests/verdict_baseline.py):\n"
                         + "\n".join(diffs))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 33 and all(s.startswith("[PASS] ") for s in lines)


@pytest.mark.parametrize("h, doc", [("0.015625", "contact_geometry_h64.json"),
                                    ("0.0078125",
                                     "contact_geometry_h128.json")])
def test_contact_geometry_at_finer_spacings_matches_its_documents(
        h, doc, tmp_path, capsys):
    # 133 and 261 nodes per axis, where the contact search's windows are
    # widest; CI compares its own documents the same way
    out = tmp_path / "doc.json"
    assert main(["verify", "contact-geometry", "--h", h, "--out",
                 str(out)]) == 0
    capsys.readouterr()
    assert verdict_baseline.main(
        ["compare", str(out), str(BASELINE.parent / doc)]) == 0
    assert capsys.readouterr().out == f"{out} matches {doc}\n"


def test_baseline_sees_a_perturbed_suite_input(tmp_path, monkeypatch,
                                               capsys):
    fractional = SUITES["fractional"]
    # the fractional suite's checks, found by name in the baseline, so
    # that no other suite's check count places them
    own = [rep.name for rep in fractional()]
    names = [c["name"] for c in strict_loads(BASELINE.read_text())["checks"]]
    at = next(i for i in range(len(names)) if names[i:i + len(own)] == own)
    monkeypatch.setitem(SUITES, "fractional",
                        lambda: fractional(h=1 / 15))
    diffs = _verify_full(tmp_path)
    capsys.readouterr()
    moved_checks = {d.split(".")[0] for d in diffs}
    assert own[0] == "fractional-linear" and len(own) == 3
    assert moved_checks == {f"checks[{at + k}] {name}"
                            for k, name in enumerate(own)}
    assert f"checks[{at}] fractional-linear.grid.h: 0.0625 -> " \
        "0.06666666666666667" in diffs
