"""Verdicts: how ``make_report`` decides a status, what every check says
when a hypothesis of its estimate is not met, and the committed verdict
baseline of ``verify full``."""
import inspect
import json
import re
from fractions import Fraction as F

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.cli import main
from ellipticlab.reports import unresolved
from ellipticlab.suites import SUITES, run_suite
from verdict_baseline import BASELINE, moved, moved_verdicts

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


# one row per hypothesis site: a call whose input breaks that hypothesis,
# and the notes the report has carried since before it had a status
HYPOTHESIS_ROWS = {
    "measure-estimate u >= 0": (
        lambda: el.measure_estimate_check(_const(_disk(1 / 16), -1.0)),
        "hypothesis failed: u negative on B_1"),
    "measure-estimate min over B_1/4": (
        lambda: el.measure_estimate_check(_const(_disk(1 / 16), 5.0)),
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
        lambda: el.hessian_contact_set(
            _field(el.Grid.cover((0.0, 0.0), 1.0, 1 / 8),
                   lambda p: -3.0 * (p[..., 0] + p[..., 1])),
            1.0, el.Ball((0.0, 0.0), 1e-9))[1],
        "smallest Hessian eigenvalue at contact nodes vs opening; "
        "grid does not resolve the interior contact set: 0 nodes, needs 1"),
    "pucci-sandwich A in [lam, Lam]": (
        # A = 3I gives A:D^2u = 3 above P^+ = 2.5 on the suite's quadratic
        lambda: el.pucci_sandwich_residual(
            el.field_library("quadratic", _disk(1 / 24),
                             A=np.diag([1.5, -0.5])), 3 * np.eye(2), ELL),
        "max violation of the extremal-operator sandwich; hypothesis "
        "failed: sym(A) has an eigenvalue outside [lam, Lam]"),
    "abp ring": (
        lambda: el.abp_bound(_const(_disk(1 / 16), -1.0), ELL),
        "hypothesis failed: u negative on the ring"),
    "weak-harnack-laplacian u >= 0": (
        lambda: el.weak_harnack_laplacian_check(_const(_disk(1 / 16), -1.0)),
        "hypothesis failed: u negative on B_1"),
    "harnack-quotient u > 0": (
        lambda: el.harnack_quotient_check(_const(_disk(1 / 16), 0.0), 0.25),
        "hypothesis failed: u not positive on B_r"),
    "harnack-quotient harmonic": (
        lambda: el.harnack_quotient_check(
            _field(_disk(1 / 64), lambda p: 1.0 + _sq(p)), 0.25),
        "sup/inf over B_r vs translation-ball constant; "
        "field is not harmonic at grid tolerance"),
    "weak-harnack-ue u >= 0": (
        lambda: el.weak_harnack_ue_check(_const(_disk(1 / 16), -1.0), ELL),
        "hypothesis failed: u negative"),
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
        lambda: el.rolle_gradient_point(
            _field(el.Grid.cover((0.0, 0.0), 1.0, 1 / 16),
                   lambda p: -p[..., 0]), (1.0, 0.0), 0.5)[1],
        "gradient at the cap-contact node; "
        "contact on the hull, gradient unavailable"),
}


@pytest.mark.parametrize("row", HYPOTHESIS_ROWS)
def test_unmet_hypothesis_has_its_own_status(row):
    call, notes = HYPOTHESIS_ROWS[row]
    rep = call()
    assert rep.status == "hypothesis"
    assert rep.passed is False
    assert rep.notes == notes


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


@pytest.mark.parametrize("far, selected, note", [
    (F(1, 10), [0, 1], "selected balls overlap"),
    (F(10), [0], "a ball escapes its 5x dilation")])
def test_a_failed_side_condition_fails(far, selected, note):
    balls = el.BallCollection(((F(0), F(0)), (far, F(0))), (F(1), F(1)))
    rep = el.VitaliSelection(balls, selected, cover_of=[0, selected[-1]])\
        .check()
    assert (rep.status, rep.lhs, rep.rhs, rep.tol) == ("fail", 0.0, 0.0, 0.0)
    assert rep.notes == "exact disjointness and 5x coverage; " + note


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
        assert moved_verdicts(a, b) == ["checks: ['p', 'q'] -> ['q', 'p']"]
        b = {"checks": [{"name": "p", "lhs": 2.0}, {"name": "q"}]}
        assert moved_verdicts(a, b) == ["checks[0] p.lhs: 1.0 -> 2.0"]


def _verify_full(tmp_path):
    out = tmp_path / "full.json"
    main(["verify", "full", "--out", str(out)])
    return moved_verdicts(json.loads(BASELINE.read_text()),
                          json.loads(out.read_text()))


def test_verify_full_matches_the_baseline(tmp_path, capsys):
    diffs = _verify_full(tmp_path)
    assert diffs == [], ("verify full moved from tests/data/verify_full.json"
                         " (re-record it with tests/verdict_baseline.py):\n"
                         + "\n".join(diffs))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 35 and all(s.startswith("[PASS] ") for s in lines)


def test_baseline_sees_a_perturbed_suite_input(tmp_path, monkeypatch,
                                               capsys):
    fractional = SUITES["fractional"]
    monkeypatch.setitem(SUITES, "fractional",
                        lambda: fractional(h=1 / 15))
    diffs = _verify_full(tmp_path)
    capsys.readouterr()
    moved_checks = {d.split(".")[0] for d in diffs}
    assert moved_checks == {"checks[27] fractional-linear",
                            "checks[28] fractional-gaussian-refine",
                            "checks[29] fractional-scaling"}
    assert "checks[27] fractional-linear.grid.h: 0.0625 -> " \
        "0.06666666666666667" in diffs
