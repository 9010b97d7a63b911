import json
from pathlib import Path

import numpy as np
import pytest

import ellipticlab as el
from ellipticlab.cli import build_parser, main
from ellipticlab.suites import SUITES
import verdict_baseline
from verdict_baseline import strict_loads


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``after``."""
    text = README.read_text().split(after + "\n", 1)[1]
    return text.split("```" + lang + "\n", 1)[1].split("```", 1)[0]


class TestVerify:
    @pytest.mark.parametrize("suite", SUITES)
    def test_fast_suite_passes(self, suite, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", suite, "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(l.startswith("[PASS]") for l in lines)
        doc = json.loads(out.read_text())
        assert doc["meta"]["suite"] == suite
        assert len(doc["checks"]) == len(lines)
        assert doc["passed"] is True

    def test_spacing_reaches_the_solved_supersolution(self, tmp_path, capsys):
        # the Pucci solve runs at 12 h / 5: 1/10 at the default h = 1/24
        out = tmp_path / "rep.json"
        main(["verify", "uniformly-elliptic-core", "--h", str(1 / 12),
              "--out", str(out)])
        capsys.readouterr()
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["pucci-solve"]["grid"]["h"] == 0.2
        assert checks["local-max"]["grid"]["h"] == 1 / 12

    def test_status_tags_and_exit_code(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(SUITES, "fractional", lambda: [
            el.make_report("a", 1.0, 2.0, tol=0.5),
            el.make_report("b", 3.0, 2.0),
            el.make_report("c", 0.0, 0.0, hypothesis="u negative")])
        out = tmp_path / "rep.json"
        assert main(["verify", "fractional", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] a: lhs=1 rhs=2 margin=1 tol=0.5",
            "[FAIL] b: lhs=3 rhs=2 margin=-1 tol=0",
            "[HYPOTHESIS] c: lhs=0 rhs=0 margin=0 tol=0"]
        doc = json.loads(out.read_text())
        assert [(c["passed"], c["status"]) for c in doc["checks"]] == [
            (True, "pass"), (False, "fail"), (False, "hypothesis")]
        assert doc["passed"] is False

    def test_solver_reports_show_iterations_and_convergence(
            self, monkeypatch, capsys, tmp_path):
        # a Pucci solve stopped at max_iter says so on its line; the JSON
        # keeps the same fields in the report's constants
        g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 10)
        _, rep = el.solve_pucci(
            g, el.Ball((0.0, 0.0), 1.0), 0.0,
            el.BoundaryData(lambda p: p[..., 0] ** 2),
            el.Ellipticity(1.0, 2.0),
            config=el.SolverConfig(tol=1e-3, max_iter=1))
        monkeypatch.setitem(SUITES, "fractional", lambda: [
            rep, el.make_report("a", 1.0, 2.0)])
        out = tmp_path / "rep.json"
        assert main(["verify", "fractional", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] pucci-solve: ")
        assert lines[0].endswith(" tol=0 iterations=1 converged=False")
        assert lines[1] == "[PASS] a: lhs=1 rhs=2 margin=1 tol=0"
        check = json.loads(out.read_text())["checks"][0]
        assert (check["constants"]["iterations"],
                check["constants"]["converged"]) == (1, False)

    def test_pucci_line_sums_the_gmres_iterations(self, capsys, tmp_path):
        # the JSON lists each GMRES solve's iterations, the line their sum
        out = tmp_path / "rep.json"
        assert main(["verify", "hessian-estimates", "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        c = json.loads(out.read_text())["checks"][0]["constants"]
        assert len(c["linear_iterations"]) == c["iterations"] - 1 > 0
        assert line.endswith(
            f" iterations={c['iterations']} linear_iterations="
            f"{sum(c['linear_iterations'])} converged=True")

    @pytest.mark.parametrize("argv,vacuous", [
        # A cap B_rho holds no node at h = 0.45; at 0.9 neither does the
        # walks' target
        (["probabilistic", "--h", "0.45", "--n-samples", "2000"],
         {"probabilistic-harnack"}),
        (["probabilistic", "--h", "0.9", "--n-samples", "2000"],
         {"walk-vs-oracle", "probabilistic-harnack"}),
        # B_(1 - 2h) holds no node off the outer layer at h = 0.5,
        # Morrey's radii 1/2, 1/4, ... hold none at least 4h, Rolle's
        # B_1/4(0.1, 0) holds 1 node, not a node and its 4 neighbours, and
        # the decay's B_1/4 holds 1 node, not the 2 of an oscillation
        (["laplacian-core", "--h", "0.5"],
         {"harnack-quotient", "morrey", "rolle-gradient",
          "decay-to-modulus"}),
        # Q_1 holds 1 node of the solve's grid from h = 0.5 to 0.25, and
        # the covering step needs one per child, 4
        *((["uniformly-elliptic-core", "--h", h],
           {"diminish-of-distribution", "weak-harnack-ue"})
          for h in ("0.5", "0.35", "0.3", "0.25"))])
    def test_a_check_with_no_nodes_is_a_hypothesis(self, argv, vacuous,
                                                   capsys):
        assert main(["verify"] + argv) == 1
        out, err = capsys.readouterr()
        assert "error:" not in err
        assert {line.split()[1].rstrip(":") for line in out.splitlines()
                if line.startswith("[HYPOTHESIS]")} == vacuous

    def test_one_walk_passes_the_oracle_check(self):
        # the 3 sigma of walk-vs-oracle is the exact q's: the plug-in
        # sigma of one walk's estimate (0 or 1) is 0
        assert main(["verify", "probabilistic", "--n-samples", "1"]) == 0

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "no-such-suite"]) == 2

    @pytest.mark.parametrize("argv", [
        ["probabilistic", "--h", "0"], ["probabilistic", "--h", "-0.1"],
        ["probabilistic", "--h", "nan"], ["probabilistic", "--n-samples", "0"],
        ["probabilistic", "--n-samples", "-5"]])
    def test_rejects_values_not_above_zero(self, argv, capsys):
        assert main(["verify"] + argv) == 2
        assert "must be a finite number above 0" in capsys.readouterr().err

    def test_full_rejects_one_spacing(self, capsys):
        assert main(["verify", "full", "--h", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "cannot be used with full" in err and "h^-2 steps" in err

    @pytest.mark.parametrize("argv", [
        ["coverings", "--h", "0.1"], ["laplacian-core", "--n-samples", "5"],
        ["fractional", "--h", "0.125", "--n-samples", "5"]])
    def test_rejects_an_option_the_suite_ignores(self, argv, capsys):
        # the coverings suite has no spacing, and only the probabilistic
        # suite draws walks
        assert main(["verify"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[-2]} cannot be used with "
                              f"{argv[0]}")

    def test_repeated_calls_write_the_same_document(self, tmp_path, capsys):
        # one parser serves every call of the process: a usage error, an
        # option the suite rejects or a merge leaves nothing behind in it
        out = tmp_path / "rep.json"

        def verify():
            assert main(["verify", "fractional", "--out", str(out)]) == 0
            return out.read_bytes()

        first = verify()
        for argv, code in [
                (["verify", "no-such-suite"], 2),
                (["verify", "coverings", "--h", "0.1"], 2),
                (["report", "merge", str(out), "--out",
                  str(tmp_path / "m.json")], 0)]:
            assert main(argv) == code
            assert verify() == first
        assert build_parser() is build_parser()
        capsys.readouterr()

    def test_suite_names_registered(self):
        assert set(SUITES) == {
            "laplacian-core", "uniformly-elliptic-core", "contact-geometry",
            "coverings", "fractional", "probabilistic", "hessian-estimates"}


# 1.39 EiB of int64 nodes: more than any address space, so the request
# fails at once even where memory is overcommitted
@pytest.mark.parametrize("argv", [
    ["verify", "laplacian-core", "--h", "1e-17"],
    ["verify", "hessian-estimates", "--h", "1e-17"]])
def test_out_of_memory_is_a_runtime_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert len(err.splitlines()) == 1


class TestReportMerge:
    def test_merge(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        merged = tmp_path / "m.json"
        main(["verify", "coverings", "--out", str(a)])
        main(["verify", "coverings", "--out", str(b)])
        code = main(["report", "merge", str(a), str(b),
                     "--out", str(merged)])
        assert code == 0
        doc = json.loads(merged.read_text())
        na = len(json.loads(a.read_text())["checks"])
        assert len(doc["checks"]) == 2 * na

    def test_passes_non_finite_strings_through(self, tmp_path):
        # a NaN side is the string "NaN" in the written document and in
        # the merged one, both strict JSON
        a = tmp_path / "a.json"
        el.write_report_document([el.make_report("x", np.nan, 1.0)], a)
        merged = tmp_path / "m.json"
        assert main(["report", "merge", str(a), "--out", str(merged)]) == 0
        check = strict_loads(merged.read_text())["checks"][0]
        assert (check["lhs"], check["margin"]) == ("NaN", "NaN")
        assert check == strict_loads(a.read_text())["checks"][0]

    def test_bare_tokens_merge_to_strict_json(self, tmp_path, capsys):
        # a document written before non-finite numbers became strings
        # holds bare tokens; the merged document holds those strings
        old = tmp_path / "old.json"
        old.write_text('{"meta": {}, "checks": [{"name": "x", "lhs": NaN, '
                       '"rhs": Infinity, "margin": -Infinity, '
                       '"passed": false}], "passed": false}')
        merged = tmp_path / "m.json"
        assert main(["report", "merge", str(old), "--out", str(merged)]) == 0
        check = strict_loads(merged.read_text())["checks"][0]
        assert (check["lhs"], check["rhs"], check["margin"]) == (
            "NaN", "Infinity", "-Infinity")
        assert verdict_baseline.main(["strict", str(merged)]) == 0
        assert capsys.readouterr().out.endswith("every file is strict JSON\n")

    def test_missing_file(self, tmp_path):
        code = main(["report", "merge", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("doc", [[1, 2], {"checks": 3}])
    def test_rejects_what_is_not_a_report(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["report", "merge", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"error: {bad} is not a report document" \
            in capsys.readouterr().err


class TestReadme:
    # sample values for the placeholders of the CLI synopsis
    SAMPLES = {"SUITE": "coverings", "H": "0.125", "N": "100"}

    def test_cli_synopsis_parses(self):
        lines = readme_block("## CLI", "sh").strip().splitlines()
        assert len(lines) == 2
        parser = build_parser()
        for line in lines:
            prog, *words = line.split()
            assert prog == "ellipticlab"
            argv = [self.SAMPLES.get(w, w)
                    for w in (w.strip("[]") for w in words) if w != "..."]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README synopsis does not parse: {line}")

    def test_library_tour_runs(self):
        code = readme_block("## Library tour", "python")
        scope = {}
        exec(compile(code, str(README), "exec"), scope)
        assert scope["rep"].constants["converged"] is True
