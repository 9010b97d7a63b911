"""The cold-start script of ``tools/``: one timed verdict and its record."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cold_start", REPO / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)


def test_times_one_verdict_in_a_fresh_interpreter(tmp_path):
    out = tmp_path / "laplacian-core.json"
    seconds = cold_start.time_verify(REPO, "laplacian-core", out)
    assert seconds > 0
    assert json.loads(out.read_text())


def test_summary_gives_median_and_quartiles():
    s = cold_start.summary([0.4, 0.1, 0.3, 0.2, 0.5])
    assert (s["q1_s"], s["median_s"], s["q3_s"]) == (0.2, 0.3, 0.4)
    assert s["runs_s"] == [0.4, 0.1, 0.3, 0.2, 0.5]


def test_environment_records_scipy_only_when_it_imports(monkeypatch):
    env = cold_start.environment()
    assert env["numpy"]
    monkeypatch.setitem(sys.modules, "scipy", None)     # import raises
    assert cold_start.environment() == {**env, "scipy": None}


def test_git_ids_name_the_timed_src(tmp_path, monkeypatch):
    # a repository of its own, so that the test also passes in an export
    # of this one, where git finds no repository
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "module.py").write_text("x = 1\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", "src")
    git("-c", "user.name=test", "-c", "user.email=test@example.com",
        "-c", "commit.gpgsign=false", "commit", "-q", "-m", "src")
    assert cold_start.git_ids(repo) == {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src")}
    unknown = {"commit": "unknown", "src_tree": "unknown"}
    assert cold_start.git_ids(tmp_path) == unknown
    monkeypatch.setenv("PATH", str(tmp_path))   # no git binary
    assert cold_start.git_ids(repo) == unknown
