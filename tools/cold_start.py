"""Fresh-process wall time of ``ellipticlab verify <suite>`` on two trees.

    python tools/cold_start.py BEFORE AFTER [--out BENCH_cold_start.json]

BEFORE and AFTER are checkouts of the repository.  For every suite and
``full``, each of ``ROUNDS`` rounds runs ``verify <suite> --out <tmp>``
once on each tree, in a new interpreter that imports the package from
``<tree>/src`` the way the console script does; the tree that goes first
alternates from round to round, and the suites are interleaved within a
round, so that the machine's drift falls on both sides alike.  Each time is the wall time of
the whole process, the interpreter's start and the import included.  A
run that exits non-zero stops the script: a verdict that failed or broke
has no cold-start time.

The output holds, per suite and side, every run's seconds with their
median and quartiles, and how many rounds the after tree won; and the
environment and, per tree, its HEAD commit and the git tree id of the
``src/`` that was timed, which names an uncommitted tree as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# what the console script runs: ``sys.exit(main())`` over ``sys.argv[1:]``
ENTRY = "import sys; from ellipticlab.cli import main; sys.exit(main())"
SIDES = ("before", "after")
ROUNDS = 10


def suites(tree: Path) -> list[str]:
    """The suite names of ``tree`` and ``full``."""
    code = "from ellipticlab.suites import SUITES; print(*SUITES)"
    out = subprocess.run([sys.executable, "-c", code], env=tree_env(tree),
                         check=True, capture_output=True, text=True)
    return out.stdout.split() + ["full"]


def tree_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def git_ids(tree: Path) -> dict:
    """HEAD of ``tree`` and the tree id of its ``src/`` as it stands,
    uncommitted edits to tracked files included; ``unknown`` where git
    cannot tell."""
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(tree), *args],
                                  capture_output=True, text=True)
        except OSError:
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""
    head = git("rev-parse", "HEAD")
    # ``stash create`` stores the working tree as a commit without
    # touching the index or the stash list; it prints nothing when clean
    state = git("stash", "create") or head
    src = git("rev-parse", f"{state}:src") if state else ""
    return {"commit": head or "unknown", "src_tree": src or "unknown"}


def time_verify(tree: Path, suite: str, out: Path) -> float:
    """Seconds of one ``verify suite --out out`` in a new interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "verify", suite, "--out", str(out)],
        env=tree_env(tree), capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"verify {suite} on {tree} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return seconds


def summary(xs: list[float]) -> dict:
    """Median, quartiles and every run, to 1 us: a layer time can be
    under a millisecond."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median_s": round(median, 6), "q1_s": round(q1, 6),
            "q3_s": round(q3, 6), "runs_s": [round(x, 6) for x in xs]}


def environment() -> dict:
    """The interpreter, numpy and machine of a run; scipy's version only
    when scipy imports, else ``None``: the package runs without it."""
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "machine": platform.machine(),
            "system": platform.system(), "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE", "")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--out", type=Path, default=Path("BENCH_cold_start.json"))
    args = p.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    names = suites(trees["after"])
    times = {s: {side: [] for side in SIDES} for s in names}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            for s in names:
                for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                    times[s][side].append(time_verify(
                        trees[side], s, Path(tmp) / f"{side}-{s}.json"))
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
    doc = {
        "what": "fresh-process wall time of `verify <suite> --out <tmp>`, "
                "the interpreter's start and the import included",
        "rounds": ROUNDS,
        "environment": environment(),
        "git": {side: git_ids(trees[side]) for side in SIDES},
        "suites": {s: {**{side: summary(t[side]) for side in SIDES},
                       "after_faster_rounds": sum(
                           a < b for b, a in zip(t["before"], t["after"]))}
                   for s, t in times.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for s, row in doc["suites"].items():
        print(f"{s:26s} {row['before']['median_s']:.3f} -> "
              f"{row['after']['median_s']:.3f} s  (after faster in "
              f"{row['after_faster_rounds']}/{ROUNDS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
