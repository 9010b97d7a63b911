"""Per-layer times of the envelope, covering, Hölder and solver kernels.

    python tools/layer_times.py BEFORE AFTER [--out BENCH_envelope_layers.json]
                                [--sizes 65 129 257] [--rounds 10]

BEFORE and AFTER are checkouts of the repository.  Each round runs one
new interpreter per tree, which imports the package from ``<tree>/src``
and times ``contact_set``, ``transport_map``, ``abp_bound``,
``aleksandrov_check``, ``inf_convolution``, ``dyadic_decomposition``,
``cz_selection``, ``holder_seminorm``, ``solve_poisson`` and
``discrete_harmonic_hitting`` at every size; the tree that goes first
alternates from round to round.  The field is the
envelope-fields cosine field of input set 3 (``workloads._rng(3, 1)`` of
this checkout's ``perfbench/``) on ``Grid.cover(0, 1, 2/(n-1))``, and
``holder_seminorm`` takes it with ``alpha = 1/2``; ``abp_bound`` and
``aleksandrov_check`` take its bowl ``|x|^2 - 1 + 0.2 (u - min u)``, as
envelope-fields does.
The coverings decompose, to their own depth and with ``eta = 1/2``, the
``CellUnion`` of depth ``log2(n - 1)`` that analysis-kernels would build
there: its ``(n - 1)^2`` cells hold the top 40 % of a cosine field of
input set 3 (``workloads._rng(3, 2)``, after the two grid fields it
draws first), so at n = 65 it is that workload's depth-6 region.  The
two solves are analysis-kernels' of input set 3: ``solve_poisson`` on
the unit disc with its cosine ``f`` and Dirichlet data to ``tol =
1e-10``, ``discrete_harmonic_hitting`` of the closed ball of radius 0.2
at its drawn center.  Their fields and center are drawn after the two
covering fields, so at n = 65 they are that workload's n = 65 solves;
above 65 the n = 65 draws are skipped, so at n = 129 they are its
n = 129 solves and at n = 257 the same functions on a finer grid.  A
size whose ``n - 1`` is not a power of two is a usage error.  In an
interpreter each kernel is called ``REPEATS`` times per size and the
fastest call counts; a kernel with a call over ``CAP_S`` seconds is not
run at the larger sizes, and its times there are missing.

The output holds, per kernel, size and side, every round's seconds with
their median and quartiles (``tools/cold_start.py``'s summary), and how
many rounds the after tree won; per kernel and side the scaling
exponent, the least-squares slope of the log median time on the log
node count ``n^2`` over the sizes timed (for two sizes, perfbench's
``<layer>.scaling``); the environment; and per tree its HEAD commit and
the git tree id of its ``src/``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cold_start import SIDES, environment, git_ids, summary, tree_env

TOOLS = Path(__file__).resolve().parent
KERNELS = ("contact_set", "transport_map", "abp_bound", "aleksandrov_check",
           "inf_convolution", "dyadic_decomposition", "cz_selection",
           "holder_seminorm", "solve_poisson", "discrete_harmonic_hitting")
REPEATS = 3
CAP_S = 5.0
# what each new interpreter runs: ``time_layers`` over the sizes in argv
ENTRY = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from layer_times import time_layers; "
         "time_layers([int(n) for n in sys.argv[2:]])")


def scaling_exponent(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of ``log seconds`` on ``log n^2`` over the
    sizes ``n``."""
    return statistics.linear_regression(
        [2 * math.log(n) for n in sizes],
        [math.log(t) for t in seconds]).slope


def time_layers(sizes: list[int]) -> None:
    """Print ``{kernel: {size: seconds}}`` as JSON: the fastest of
    ``REPEATS`` calls, for each kernel under the cap."""
    from fractions import Fraction

    import numpy as np
    import ellipticlab as el
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    import workloads

    ell = el.Ellipticity(1.0, 2.0)
    fam = el.ParaboloidFamily(8.0, el.Ball((0.0, 0.0), 0.25))
    out = {k: {} for k in KERNELS}
    capped = set()
    for n in sizes:
        g = el.Grid.cover((0.0, 0.0), 1.0, 2.0 / (n - 1))
        pts = g.coords()
        u = workloads._cosine_field(workloads._rng(3, 1), pts)
        fld = el.ScalarField(g, u)
        bowl = el.ScalarField(g, np.sum(pts ** 2, axis=-1) - 1.0
                              + 0.2 * (u - u.min()))
        interior = el.contact_set(
            fld, fam, tol=el.tangency_tolerance(fam, g.h)).interior()
        depth = (n - 1).bit_length() - 1
        rng = workloads._rng(3, 2)
        for _ in range(2):
            workloads._cosine_field(rng, pts)
        c = (2 * np.arange(n - 1) + 1) / (2 * (n - 1)) - 0.5
        cvals = workloads._cosine_field(
            rng, 16.0 * np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1))
        region = el.CellUnion(depth, cvals > np.quantile(cvals, 0.6))
        workloads._cosine_field(rng, pts)       # the depth-7 covering field
        if n > 65:                              # the n = 65 solves' draws
            for _ in range(2):
                workloads._cosine_field(rng, pts)
            rng.uniform(-0.35, 0.35, 2)
        fvals = workloads._cosine_field(rng, pts)
        gvals = 1.0 + 0.5 * workloads._cosine_field(rng, pts)
        center = tuple(rng.uniform(-0.35, 0.35, 2))
        disc = el.Ball((0.0, 0.0), 1.0)
        calls = {
            "contact_set": lambda: el.contact_set(
                fld, fam, tol=el.tangency_tolerance(fam, g.h)),
            "transport_map": lambda: el.transport_map(interior, fld),
            "abp_bound": lambda: el.abp_bound(bowl, ell),
            "aleksandrov_check": lambda: el.aleksandrov_check(
                bowl, el.SubLevel(bowl, 0.0)),
            "inf_convolution": lambda: el.inf_convolution(fld, 0.25),
            "dyadic_decomposition": lambda: el.dyadic_decomposition(
                region, max_depth=depth),
            "cz_selection": lambda: el.cz_selection(
                region, Fraction(1, 2), max_depth=depth),
            "holder_seminorm": lambda: el.holder_seminorm(fld, 0.5),
            "solve_poisson": lambda: el.solve_poisson(
                g, disc, lambda p: fvals, el.BoundaryData(lambda p: gvals),
                config=el.SolverConfig(tol=1e-10)),
            "discrete_harmonic_hitting": lambda: el.discrete_harmonic_hitting(
                g, el.ClosedBall(center, 0.2), disc),
        }
        for name in KERNELS:
            if name in capped:
                continue
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                calls[name]()
                best = min(best, time.perf_counter() - t0)
                if best > CAP_S:
                    capped.add(name)
                    break
            out[name][str(n)] = best
    print(json.dumps(out))


def run_tree(tree: Path, sizes: list[int]) -> dict:
    """``time_layers`` in a new interpreter on ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, str(TOOLS), *map(str, sizes)],
        env=tree_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"timing {tree} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--out", type=Path,
                   default=Path("BENCH_envelope_layers.json"))
    p.add_argument("--sizes", type=int, nargs="+", default=[65, 129, 257])
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2 for quartiles")
    if any(n < 2 or (n - 1) & (n - 2) for n in args.sizes):
        p.error("each size n needs n - 1 a power of two, the cells per axis "
                "of the coverings' region")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    sizes = [str(n) for n in args.sizes]
    times = {k: {n: {side: [] for side in SIDES} for n in sizes}
             for k in KERNELS}
    for r in range(args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            for k, per_size in run_tree(trees[side], args.sizes).items():
                for n, seconds in per_size.items():
                    times[k][n][side].append(seconds)
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    kernels = {}
    for k, per_size in times.items():
        row = {n: {**{side: summary(t[side]) for side in SIDES},
                   "after_faster_rounds": sum(
                       a < b for b, a in zip(t["before"], t["after"]))}
               for n, t in per_size.items()
               if all(len(t[side]) == args.rounds for side in SIDES)}
        timed = [n for n in sizes if n in row]
        if len(timed) > 1:
            row["scaling"] = {side: round(scaling_exponent(
                [int(n) for n in timed],
                [statistics.median(per_size[n][side]) for n in timed]), 3)
                for side in SIDES}
        kernels[k] = row
    doc = {
        "what": "fastest of "
                f"{REPEATS} calls per kernel and size in a new interpreter, "
                "one interpreter per tree and round",
        "field": "envelope-fields cosine field of input set 3 on "
                 "Grid.cover(0, 1, 2/(n-1)), holder_seminorm with alpha 1/2; "
                 "abp_bound and aleksandrov_check "
                 "on its bowl |x|^2 - 1 + 0.2 (u - min u); the coverings, "
                 "eta 1/2, on the analysis-kernels CellUnion of depth "
                 "log2(n-1) of input set 3; solve_poisson (tol 1e-10) and "
                 "discrete_harmonic_hitting on the analysis-kernels disc "
                 "problems of input set 3 (n=65 draws at n<=65, n=129 "
                 "draws above)",
        "rounds": args.rounds,
        "cap_s": CAP_S,
        "environment": environment(),
        "git": {side: git_ids(trees[side]) for side in SIDES},
        "kernels": kernels,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for k, row in kernels.items():
        for n in sizes:
            if n in row:
                print(f"{k:20s} n={n:>4s} "
                      f"{row[n]['before']['median_s'] * 1e3:9.2f} -> "
                      f"{row[n]['after']['median_s'] * 1e3:9.2f} ms  "
                      f"(after faster in {row[n]['after_faster_rounds']}/"
                      f"{args.rounds})")
        if "scaling" in row:
            print(f"{k:20s} scaling {row['scaling']['before']:.3f} -> "
                  f"{row['scaling']['after']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
