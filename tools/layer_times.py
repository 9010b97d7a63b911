"""Per-layer times of the envelope, covering, Hölder, maximal-function,
solver, walk and Pucci kernels.

    python tools/layer_times.py BEFORE AFTER [--out BENCH_envelope_layers.json]
                                [--sizes 65 129 257] [--rounds 10]

BEFORE and AFTER are checkouts of the repository.  Each round runs one
new interpreter per tree, which imports the package from ``<tree>/src``
and times ``contact_set``, ``transport_map``, ``abp_bound``,
``aleksandrov_check``, ``inf_convolution``, ``dyadic_decomposition``,
``cz_selection``, ``holder_seminorm``, ``weighted_seminorm``,
``hardy_littlewood_maximal``, ``fractional_laplacian``,
``solve_poisson``, ``discrete_harmonic_hitting``, ``solve_pucci``,
``random_walk_hitting``, ``pucci_minus``, ``region_masks`` and
``verify_call`` at every size; the tree that goes first alternates from
round to round.  The field is the envelope-fields cosine field of input
set 3 (``workloads._rng(3, 1)`` of this checkout's ``perfbench/``) on
``Grid.cover(0, 1, 2/(n-1))``, and ``holder_seminorm`` takes it with
``alpha = 1/2``, ``weighted_seminorm`` with ``alpha = beta = 1/2`` on
``B_3/4``, as analysis-kernels does, and ``hardy_littlewood_maximal``
as it is; ``fractional_laplacian`` takes it at ``sigma = 1``,
level 2, on the nodes of ``B_1/4``, as analysis-kernels does; and
``abp_bound`` and ``aleksandrov_check`` take its bowl ``|x|^2 - 1 + 0.2
(u - min u)``, as envelope-fields does.
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
n = 129 solves and at n = 257 the same functions on a finer grid.
``solve_pucci`` is Howard's iteration for ``P^-(D^2_h u) = 1`` on the
unit disc with ``u = 0`` outside, ``Ellipticity(1, 2)`` and
``SolverConfig(tol=1e-6, max_iter=50)``.  ``random_walk_hitting`` is the
probabilistic suite's walk at ``h = 2/(n-1)``: ``WALKS`` walks from
each of the seeds ``WALK_SEEDS`` (11, 12 and 13), timed as their total,
from the origin of ``Grid.cover(0, 1 + 2h, h)`` to the closed ball of
radius 0.2 at ``(0.3, 0)`` before leaving the unit disc; the total is
not one seed's longest walk, whose length varies from seed to seed.  A
walk takes about ``h^-2`` steps, so the count is fixed where n = 257
stays under ``CAP_S``.  ``pucci_minus`` is ``pucci_minus(hessian(u),
Ellipticity(1, 2))`` of the cosine field.  ``region_masks`` is the laplacian-core
suite's lattice regions at ``h = 2/(n-1)`` (see ``region_masks``).
``verify_call`` is one ``cli.main(["verify", "laplacian-core", "--h",
str(2/(n-1)), "--out", <file>])``, the parse, the suite and the report
document, as a verify-suites task of perfbench calls it.  A size whose
``n - 1`` is not a power of two is a usage error.  Before its first
kernel call an interpreter allocates and frees one block of ``SETTLE_BYTES``, which
settles glibc's heap as a long-running process has it (see
``time_layers``).  In an interpreter each kernel is
called once untimed per size, so that no timed call pays for a first
call, then ``REPEATS`` times, and the fastest timed call counts; a
kernel with a call over ``CAP_S`` seconds, the untimed one included,
is timed once more at that size at most and not run at the larger
sizes, and its times there are missing.

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
import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cold_start import SIDES, environment, git_ids, summary, tree_env

TOOLS = Path(__file__).resolve().parent
KERNELS = ("contact_set", "transport_map", "abp_bound", "aleksandrov_check",
           "inf_convolution", "dyadic_decomposition", "cz_selection",
           "holder_seminorm", "weighted_seminorm",
           "hardy_littlewood_maximal", "fractional_laplacian", "solve_poisson",
           "discrete_harmonic_hitting", "solve_pucci", "random_walk_hitting",
           "pucci_minus", "region_masks", "verify_call")
REPEATS = 3
CAP_S = 5.0
WALKS = 2000        # per seed; at n = 257 0.08-0.12 s a seed on a 2-core VM
WALK_SEEDS = (11, 12, 13)
SETTLE_BYTES = 1 << 20
# the radii of laplacian-core's closed balls about the origin
MASK_RADII = (0.75, 0.5, 1 / 3, 0.25, 0.125, 0.0625, 0.03125)
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


def region_masks(h: float) -> None:
    """The laplacian-core suite's regions on a new ``Grid.cover(0, 1 + 2h,
    h)``, as one ``verify`` builds them: the closed balls of
    ``MASK_RADII`` about the origin and of radius 1/4 about ``(0.1, 0)``,
    the open ``B_(1-2h)``, and its Gaussian of ``sigma = 0.6`` and
    ``|x|^(1/2)`` (``|x|`` clamped below at ``h/2``), built from the
    grid's radius table as the suite builds them."""
    import numpy as np
    import ellipticlab as el
    g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    for r in MASK_RADII:
        el.ClosedBall((0.0, 0.0), r).mask(g)
    el.ClosedBall((0.1, 0.0), 0.25).mask(g)
    el.Ball((0.0, 0.0), 1.0 - 2 * h).mask(g)
    el.ScalarField(g, np.exp(-g._r2 / (2 * 0.6 * 0.6)))
    el.ScalarField(g, np.maximum(np.sqrt(g._r2), g.h / 2) ** 0.5)


def verify_call(h: float, out: str) -> None:
    """``ellipticlab verify laplacian-core --h h --out out`` through
    ``cli.main`` in this interpreter, its verdict lines discarded, as
    perfbench's verify-suites tasks call it.  Exit 1 (a check without a
    verdict at a coarse ``h``) is a timing; exit 2, a usage or runtime
    error, is not."""
    import ellipticlab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = ellipticlab.cli.main(
            ["verify", "laplacian-core", "--h", str(h), "--out", out])
    if code == 2:
        raise RuntimeError(f"verify laplacian-core --h {h} exited 2")


def time_layers(sizes: list[int]) -> None:
    """Print ``{kernel: {size: seconds}}`` as JSON: the fastest of
    ``REPEATS`` calls after an untimed one, for each kernel under the
    cap.

    glibc starts a process with 128 KB mmap and trim thresholds: the
    kernels' blocks stay under the first, so the heap top that a call
    frees is trimmed back to the system and faulted in again by the next
    call.  Freeing one block above the mmap threshold raises both
    thresholds for the rest of the process, to the block's size and twice
    it, as a long-running process (perfbench) has them; so one block of
    ``SETTLE_BYTES`` is allocated and freed before the first kernel call.
    """
    from fractions import Fraction

    import numpy as np
    import ellipticlab as el
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    import workloads

    np.empty(SETTLE_BYTES, dtype=np.uint8)      # freed at once
    tmp = tempfile.TemporaryDirectory()
    report = str(Path(tmp.name) / "verify.json")

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
        walk_grid = el.Grid.cover((0.0, 0.0), 1.0 + 2 * g.h, g.h)
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
            "weighted_seminorm": lambda: el.weighted_seminorm(
                fld, 0.5, 0.5, el.Ball((0.0, 0.0), 0.75)),
            "hardy_littlewood_maximal": lambda: el.hardy_littlewood_maximal(
                fld),
            "fractional_laplacian": lambda: el.fractional_laplacian(
                fld, el.FractionalParams(sigma=1.0, level=2),
                eval_region=el.Ball((0.0, 0.0), 0.25)),
            "solve_poisson": lambda: el.solve_poisson(
                g, disc, lambda p: fvals, el.BoundaryData(lambda p: gvals),
                config=el.SolverConfig(tol=1e-10)),
            "discrete_harmonic_hitting": lambda: el.discrete_harmonic_hitting(
                g, el.ClosedBall(center, 0.2), disc),
            "solve_pucci": lambda: el.solve_pucci(
                g, disc, 1.0, el.BoundaryData(
                    lambda p: np.zeros(p.shape[:-1])),
                ell, config=el.SolverConfig(tol=1e-6, max_iter=50)),
            "random_walk_hitting": lambda: [el.random_walk_hitting(
                walk_grid, (0.0, 0.0), el.ClosedBall((0.3, 0.0), 0.2), disc,
                el.WalkConfig(n_samples=WALKS, seed=s)) for s in WALK_SEEDS],
            "pucci_minus": lambda: el.pucci_minus(el.hessian(fld), ell),
            "region_masks": lambda: region_masks(g.h),
            "verify_call": lambda: verify_call(2.0 / (n - 1), report),
        }
        for name in KERNELS:
            if name in capped:
                continue
            best = float("inf")
            for call in range(REPEATS + 1):     # call 0 warms up, untimed
                t0 = time.perf_counter()
                calls[name]()
                seconds = time.perf_counter() - t0
                if seconds > CAP_S:
                    capped.add(name)
                if call:
                    best = min(best, seconds)
                    if name in capped:
                        break
            out[name][str(n)] = best
    tmp.cleanup()
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
        "what": f"fastest of {REPEATS} calls, after one untimed call, "
                "per kernel and size in a new interpreter, "
                "one interpreter per tree and round",
        "field": "envelope-fields cosine field of input set 3 on "
                 "Grid.cover(0, 1, 2/(n-1)), holder_seminorm with alpha 1/2, "
                 "weighted_seminorm with alpha = beta = 1/2 on B_3/4, "
                 "hardy_littlewood_maximal; "
                 "fractional_laplacian with sigma 1, level 2, on B_1/4; "
                 "abp_bound and aleksandrov_check "
                 "on its bowl |x|^2 - 1 + 0.2 (u - min u); the coverings, "
                 "eta 1/2, on the analysis-kernels CellUnion of depth "
                 "log2(n-1) of input set 3; solve_poisson (tol 1e-10) and "
                 "discrete_harmonic_hitting on the analysis-kernels disc "
                 "problems of input set 3 (n=65 draws at n<=65, n=129 "
                 "draws above); solve_pucci of P^-(D^2 u) = 1 on the unit "
                 "disc, u = 0 outside, Ellipticity(1, 2), tol 1e-6, "
                 f"max_iter 50; random_walk_hitting of {WALKS} walks from "
                 f"each of the seeds {list(WALK_SEEDS)}, timed as their "
                 "total, from the origin of Grid.cover(0, 1 + 2h, h) to the "
                 "closed ball of radius 0.2 at (0.3, 0) before leaving the "
                 "unit disc; pucci_minus(hessian(u)) of the cosine field, "
                 "Ellipticity(1, 2); region_masks: on a new "
                 "Grid.cover(0, 1 + 2h, h), the closed balls of radii "
                 f"{[round(r, 5) for r in MASK_RADII]} about the origin and "
                 "of 1/4 about (0.1, 0), the open B_(1-2h), and the "
                 "gaussian (sigma 0.6) and power (alpha 1/2) fields; "
                 "verify_call: cli.main(['verify', 'laplacian-core', "
                 "'--h', str(2/(n-1)), '--out', <file>]), stdout discarded",
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
