"""Benchmark of ellipticlab: the time until a verdict is ready.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suites --seed 1 \\
        --seconds 30 --trace 0

Each workload (``workloads.py``) runs in this one process as a closed loop
with one caller: a task starts when the previous one has returned.  A run
measures ``round(seconds / PASS_S[workload])`` whole passes, and at least
enough of them that the tail percentile lies above the median
(``min_passes``).
The count does not depend on speed, so that the task sample count, and
with it the tail percentile, is the same on every commit.  Every task's
output is checked; a task that raises, fails its check or runs past its
time cap counts as failed.

Times are scaled to a reference machine speed.  On a machine shared with
other tenants the speed of a core changes by up to 1.5x within seconds and
drifts as much over minutes, which no median over a 30 s run removes.  So
a fixed calibration loop runs before every task and after the last one,
and each task's wall time ``t`` is reported as
``t * REF_CAL_S / c``, with ``c`` the mean time of the loops just before
and after it; set-up is scaled by the loops right after it.  The wall
times, the loop times and each task's scale factor are in the ``info``
line as well.  The correction assumes that nothing of the package runs
while a loop runs: if other threads of the process use more than
``OTHER_CPU_MAX`` of a loop's CPU time (say, workers left spinning after
a task returned), the run fails with exit code 3 and prints no result.
When the loop times of a run spread by more than ``CAL_SPREAD_MAX``, the
``info`` line marks the correction as unresolved.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``END_TO_END``), measured with no
tracing.  With ``--trace 1`` the passes alternate traced and untraced and
the metrics are the per-layer ones of ``layers.py``; the spans are written
to ``perfbench/out/``.  The line before it holds the environment, the
tail percentile with its sample count, the wall times and any task
failures.

The package is imported from ``src/`` of this checkout and nowhere else;
without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("verify-suites", "envelope-fields", "analysis-kernels")
# The median wall time of a pass at the seed commit on a busy 2-core
# machine.  A run of 30 s makes 3 passes of envelope-fields and 4 of
# analysis-kernels, and 4 of verify-suites, whose 7 tasks a pass need 4
# for ``min_passes``.
PASS_S = {"verify-suites": 12.0, "envelope-fields": 11.5,
          "analysis-kernels": 8.5}
# A task over its cap is stopped and counted as failed.  About six times
# the slowest task of the workload at the seed commit.
TASK_CAP_S = {"verify-suites": 30.0, "envelope-fields": 10.0,
              "analysis-kernels": 15.0}
# No task starts later than this after the process started, so that a run
# ends within 180 s even when tasks run into their caps.
DEADLINE_S = 130.0
SETUP_RUNS = 3
# A set-up in a fresh interpreter is stopped after this many seconds.
SETUP_CAP_S = 30.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds the calibration loop takes at the reference speed (a quiet core
# of a 2.1 GHz Xeon); it only sets the unit of the scaled times.
REF_CAL_S = 0.006
# The most CPU time that other threads of the process may use during a
# calibration loop, as a share of the loop's own.
OTHER_CPU_MAX = 0.1
# Above this quartile distance over median of a run's loop times, the
# ``info`` line marks the correction as unresolved (the largest bound of
# BENCHMARK.json).
CAL_SPREAD_MAX = 0.25

END_TO_END = {
    "pass_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


class TaskTimeout(BaseException):
    """Raised in a task that runs past its cap.  A BaseException, so that
    no ``except Exception`` inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise TaskTimeout


def pin_threads() -> tuple[int, dict]:
    """Cap the BLAS/OpenMP thread counts at the usable cores, before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc, {var: int(os.environ[var]) for var in THREAD_VARS}


def calibration_loop() -> tuple[float, float]:
    """Seconds taken by a fixed mix of interpreter and small-array numpy
    work, the two kinds of work the package does, and the CPU time that
    other threads of the process used meanwhile, as a share of the
    loop's own."""
    import numpy as np
    a = np.arange(4096.0).reshape(64, 64)
    t0 = time.perf_counter()
    cpu0, own0 = time.process_time(), time.thread_time()
    s = 0
    for i in range(16000):
        s += i % 7
    for _ in range(160):
        a = a + 1e-9 * (np.roll(a, 1, axis=0) + np.roll(a, -1, axis=1)
                        - 2 * a)
    np.sort(a, axis=None)
    seconds = time.perf_counter() - t0
    own = time.thread_time() - own0
    return seconds, (time.process_time() - cpu0 - own) / max(own, 1e-9)


def setup(workload: str, seed: int, tmpdir: str):
    """Import ``ellipticlab`` from this checkout and generate the inputs;
    returns the task list and the seconds it took."""
    t0 = time.perf_counter()
    pkg = SRC / "ellipticlab"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no ellipticlab sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import ellipticlab
    import ellipticlab.cli  # noqa: F401  (verify-suites calls el.cli.main)
    if Path(ellipticlab.__file__).resolve().parent != pkg:
        raise SetupError(f"imported ellipticlab from {ellipticlab.__file__}")
    import workloads
    tasks = workloads.WORKLOADS[workload](ellipticlab, seed, tmpdir)
    return tasks, time.perf_counter() - t0


def setup_calibration() -> float:
    """Median of three calibration loops, run right after a set-up."""
    return statistics.median(calibration_loop()[0] for _ in range(3))


def fresh_setup(workload: str, seed: int) -> dict:
    """One set-up timed in this process; run in a fresh interpreter."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        _, setup_s = setup(workload, seed, tmpdir)
        return {"setup_s": setup_s, "cal_s": setup_calibration()}


def fresh_setups(workload: str, seed: int, runs: int) -> list[dict]:
    """``runs`` set-ups, one after another, each in a new interpreter that
    has ended when this returns.  (A ``multiprocessing`` pool would leave
    its resource-tracker process running after the benchmark exits.)"""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(run.fresh_setup(sys.argv[2], int(sys.argv[3]))))")
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_CAP_S)
        if proc.returncode != 0:
            raise SetupError("set-up in a fresh interpreter failed:\n"
                             + proc.stderr)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_task(task, cap, deadline, refs, tracer):
    """Run one task; returns (seconds, error or None)."""
    from workloads import matches
    if time.monotonic() > deadline:
        return 0.0, "not started: run deadline passed"
    span = tracer.open("task", task.label) if tracer else None
    t0 = time.perf_counter()
    error = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            fingerprint = task.inspect(task.call())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TaskTimeout:
        error = f"over its {cap:g} s cap"
    except Exception:  # a failing task is recorded; the run goes on
        error = traceback.format_exc().strip()
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    if error is None and seconds > cap:
        error = f"over its {cap:g} s cap"
    if error is None and fingerprint:
        if task.label not in refs:
            error = "no reference value recorded for this input set"
        else:
            bad = matches(fingerprint, refs[task.label])
            if bad:
                error = "differs from the reference: " + "; ".join(bad)
    return seconds, error


def run_pass(tasks, cap, deadline, refs, tracer=None, label=""):
    """One pass over the task list, traced when a tracer is given.
    Returns per task ``(seconds, error, scale)``: wall time, failure or
    None, and the factor that scales it to the reference speed; and the
    ``calibration_loop`` results of the pass."""
    from layers import LAYERS
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    loops = [calibration_loop()]
    cal = loops[0][0]
    with tracer.instrument(LAYERS) if tracer else contextlib.nullcontext():
        span = tracer.open("pass", label) if tracer else None
        for task in tasks:
            first = len(tracer.spans) if tracer else 0
            seconds, error = run_task(task, cap, deadline, refs, tracer)
            loops.append(calibration_loop())
            after = loops[-1][0]
            scale = 2 * REF_CAL_S / (cal + after)
            if tracer:
                tracer.scales[first] = scale
            results.append((seconds, error, scale))
            cal = after
        if tracer:
            tracer.close(span)
    return results, loops


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree (read directly, so
    nothing outside the checkout is touched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, threads: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "nproc": nproc, "threads": threads, "blas": blas,
            "git_sha": git_sha()}


def min_passes(tasks_per_pass: int) -> int:
    """The fewest passes whose samples put the tail above the median."""
    return math.ceil((2 * TAIL_BEYOND + 3) / tasks_per_pass)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile)."""
    xs = sorted(latencies)
    idx = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def calibration_info(loops: list[tuple[float, float]]) -> dict:
    """The loop times of a run, their spread and the largest share of
    other threads' CPU time in a loop."""
    seconds = [s for s, _ in loops]
    q = statistics.quantiles(seconds, n=4)
    cal_spread = (q[2] - q[0]) / statistics.median(seconds)
    return {"loop_s": seconds, "spread": cal_spread,
            "resolved": cal_spread <= CAL_SPREAD_MAX,
            "other_threads_cpu": max(o for _, o in loops)}


def main(argv=None) -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    nproc, threads = pin_threads()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        try:
            tasks, setup_s = setup(args.workload, args.seed, tmpdir)
            setups = [{"setup_s": setup_s, "cal_s": setup_calibration()}]
            setups += fresh_setups(args.workload, args.seed, SETUP_RUNS - 1)
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return measure(args, tasks, setups, start, nproc, threads)


def measure(args, tasks, setups, start, nproc, threads) -> int:
    from layers import per_layer_metrics
    from spans import Tracer
    from workloads import N_INPUTS

    table = json.loads((HERE / "reference.json").read_text())
    refs = table.get(args.workload, {}).get(str(args.seed % N_INPUTS), {})
    passes = max(min_passes(len(tasks)),
                 round(args.seconds / PASS_S[args.workload]))
    if args.trace:
        passes = max(2, passes)
    cap = TASK_CAP_S[args.workload]
    deadline = start + DEADLINE_S

    tracer = Tracer()
    pass_s = {True: [], False: []}       # scaled to the reference speed
    pass_wall = {True: [], False: []}
    latencies = {t.label: [] for t in tasks}     # scaled, untraced passes
    scales = {t.label: [] for t in tasks}
    walls, failures, loops = [], [], []
    attempted = 0
    for i in range(passes):
        traced = bool(args.trace) and i % 2 == 0
        results, pass_loops = run_pass(tasks, cap, deadline, refs,
                                       tracer if traced else None, str(i))
        loops.extend(pass_loops)
        pass_s[traced].append(sum(t * k for t, _, k in results))
        pass_wall[traced].append(sum(t for t, _, _ in results))
        for task, (seconds, error, scale) in zip(tasks, results):
            attempted += 1
            if error:
                failures.append(f"pass {i} {task.label}: {error}")
            if not traced:
                latencies[task.label].append(seconds * scale)
                scales[task.label].append(scale)
                walls.append(seconds)

    info = {"workload": args.workload, "seed": args.seed,
            "input_set": args.seed % N_INPUTS, "passes": passes,
            "traced_passes": len(pass_s[True]),
            "pass_s": pass_s[False], "traced_pass_s": pass_s[True],
            "wall": {"pass_s": pass_wall[False],
                     "traced_pass_s": pass_wall[True],
                     "setup_s": [s["setup_s"] for s in setups]},
            "calibration_s": [s["cal_s"] for s in setups],
            "calibration": calibration_info(loops),
            "environment": environment(nproc, threads),
            "failures": failures}
    if args.trace:
        overhead = (statistics.median(pass_s[True])
                    / statistics.median(pass_s[False]) - 1.0)
        metrics = per_layer_metrics(tracer, len(pass_s[True]), overhead)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file, info)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        samples = [t for v in latencies.values() for t in v]
        tail_s, pct = tail(samples)
        info["task_s_tail"] = {"percentile": pct, "samples": len(samples)}
        info["task_s"] = latencies
        info["task_scale"] = scales
        info["wall"].update(task_s_p50=statistics.median(walls),
                            task_s_tail=tail(walls)[0])
        values = {
            "pass_s": statistics.median(pass_s[False]),
            "task_s_p50": statistics.median(samples),
            "task_s_tail": tail_s,
            "ok_frac": 1.0 - len(failures) / attempted,
            "setup_s": statistics.median(
                s["setup_s"] * REF_CAL_S / s["cal_s"] for s in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    for line in failures:
        print(line, file=sys.stderr)
    print(json.dumps({"info": info}))
    if info["calibration"]["other_threads_cpu"] > OTHER_CPU_MAX:
        print("error: other threads of the process ran during the "
              "calibration loops, so the times cannot be scaled",
              file=sys.stderr)
        return 3
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
