"""Self-test of the benchmark: each workload's task list runs once, traced,
and every metric must be emitted.

    python3 -m pytest perfbench/test_perfbench.py

It also checks the accounting the per-layer numbers rely on: on
envelope-fields and analysis-kernels the named layers' self times cover at
least 90 % of the traced pass, and on verify-suites the seven suites plus
the CLI overhead add up to the pass.
"""
from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, SUITES, per_layer_metrics
from spans import Tracer
from workloads import N_INPUTS, Task

SEED = 5
PR_SET_CHILD_SUBREAPER = 36

# Metrics that must be nonzero on each workload: the layers it exercises.
ACTIVE = {
    "verify-suites": [f"suites.{s}.s" for s in SUITES] + [
        "solvers.solve_pucci.s", "solvers.solve_pucci.iterations",
        "operators.hessian.calls", "operators.hessian.s", "operators.pucci.s",
        "solvers.random_walk_hitting.s",
        "solvers.random_walk_hitting.walks_per_s",
        "io.write_report_document.s", "cli.overhead.s"],
    "envelope-fields": [
        f"contact.{f}.n{n}.s" for f in ("contact_set", "transport_map",
                                        "abp_bound", "aleksandrov_check",
                                        "inf_convolution")
        for n in (65, 129)] + [
        "contact.contact_set.nodes", "contact.area_formula_check.s",
        "contact.abp_bound.n_slopes", "contact.contact_set.scaling",
        "contact.abp_bound.scaling", "contact.aleksandrov_check.scaling"],
    "analysis-kernels": [
        f"grid.{f}.n{n}.s" for f in ("hardy_littlewood_maximal",
                                     "holder_seminorm", "weighted_seminorm")
        for n in (33, 65)] + [
        f"grid.{f}.scaling" for f in ("hardy_littlewood_maximal",
                                      "holder_seminorm", "weighted_seminorm")
    ] + [
        "operators.fractional_laplacian.level1.s",
        "operators.fractional_laplacian.level2.s",
        "coverings.dyadic_decomposition.d6.s",
        "coverings.dyadic_decomposition.d7.s",
        "coverings.cz_selection.d6.s", "coverings.cz_selection.d7.s",
        "coverings.cubes",
        "solvers.solve_poisson.n65.s", "solvers.solve_poisson.n129.s",
        "solvers.solve_poisson.iterations",
        "solvers.discrete_harmonic_hitting.n65.s",
        "solvers.discrete_harmonic_hitting.n129.s"],
}


def traced_pass(workload, tmp_path):
    tasks, _ = run.setup(workload, SEED, str(tmp_path))
    table = json.loads((run.HERE / "reference.json").read_text())
    refs = table.get(workload, {}).get(str(SEED % N_INPUTS), {})
    tracer = Tracer()
    results, loops = run.run_pass(tasks, run.TASK_CAP_S[workload],
                                  time.monotonic() + 600, refs, tracer)
    assert [e for _, e, _ in results if e] == []
    assert len(loops) == len(tasks) + 1
    assert run.calibration_info(loops)["other_threads_cpu"] <= \
        run.OTHER_CPU_MAX
    pass_s = sum(t * k for t, _, k in results)
    return per_layer_metrics(tracer, 1, 0.0), pass_s


@pytest.mark.parametrize("workload", list(ACTIVE))
def test_every_metric_is_emitted(workload, tmp_path):
    metrics, pass_s = traced_pass(workload, tmp_path)
    assert set(metrics) == set(PER_LAYER)
    for name, m in metrics.items():
        assert math.isfinite(m["value"]), name
        assert m["unit"] == PER_LAYER[name][0]
    value = {k: m["value"] for k, m in metrics.items()}
    for name in ACTIVE[workload]:
        assert value[name] > 0, name
    self_s = sum(v for k, v in value.items()
                 if k.endswith(".s") and not k.startswith("suites."))
    if workload == "verify-suites":
        # the uniformly-elliptic-core solve stops at max_iter (a known
        # false pass that the benchmark must show)
        assert value["solvers.solve_pucci.converged_frac"] < 1
        suites = sum(value[f"suites.{s}.s"] for s in SUITES)
        assert 0.95 * pass_s <= suites + value["cli.overhead.s"] <= pass_s
    else:
        assert value["solvers.solve_pucci.s"] == 0
        assert self_s >= 0.9 * pass_s


def adopted_children() -> dict[int, str]:
    """Pid and command line of each process whose parent is this one."""
    me = str(os.getpid())
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] == me:
                found[int(pid)] = (Path(f"/proc/{pid}/cmdline").read_text()
                                   .replace("\0", " "))
        except OSError:
            pass
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreaper is Linux only")
def test_end_to_end_output():
    # As a child subreaper this process adopts any process the run leaves
    # behind (such as a multiprocessing resource tracker), so that it can
    # be seen after the run has exited.
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "analysis-kernels", "--seed", str(SEED), "--seconds", "1",
             "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        left = adopted_children()
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    for pid in left:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert not left, f"the run left processes running: {left}"
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(lines[-2])["info"]
    assert info["task_s_tail"]["samples"] == result["attempted"]
    assert info["task_s_tail"]["percentile"] > 50
    assert set(info["task_scale"]) == set(info["task_s"])
    assert info["environment"]["nproc"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload",
         "verify-suites", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_task_over_its_cap_fails():
    slow = Task("slow", lambda: time.sleep(5), lambda out: {})
    [(seconds, error, _)], _ = run.run_pass([slow], 0.2,
                                            time.monotonic() + 60, {})
    assert error == "over its 0.2 s cap" and seconds < 1


def test_calibration_sees_other_threads():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        _, other = run.calibration_loop()
    finally:
        stop.set()
        worker.join()
    assert other > run.OTHER_CPU_MAX
    assert run.calibration_loop()[1] <= run.OTHER_CPU_MAX


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


@pytest.mark.parametrize("tasks_per_pass", [1, 7, 16, 23, 36])
def test_tail_lies_above_the_median(tasks_per_pass):
    n = tasks_per_pass * run.min_passes(tasks_per_pass)
    xs = [float(i) for i in range(n)]
    assert run.tail(xs)[0] > statistics.median(xs)


def test_metrics_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == PER_LAYER
