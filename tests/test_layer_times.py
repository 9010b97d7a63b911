"""The layer-times script of ``tools/``: one small run on one tree."""
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
from layer_times import scaling_exponent  # noqa: E402

KERNELS = {"contact_set", "transport_map", "abp_bound", "aleksandrov_check",
           "inf_convolution", "dyadic_decomposition", "cz_selection",
           "holder_seminorm", "solve_poisson", "discrete_harmonic_hitting"}


def test_times_every_kernel_on_both_sides(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "layer_times.py"), str(REPO),
         str(REPO), "--sizes", "9", "17", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["kernels"]) == KERNELS
    for row in doc["kernels"].values():
        assert set(row) == {"9", "17", "scaling"}
        for side in ("before", "after"):
            for n in ("9", "17"):
                assert len(row[n][side]["runs_s"]) == 2
                assert row[n][side]["median_s"] >= 0
            # two sizes: perfbench's log(t_large / t_small) / log(N ratio),
            # within the runs' rounding to 1 us and the exponent's to 1e-3
            t9, t17 = (statistics.median(row[n][side]["runs_s"])
                       for n in ("9", "17"))
            log_n = math.log(17 ** 2 / 9 ** 2)
            slack = (1e-6 / t9 + 1e-6 / t17) / log_n + 1e-3
            assert row["scaling"][side] == pytest.approx(
                math.log(t17 / t9) / log_n, abs=slack)
    assert doc["git"]["before"] == doc["git"]["after"]
    assert doc["environment"]["numpy"]


def test_a_size_off_the_dyadic_depths_is_a_usage_error(tmp_path):
    # the coverings' region has n - 1 cells per axis, a power of two
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "layer_times.py"), str(REPO),
         str(REPO), "--sizes", "9", "16", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "power of two" in proc.stderr
    assert not out.exists()


def test_scaling_exponent_is_the_least_squares_slope():
    sizes = [65, 129, 257]
    # an exact power law in the node count n^2
    assert scaling_exponent(sizes, [3e-3 * (n * n) ** 1.25
                                    for n in sizes]) == pytest.approx(1.25)
    # off the line: the slope of the fit, not of the last two sizes
    seconds = [1e-3, 5e-3, 1.6e-2]
    x = [2 * math.log(n) for n in sizes]
    y = [math.log(t) for t in seconds]
    xm, ym = sum(x) / 3, sum(y) / 3
    want = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
            / sum((a - xm) ** 2 for a in x))
    assert scaling_exponent(sizes, seconds) == pytest.approx(want)
    assert scaling_exponent(sizes[:2], seconds[:2]) == pytest.approx(
        math.log(5) / math.log((129 / 65) ** 2))
