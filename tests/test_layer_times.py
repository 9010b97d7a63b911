"""The layer-times script of ``tools/``: one small run on one tree."""
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
import layer_times  # noqa: E402
from layer_times import scaling_exponent  # noqa: E402

KERNELS = {"contact_set", "transport_map", "abp_bound", "aleksandrov_check",
           "inf_convolution", "dyadic_decomposition", "cz_selection",
           "holder_seminorm", "weighted_seminorm",
           "hardy_littlewood_maximal", "fractional_laplacian", "solve_poisson",
           "discrete_harmonic_hitting", "solve_pucci", "random_walk_hitting",
           "pucci_minus", "region_masks", "verify_call"}


def owner(name):
    """The module whose attribute ``name`` the timed call looks up: the
    package for its kernels, the script for its own ``region_masks`` and
    ``verify_call``."""
    import ellipticlab as el
    return layer_times if name in ("region_masks", "verify_call") else el


def test_times_every_kernel_on_both_sides(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "layer_times.py"), str(REPO),
         str(REPO), "--sizes", "17", "33", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["kernels"]) == KERNELS
    for row in doc["kernels"].values():
        assert set(row) == {"17", "33", "scaling"}
        for side in ("before", "after"):
            for n in ("17", "33"):
                assert len(row[n][side]["runs_s"]) == 2
                assert row[n][side]["median_s"] >= 0
            # two sizes: perfbench's log(t_large / t_small) / log(N ratio),
            # within the runs' rounding to 1 us and the exponent's to 1e-3
            t17, t33 = (statistics.median(row[n][side]["runs_s"])
                        for n in ("17", "33"))
            log_n = math.log(33 ** 2 / 17 ** 2)
            slack = (1e-6 / t17 + 1e-6 / t33) / log_n + 1e-3
            assert row["scaling"][side] == pytest.approx(
                math.log(t33 / t17) / log_n, abs=slack)
    assert doc["git"]["before"] == doc["git"]["after"]
    assert doc["environment"]["numpy"]


def counted_calls(monkeypatch, capsys, sizes):
    """``time_layers(sizes)`` in this interpreter with every kernel
    wrapped to count its calls: the calls per kernel and the printed
    times."""
    calls = dict.fromkeys(KERNELS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(owner(name), name,
                            counting(name, getattr(owner(name), name)))
    layer_times.time_layers(sizes)
    return calls, json.loads(capsys.readouterr().out)


def per_timing(kernel):
    """Package calls that one timing of ``kernel`` makes: a walk per seed
    for ``random_walk_hitting``, one call for every other kernel."""
    return len(layer_times.WALK_SEEDS) if kernel == "random_walk_hitting" \
        else 1


def test_warms_up_each_kernel_before_timing_it(monkeypatch, capsys):
    # one untimed call, then REPEATS timed ones, per kernel and size;
    # contact_set once more per size, for transport_map's contact set
    calls, times = counted_calls(monkeypatch, capsys, [17, 33])
    want = 2 * (layer_times.REPEATS + 1)
    assert calls == {k: want * per_timing(k) + 2 * (k == "contact_set")
                     for k in KERNELS}
    assert all(set(t) == {"17", "33"} for t in times.values())


def test_the_untimed_call_counts_toward_the_cap(monkeypatch, capsys):
    # every call is over a cap of 0 s: the untimed call caps the kernel,
    # one timed call gives its time, and the larger size runs none
    monkeypatch.setattr(layer_times, "CAP_S", 0.0)
    calls, times = counted_calls(monkeypatch, capsys, [17, 33])
    assert calls == {k: 2 * per_timing(k) + 2 * (k == "contact_set")
                     for k in KERNELS}
    assert all(list(t) == ["17"] and t["17"] > 0 for t in times.values())


def test_walks_every_seed_in_each_timing(monkeypatch, capsys):
    # a timing is the total of WALKS walks from each of seeds 11, 12 and
    # 13, so the time at n = 257 is not one seed's longest walk
    import ellipticlab as el
    configs = []
    walk = el.random_walk_hitting

    def recording(grid, start, target, domain, config):
        configs.append((config.seed, config.n_samples))
        return walk(grid, start, target, domain, config)

    monkeypatch.setattr(el, "random_walk_hitting", recording)
    layer_times.time_layers([17])
    capsys.readouterr()
    assert layer_times.WALK_SEEDS == (11, 12, 13)
    assert configs == [(s, layer_times.WALKS) for s in layer_times.WALK_SEEDS
                       ] * (layer_times.REPEATS + 1)


def test_settles_the_heap_before_the_first_kernel(monkeypatch, capsys):
    # one block of SETTLE_BYTES, at least 1 MB, is made and gone when the
    # first kernel starts
    import weakref
    import numpy as np
    made, live_at_first = [], []
    empty = np.empty

    def recording(*args, **kwargs):
        block = empty(*args, **kwargs)
        if not live_at_first and block.nbytes >= 2 ** 20:
            made.append(weakref.ref(block))
        return block

    def first(fn):
        def wrapper(*args, **kwargs):
            if not live_at_first:
                live_at_first.append([r() is not None for r in made])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "empty", recording)
    for name in KERNELS:
        monkeypatch.setattr(owner(name), name, first(getattr(owner(name),
                                                             name)))
    layer_times.time_layers([17])
    capsys.readouterr()
    assert layer_times.SETTLE_BYTES >= 2 ** 20
    assert live_at_first == [[False]]


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


def test_region_masks_build_laplacian_cores_regions(monkeypatch):
    # the kernel makes one new grid per call, so the grid's radius table
    # is built in every timed call, as in one verify
    import ellipticlab as el
    grids, masks, fields = [], [], []
    cover, mask, field = el.Grid.cover, el.Ball.mask, el.ScalarField

    def covering(*args, **kwargs):
        grids.append(cover(*args, **kwargs))
        return grids[-1]

    def masking(region, grid):
        masks.append((type(region).__name__, region.center, region.radius,
                      grid))
        return mask(region, grid)

    def building(grid, values, *args, **kwargs):
        fields.append((grid, values))
        return field(grid, values, *args, **kwargs)

    monkeypatch.setattr(el.Grid, "cover", covering)
    monkeypatch.setattr(el.Ball, "mask", masking)
    monkeypatch.setattr(el.ClosedBall, "mask", masking)
    monkeypatch.setattr(el, "ScalarField", building)
    h = 2 / 64
    for _ in range(2):
        layer_times.region_masks(h)
    assert len(grids) == 2 and grids[0] is not grids[1]
    assert grids[0] == cover((0.0, 0.0), 1.0 + 2 * h, h)
    assert [m[:3] for m in masks[:len(masks) // 2]] == [
        *(("ClosedBall", (0.0, 0.0), r) for r in layer_times.MASK_RADII),
        ("ClosedBall", (0.1, 0.0), 0.25), ("Ball", (0.0, 0.0), 1.0 - 2 * h)]
    # laplacian-core's Gaussian of sigma 0.6 and |x|^(1/2)
    r2 = np.sum(grids[0].coords() ** 2, axis=-1)
    want = [np.exp(-r2 / (2 * 0.6 * 0.6)),
            np.maximum(np.sqrt(r2), h / 2) ** 0.5]
    assert len(fields) == 4
    for i, (_, values) in enumerate(fields):
        np.testing.assert_array_equal(values, want[i % 2])
    assert all(m[3] is grids[i >= len(masks) // 2]
               for i, m in enumerate(masks))
    assert all(f[0] is grids[i >= 2] for i, f in enumerate(fields))


def test_verify_call_is_one_cli_verify_of_laplacian_core(monkeypatch,
                                                        capsys):
    # at n = 17 the spacing is 1/8; the verdict lines stay off the
    # timing's stdout, and exit 1 (a check without a verdict) is a timing
    import ellipticlab.cli
    seen = []
    cli_main = ellipticlab.cli.main

    def recording(argv):
        seen.append(argv[:4])
        return cli_main(argv)

    monkeypatch.setattr(ellipticlab.cli, "main", recording)
    layer_times.time_layers([17])
    assert set(json.loads(capsys.readouterr().out)) == KERNELS
    assert seen == [["verify", "laplacian-core", "--h", "0.125"]] * (
        layer_times.REPEATS + 1)
    monkeypatch.setattr(ellipticlab.cli, "main", lambda argv: 1)
    layer_times.verify_call(0.125, "unused.json")
    monkeypatch.setattr(ellipticlab.cli, "main", lambda argv: 2)
    with pytest.raises(RuntimeError, match="exited 2"):
        layer_times.verify_call(0.125, "unused.json")


def test_readme_names_every_kernel_and_committed_file():
    readme = (REPO / "README.md").read_text()
    named = [*KERNELS, *(p.name for p in REPO.glob("BENCH_*.json"))]
    assert sorted(k for k in named if f"`{k}`" not in readme) == []
