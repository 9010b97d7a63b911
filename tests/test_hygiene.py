"""Source and import hygiene checks that need no linter, and memory
guards on the blocked contact kernels and the random walk."""
import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ellipticlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except those in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":     # from __future__ import
                    imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used and name not in exported]


def test_detects_an_unused_import():
    src = "import math\nimport os\nfrom typing import Any\n__all__ = ['Any']\nos.sep\n"
    assert unused_imports(src) == ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports_in_functions(source: str) -> list[str]:
    """Imports from the package itself made inside a function body;
    third-party imports there (a lazy ``scipy.spatial``) are allowed."""
    bad = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0]
                        == "ellipticlab"):
                    bad.append(f"{fn.name} (line {node.lineno})")
                elif isinstance(node, ast.Import) and any(
                        a.name.split(".")[0] == "ellipticlab"
                        for a in node.names):
                    bad.append(f"{fn.name} (line {node.lineno})")
    return bad


def test_detects_a_package_import_in_a_function():
    src = ("from .grid import Ball\n"
           "def f():\n    from .grid import Cube\n    import scipy.spatial\n"
           "def g():\n    import ellipticlab.io\n"
           "def h():\n    from ellipticlab import grid\n")
    assert package_imports_in_functions(src) == [
        "f (line 3)", "g (line 6)", "h (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_in_functions(path):
    assert package_imports_in_functions(path.read_text()) == []


N_DIM_FFTS = {"fftn", "ifftn", "rfftn", "irfftn"}


def fft_calls_without_axes(source: str) -> list[str]:
    """N-dimensional FFT calls given a shape ``s`` but no ``axes``, which
    NumPy 2 deprecates."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in N_DIM_FFTS):
            kw = {k.arg for k in node.keywords}
            if ((len(node.args) >= 2 or "s" in kw)
                    and not (len(node.args) >= 3 or "axes" in kw)):
                bad.append(f"{node.func.attr} (line {node.lineno})")
    return bad


def test_detects_an_fft_without_axes():
    src = ("np.fft.rfftn(a, s)\nnp.fft.irfftn(a, s, axes)\n"
           "np.fft.fftn(a, s=s, axes=(0,))\nnp.fft.rfftn(a)\n")
    assert fft_calls_without_axes(src) == ["rfftn (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fft_calls_pass_axes(path):
    assert fft_calls_without_axes(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of public module-level functions that the body never
    reads."""
    bad = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            bad += [f"{fn.name}({p})" for p in params if p not in read]
    return bad


def test_detects_an_unread_parameter():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + sum(c) + e['x']\n"
           "def _g(x):\n    pass\n"
           "def h(y: int = 0):\n    def inner():\n        return y\n"
           "    return inner\n"
           "class K:\n    def m(self, z):\n        pass\n")
    assert unread_parameters(src) == ["f(b)", "f(d)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_import_leaves_scipy_signal_out():
    # importing scipy.signal takes about a second, on every start-up
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, ellipticlab; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_contact_kernels_stay_blocked():
    # an unblocked centers x nodes broadcast would take about 100 MB here
    import numpy as np
    import ellipticlab as el
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 128)          # n = 257
    fld = el.ScalarField.from_function(
        g, lambda p: np.sum(p ** 2, axis=-1) - 1.0)
    fam = el.ParaboloidFamily(opening=8.0,
                              center_set=el.Ball((0.0, 0.0), 1 / 16))
    tracemalloc.start()
    try:
        cs = el.contact_set(fld, fam)
        rep = el.abp_bound(fld, el.Ellipticity(1.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) >= 190 and rep.passed
    assert peak < 16 * 2 ** 20


def test_walk_stays_blocked():
    # a chunk holds a (chunk, 512) int8 draw block (4 MB) and a
    # (chunk, 16) int64 path (1 MB)
    import ellipticlab as el
    h = 1 / 12
    g = el.Grid.cover((0.0, 0.0), 1.0 + 2 * h, h)
    cfg = el.WalkConfig(n_samples=20_000, seed=11)
    tracemalloc.start()
    try:
        est, _, _ = el.random_walk_hitting(g, (0.0, 0.0),
                                           el.ClosedBall((0.3, 0.0), 0.2),
                                           el.Ball((0.0, 0.0), 1.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.6 < est < 0.7
    assert peak < 16 * 2 ** 20
