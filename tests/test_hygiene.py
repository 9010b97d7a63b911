"""Source and import hygiene checks that need no linter, and memory
guards on the blocked contact kernels, the random walk and the
fractional Laplacian."""
import ast
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ellipticlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = REPO / "README.md"


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


def test_fractional_laplacian_stays_blocked():
    # about 4 MB: the spline on the h/2 lattice (0.5 MB), the offset
    # table, and one node's gather of at most 2**17 doubles; all nodes
    # gathered at once would take about 160 MB
    import numpy as np
    import ellipticlab as el
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 64)            # n = 129
    fld = el.ScalarField.from_function(
        g, lambda p: np.cos(3 * p[..., 0]) * np.sin(2 * p[..., 1]))
    tracemalloc.start()
    try:
        res = el.fractional_laplacian(fld, el.FractionalParams(1.0, 2),
                                      el.Ball((0.0, 0.0), 0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.eval_mask.sum() > 600
    assert np.all(np.isfinite(res.field.values))
    assert peak < 16 * 2 ** 20


def python_blocks(markdown: str) -> list[str]:
    """The fenced ``python`` blocks of a Markdown text."""
    return re.findall(r"```python\n(.*?)```", markdown, re.S)


def exported(tree: ast.Module) -> list[str]:
    """The names of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def mentioned(tree: ast.AST) -> set[str]:
    """Every name, and every attribute name, that a tree mentions."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unreached(modules: list[ast.Module], roots: list[ast.AST]) -> list[str]:
    """``__all__`` names of the modules that no root reaches.

    A module-level function, class or assigned name is reached when a
    reached tree names it, as a name or as an attribute; its whole
    definition (body, bases, decorators, methods) is then walked too, to
    a fixed point.  Names are matched across modules, so a name defined
    in two modules is reached in both."""
    defs: dict[str, list[ast.AST]] = {}
    for tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs.setdefault(t.id, []).append(node)
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        for name in mentioned(todo.pop()) & (defs.keys() - reached):
            reached.add(name)
            todo += defs[name]
    return sorted({n for tree in modules for n in exported(tree)} - reached)


def test_detects_an_unreached_name():
    lib = ("__all__ = ['a', 'b', 'C', 'D', 'k']\n"
           "def a():\n    return _h()\n"
           "def _h():\n    return C.make()\n"
           "class C(D):\n    def make(self):\n        return k\n"
           "class D: pass\nk = 1\n"
           "def b():\n    return a()\n")
    root = "import lib\nlib.a()\n"
    assert unreached([ast.parse(lib)], [ast.parse(root)]) == ["b"]


# Kept on purpose although no verdict uses them: exported names, members
# (``Class.member``) and parameters or modes (``callee(parameter)``).
ALLOWLIST = {
    "read_field": "reads what `ellipticlab generate` writes",
    "hardy_littlewood_maximal": "a benchmark kernel: only the "
                                "analysis-kernels workload reaches it",
    "weighted_seminorm": "a benchmark kernel: only the analysis-kernels "
                         "workload reaches it",
    "RadialProfileFamily.gradient_at": "the reference the tests hold "
                                       "invert_gradient to",
    "TailSpec(kind)": "kind='power' is the tail that making the zero "
                      "tail of the fractional Laplacian exact needs",
    "local_max_check(p)": "an exponent that picks the estimate, as the "
                          "p of mean_value_check does",
}


def test_every_exported_name_backs_a_verdict():
    # roots: what a user runs (the suites behind `ellipticlab verify`, the
    # CLI verbs, the README tour) and what the benchmark times
    modules = [ast.parse(p.read_text()) for p in MODULES]
    roots = [ast.parse((PACKAGE / f).read_text())
             for f in ("suites.py", "cli.py")]
    roots.append(ast.parse((REPO / "perfbench" / "workloads.py").read_text()))
    roots += [ast.parse(b) for b in python_blocks(README.read_text())]
    assert [n for n in unreached(modules, roots) if n not in ALLOWLIST] == []


def test_allowlist_names_what_exists():
    modules = [ast.parse(p.read_text()) for p in MODULES]
    names = {f"{owner}({p})"
             for owner, _, p, _ in optional_parameters(modules)}
    for tree in modules:
        names |= set(exported(tree))
        names |= {f"{cls.name}.{fn.name}" for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)}
    assert ALLOWLIST.keys() <= names


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _optional(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """``(name, position)`` of the parameters with a default, the first
    ``skip`` positional ones left out; keyword-only ones have no
    position."""
    a = fn.args
    pos = a.posonlyargs + a.args
    out = [(p.arg, i - skip)
           for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def optional_parameters(modules: list[ast.Module]) -> list[tuple]:
    """Optional parameters of the public functions, methods and
    dataclasses, as ``(owner, callees, parameter, position)``.  A call
    reaches a parameter by one of the callee names: the function's or
    method's own name, or for an ``__init__`` or a dataclass field the
    name of its class or of a subclass that defines no ``__init__``."""
    out, inits, bases = [], {}, {}
    for tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                out += [(node.name, (node.name,), p, i)
                        for p, i in _optional(node, 0)]
            if not isinstance(node, ast.ClassDef) \
                    or node.name.startswith("_"):
                continue
            bases[node.name] = [b.id for b in node.bases
                                if isinstance(b, ast.Name)]
            if _is_dataclass(node):
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign)
                          and isinstance(n.target, ast.Name)]
                inits[node.name] = [(n.target.id, i)
                                    for i, n in enumerate(fields) if n.value]
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    inits[node.name] = _optional(fn, 1)
                elif not fn.name.startswith("_"):
                    out += [(fn.name, (fn.name,), p, i) for p, i
                            in _optional(fn, 0 if static else 1)]
    sharing = {}
    for cls in bases:
        owner = cls
        while owner not in inits and bases.get(owner):
            owner = bases[owner][0]
        sharing.setdefault(owner, []).append(cls)
    out += [(owner, tuple(sharing.get(owner, [owner])), p, i)
            for owner, params in inits.items() for p, i in params]
    return out


def set_by_calls(trees: list[ast.AST]) -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, position)`` of every argument
    that a call in the trees passes, by the callee's name or attribute
    name; a ``*`` or ``**`` argument sets every position or keyword,
    written ``(callee, '*')`` and ``(callee, '**')``."""
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            for i, a in enumerate(call.args):
                out.add((callee, "*" if isinstance(a, ast.Starred) else i))
            out |= {(callee, k.arg or "**") for k in call.keywords}
    return out


def unset_parameters(modules: list[ast.Module],
                     trees: list[ast.AST]) -> list[str]:
    """Optional parameters of the modules that no call in the trees sets."""
    calls = set_by_calls(trees)
    return sorted({f"{owner}({p})"
                   for owner, callees, p, i in optional_parameters(modules)
                   if not any({(c, p), (c, i), (c, "*"), (c, "**")} & calls
                              for c in callees)})


def test_detects_an_unset_parameter():
    lib = ("def f(a, b=1, *, c=2, d=3): pass\n"
           "def _g(x=0): pass\n"
           "class K:\n    def __init__(self, p=0, q=1): pass\n"
           "    def m(self, r=0, s=1): pass\n"
           "class L(K): pass\n"
           "@dataclass\nclass Cfg:\n    tol: float\n    cap: int = 9\n"
           "    seed: int = 0\n"
           "def h(u=0, v=0): pass\n")
    use = ("f(0, 5, d=1)\nL(1)\nk.m(s=2)\nCfg(1e-3, 4)\n"
           "def w(**kw):\n    return h(**kw)\n")
    assert unset_parameters([ast.parse(lib)], [ast.parse(use)]) == [
        "Cfg(seed)", "K(q)", "f(c)", "m(r)"]


def test_every_optional_parameter_is_set():
    # a default that no call overrides is a literal in disguise
    modules = [ast.parse(p.read_text()) for p in MODULES]
    sources = [p for d in ("src", "tests", "perfbench")
               for p in (REPO / d).rglob("*.py")]
    trees = [ast.parse(p.read_text()) for p in sources]
    trees += [ast.parse(b) for b in python_blocks(README.read_text())]
    assert [p for p in unset_parameters(modules, trees)
            if p not in ALLOWLIST] == []


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body outside its nested functions,
    classes and lambdas."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)


def dead_stores(source: str) -> list[str]:
    """Names that a function binds by a plain single-name assignment and
    that nothing in the function, nested functions included, ever reads;
    names it declares ``nonlocal`` or ``global`` are skipped."""
    bad = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        shared = {name for n in _own_nodes(fn)
                  if isinstance(n, (ast.Nonlocal, ast.Global))
                  for name in n.names}
        for node in _own_nodes(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                if name not in read | shared:
                    bad.append(f"{fn.name}: {name} (line {node.lineno})")
    return sorted(bad)


def test_detects_a_dead_store():
    src = ("def f(x):\n    a = 1\n    b, c = x\n    d = 2\n"
           "    def g():\n        nonlocal d\n        d = 3\n"
           "        e = 4\n    g()\n    return b, d\n"
           "def h():\n    k = 0\n    return lambda: k\n")
    assert dead_stores(src) == ["f: a (line 2)", "g: e (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_stores(path):
    assert dead_stores(path.read_text()) == []
