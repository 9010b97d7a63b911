"""Source and import hygiene checks that need no linter, and memory
guards on the blocked contact kernels, the Hölder seminorms, the random
walk and the fractional Laplacian."""
import ast
import json
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
    third-party imports there are allowed."""
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


def _unread(fn: ast.FunctionDef | ast.Lambda) -> list[str]:
    """The parameters of a def or lambda that its body never reads."""
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
              + [a.vararg, a.kwarg] if p is not None]
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read]


def unread_parameters(source: str) -> list[str]:
    """Parameters of public module-level functions that the body never
    reads."""
    return [f"{fn.name}({p})" for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            for p in _unread(fn)]


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


# the tables of the CLI's named inputs: each entry's keyword parameters are
# the options that the suite takes
TABLES = ("SUITES",)


def unread_table_parameters(source: str) -> list[str]:
    """``TABLE[key](parameter)`` for every parameter that an entry of a
    module-level ``SUITES`` dict never reads: a lambda, or a module-level
    def given by name."""
    tree = ast.parse(source)
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    bad = []
    for node in tree.body:
        target = getattr(node, "target", None) or (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if getattr(target, "id", None) not in TABLES:
            continue
        for key, value in zip(node.value.keys, node.value.values):
            fn = value if isinstance(value, ast.Lambda) else defs[value.id]
            bad += [f"{target.id}[{key.value!r}]({p})" for p in _unread(fn)]
    return bad


def test_detects_an_unread_table_parameter():
    src = ("def _a(h=0.1):\n    return h\n"
           "def _b(h=0.1, n=5):\n    return h\n"
           "SUITES: dict = {'a': _a, 'b': _b,\n"
           "                'c': lambda grid, s=1.0: grid.x * s,\n"
           "                'd': lambda grid, s=1.0: grid.x,\n"
           "                'e': lambda grid: f(lambda r: r)}\n"
           "OTHER = {'g': _b}\n")
    assert unread_table_parameters(src) == [
        "SUITES['b'](n)", "SUITES['d'](s)", "SUITES['e'](grid)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_table_parameter_is_read(path):
    # an option that a suite takes and never reads would be accepted and
    # do nothing
    assert unread_table_parameters(path.read_text()) == []


def test_the_tables_are_checked():
    found = {t for p in MODULES for t in TABLES
             if re.search(rf"^{t}\b.*= {{", p.read_text(), re.M)}
    assert found == set(TABLES)


def grid_constructor_calls(source: str) -> list[int]:
    """Lines that call the ``Grid(...)`` constructor, by name or as an
    attribute; ``Grid.cover(...)`` is not such a call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and "Grid" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))]


def test_detects_a_grid_constructor_call():
    src = ("g = Grid(1, h, (0.0,), (9,))\nGrid.cover((0.0,), 1.0, h)\n"
           "el.Grid(1, h, (0.0,), (9,))\nkind = Grid\n")
    assert grid_constructor_calls(src) == [1, 3]


def test_grids_are_built_only_where_fields_enter():
    # one grid per field: a derived field lives on its input's grid, and
    # only setting up a suite's input makes a grid
    makers = {p.name for p in MODULES if grid_constructor_calls(p.read_text())}
    assert makers <= {"suites.py"}


def verdict_decisions(source: str) -> list[int]:
    """Lines that call ``CheckReport(...)``, by name or as an attribute,
    or assign an attribute named ``passed``, ``margin`` or ``status``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and "CheckReport" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in ("passed", "margin", "status"))


def test_detects_a_verdict_decision():
    src = ("rep = CheckReport('x', 0, 0, 0, 'pass', 0)\nrep.passed = False\n"
           "rep.margin += 1\nok = rep.passed\nr.CheckReport\n"
           "rep.status, n = 'fail', 1\nel.CheckReport(**d)\n")
    assert verdict_decisions(src) == [1, 2, 3, 6, 7]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reports.py"],
                         ids=lambda p: p.name)
def test_only_make_report_decides_a_verdict(path):
    # a status decided anywhere else is one that make_report cannot explain
    assert verdict_decisions(path.read_text()) == []


# the modules whose checks decide every hypothesis in their one report, on
# the grid they measured
ONE_REPORT = ("contact", "regularity", "operators", "solvers", "coverings")
GRID_REPORT = ("contact", "regularity", "operators", "solvers")


def _report_calls(nodes) -> list[ast.Call]:
    return [n for n in nodes if isinstance(n, ast.Call) and "make_report" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def repeated_reports(source: str) -> list[str]:
    """``name (k calls)`` for each function in ``__all__`` that makes
    more than one ``make_report`` call, nested functions included."""
    tree = ast.parse(source)
    names = set(exported(tree))
    return [f"{fn.name} ({len(calls)} calls)" for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name in names
            and len(calls := _report_calls(ast.walk(fn))) > 1]


def reports_without_grid(source: str) -> list[str]:
    """``def (line N)`` of every ``make_report`` call that passes no
    ``grid=``, named by the def that makes it."""
    return [f"{name} (line {call.lineno})"
            for name, fn in _defs(ast.parse(source))
            for call in sorted(_report_calls(_own_nodes(fn)),
                               key=lambda c: c.lineno)
            if "grid" not in {k.arg for k in call.keywords}]


def test_detects_repeated_and_gridless_reports():
    src = ("__all__ = ['a', 'b', 'c', 'K', 'e']\n"
           "def a(u):\n    if u:\n        return make_report('a', 0, 0)\n"
           "    return make_report('a', 1, 1, grid=g)\n"
           "def b(u):\n    def inner():\n"
           "        return rp.make_report('b', 0, 0, grid=g)\n"
           "    return inner(), make_report('b', 1, 1, grid=g)\n"
           "def c(u):\n    return make_report('c', 0, 0, grid=g)\n"
           "def _d(u):\n    return make_report('d', 0, 0), make_report('d', "
           "1, 1)\n"
           "class K:\n    def check(self):\n"
           "        return make_report('k', 0, 0)\n"
           "def e(p):\n"
           "    return make_report('e', 0, 0), make_report('e', 1, 1)\n")
    assert repeated_reports(src) == [
        "a (2 calls)", "b (2 calls)", "e (2 calls)"]
    assert reports_without_grid(src) == [
        "a (line 4)", "_d (line 13)", "_d (line 13)", "K.check (line 16)",
        "e (line 18)", "e (line 18)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in ONE_REPORT],
                         ids=lambda p: p.name)
def test_a_check_makes_one_report(path):
    # a second report, made on an early exit, would decide a hypothesis
    # without the sides and constants the check measured
    assert repeated_reports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in GRID_REPORT],
                         ids=lambda p: p.name)
def test_every_report_carries_its_grid(path):
    # the grid is what a reader needs to reproduce the run
    assert reports_without_grid(path.read_text()) == []


# a check's product is its one report, so that every exported check is
# called one way; the solvers' product is their solution, and perfbench's
# _count_walks reads random_walk_hitting's third item
REPORT_SHAPE_EXEMPT = {"solve_poisson", "solve_pucci", "random_walk_hitting"}


def checks_not_returning_a_report(source: str) -> list[str]:
    """``name -> annotation`` for each function of ``__all__``, and each
    method of a class in it, that calls ``make_report`` (nested functions
    included) and is not annotated ``-> CheckReport``; a method is named
    ``Class.method``."""
    tree = ast.parse(source)
    names = set(exported(tree))
    fns = []
    for node in tree.body:
        if getattr(node, "name", None) not in names:
            continue
        if isinstance(node, ast.ClassDef):
            fns += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                    if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            fns.append((node.name, node))
    return [f"{name} -> {ast.unparse(fn.returns) if fn.returns else None}"
            for name, fn in fns
            if name not in REPORT_SHAPE_EXEMPT and _report_calls(ast.walk(fn))
            and not (fn.returns and ast.unparse(fn.returns) == "CheckReport")]


def test_detects_a_check_not_returning_a_report():
    src = ("__all__ = ['a', 'b', 'c', 'K', 'solve_pucci', 'kernel']\n"
           "def a(u) -> tuple[float, CheckReport]:\n"
           "    return 1.0, make_report('a', 0, 0)\n"
           "def b(u):\n    def inner():\n"
           "        return rp.make_report('b', 0, 0)\n    return inner()\n"
           "def c(u) -> CheckReport:\n    return make_report('c', 0, 0)\n"
           "class K:\n    def check(self) -> 'CheckReport':\n"
           "        return make_report('k', 0, 0)\n"
           "    def ok(self) -> CheckReport:\n"
           "        return make_report('k', 0, 0)\n"
           "def solve_pucci(g) -> tuple[int, CheckReport]:\n"
           "    return 0, make_report('s', 0, 0)\n"
           "def kernel(u) -> tuple:\n    return u, u\n"
           "def _hidden(u) -> tuple:\n    return u, make_report('h', 0, 0)\n")
    assert checks_not_returning_a_report(src) == [
        "a -> tuple[float, CheckReport]", "b -> None",
        "K.check -> 'CheckReport'"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_check_returns_one_report(path):
    # a tuple of a value and a report, or a report behind a method, is a
    # second way to call a check, which a caller that runs every exported
    # check the same way cannot take
    assert checks_not_returning_a_report(path.read_text()) == []


def unexported_reports(source: str) -> list[str]:
    """``def (line N)`` of every ``make_report`` call outside the functions
    and classes of the module's ``__all__``, named by the module-level
    def or class that holds it (``<module>`` for none); a nested
    function's calls are its enclosing def's."""
    tree = ast.parse(source)
    names = set(exported(tree))
    return [f"{getattr(node, 'name', '<module>')} (line {call.lineno})"
            for node in tree.body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in names)
            for call in sorted(_report_calls(ast.walk(node)),
                               key=lambda c: c.lineno)]


def test_detects_an_unexported_report():
    src = ("__all__ = ['a_check', 'K']\n"
           "def a_check(u):\n    def inner():\n"
           "        return make_report('a', 0, 0)\n    return inner()\n"
           "class K:\n    def check(self):\n"
           "        return rp.make_report('k', 0, 0)\n"
           "def _suite():\n    return [make_report('s', 0, 0),\n"
           "            a_check(1)]\n"
           "class _Hidden:\n    def check(self):\n"
           "        return make_report('h', 0, 0)\n"
           "REPORT = make_report('m', 0, 0)\n")
    assert unexported_reports(src) == [
        "_suite (line 10)", "_Hidden (line 14)", "<module> (line 15)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_report_comes_from_an_exported_check(path):
    # a verdict decided in a private function or a suite is one that no
    # test or control can call on another input, and that the per-check
    # rules above never read
    assert unexported_reports(path.read_text()) == []


EMPTY_SET_WORDS = ("no node", "no cell", "holds no", "empty",
                   "does not resolve")


def empty_set_notes(source: str) -> list[int]:
    """Lines of a ``hypothesis=`` argument whose literal text (a string,
    an f-string's text, or either branch of an ``if``/``or`` over them)
    names an empty or unresolved set."""
    def texts(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.JoinedStr):
            return [t for v in node.values for t in texts(v)]
        if isinstance(node, ast.IfExp):
            return texts(node.body) + texts(node.orelse)
        if isinstance(node, ast.BoolOp):
            return [t for v in node.values for t in texts(v)]
        return []
    return sorted(
        kw.value.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) for kw in node.keywords
        if kw.arg == "hypothesis" and any(
            w in t.lower() for t in texts(kw.value) for w in EMPTY_SET_WORDS))


def test_detects_an_empty_set_note():
    src = ("make_report('a', 0, 0, hypothesis='B_r holds no node')\n"
           "make_report('b', 0, 0, hypothesis=None if ok else 'Empty set')\n"
           "f(hypothesis=unresolved('Q_1', n, 4) or f'{k} has no cell')\n"
           "f(hypothesis=unresolved('the empty target', n, 1))\n"
           "f(hypothesis='u negative', notes='holds no node')\n"
           "f(hypothesis=None if ok else 'grid does not resolve Q_1')\n")
    assert empty_set_notes(src) == [1, 2, 3, 6]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reports.py"],
                         ids=lambda p: p.name)
def test_empty_sets_are_named_by_one_note(path):
    # reports.unresolved words the one note of a grid too coarse for its
    # estimate; a check that words its own is a second rule beside it
    assert empty_set_notes(path.read_text()) == []


def cube_predicates_beside_generation(*sources: str) -> list[str]:
    """``Class.method`` for each ``contains_cube`` or ``measure_in_cube``
    that a subclass of ``ExactRegion``, direct or not, defines in the
    modules ``sources``."""
    classes = [n for s in sources for n in ast.walk(ast.parse(s))
               if isinstance(n, ast.ClassDef)]
    regions, grown = {"ExactRegion"}, None
    while grown != regions:
        grown = set(regions)
        regions |= {c.name for c in classes if any(
            getattr(b, "id", getattr(b, "attr", None)) in grown
            for b in c.bases)}
    return [f"{c.name}.{fn.name}" for c in classes
            if c.name in regions - {"ExactRegion"} for fn in c.body
            if isinstance(fn, ast.FunctionDef)
            and fn.name in ("contains_cube", "measure_in_cube")]


def test_detects_a_cube_predicate_beside_generation():
    base = ("class ExactRegion:\n    def contains_cube(self, c): pass\n"
            "class Box(ExactRegion):\n    def _generation(self, g, i): pass\n"
            "    def contains_cube(self, c): pass\n")
    more = ("class Thin(Box):\n    def measure_in_cube(self, c): pass\n"
            "class Other:\n    def contains_cube(self, c): pass\n"
            "class Cells(coverings.ExactRegion):\n"
            "    def measure_in_cube(self, c): pass\n")
    assert cube_predicates_beside_generation(base, more) == [
        "Box.contains_cube", "Thin.measure_in_cube", "Cells.measure_in_cube"]


def test_exact_regions_answer_through_generation_alone():
    # ExactRegion asks every cube question as a batch of one through the
    # subclass's _generation; a scalar predicate beside it is a second
    # path to the same answer
    assert cube_predicates_beside_generation(
        *(p.read_text() for p in MODULES)) == []


def check_tolerances(source: str) -> list[str]:
    """``check(parameter)`` for every parameter named ``tol`` or ``slack``
    of an exported check.  A check is a function in ``__all__`` whose name
    ends in ``_check`` or whose return annotation names ``CheckReport``;
    kernels that return data and no verdict, such as ``contact_set(tol)``,
    are out of scope."""
    tree = ast.parse(source)
    names = set(exported(tree))
    bad = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        returns = ast.unparse(fn.returns) if fn.returns else ""
        if fn.name.endswith("_check") or "CheckReport" in returns:
            a = fn.args
            bad += [f"{fn.name}({p.arg})"
                    for p in a.posonlyargs + a.args + a.kwonlyargs
                    if p.arg in ("tol", "slack")]
    return bad


def test_detects_a_check_tolerance():
    src = ("__all__ = ['a_check', 'b', 'kernel', 'c_check']\n"
           "def a_check(u, tol=0.0): pass\n"
           "def b(u, *, slack=0.1) -> tuple[int, CheckReport]: pass\n"
           "def kernel(u, tol=None) -> ContactSet: pass\n"
           "def c_check(u, p=2.0): pass\n"
           "def hidden_check(u, tol=0.0): pass\n")
    assert check_tolerances(src) == ["a_check(tol)", "b(slack)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_checks_take_no_tolerance(path):
    # a check's tolerance and slack are literals in its body, recorded in
    # its report, and not knobs that a caller can turn
    assert check_tolerances(path.read_text()) == []


def _module_bindings(tree: ast.Module):
    """``(name, line)`` of every def, class and assigned name at module
    level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def unread_private_names(module: str, source: str,
                         others: list[str]) -> list[str]:
    """Private module-level names of ``module`` that its own source never
    loads and that no other source imports from it or reads as
    ``module._name``."""
    loaded = {n.id for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for other in others:
        for n in ast.walk(ast.parse(other)):
            if isinstance(n, ast.ImportFrom) \
                    and (n.module or "").split(".")[-1] == module:
                loaded |= {a.name for a in n.names}
            elif isinstance(n, ast.Attribute) and module in (
                    getattr(n.value, "id", None),
                    getattr(n.value, "attr", None)):
                loaded.add(n.attr)
    return [f"{name} (line {line})"
            for name, line in _module_bindings(ast.parse(source))
            if name.startswith("_") and not name.endswith("__")
            and name not in loaded]


def test_detects_an_unread_private_name():
    src = ("_A = 1\n_B: int = 2\n_C, _D = 3, 4\n_E = 5\n"
           "def _f():\n    return _B\n"
           "class _K:\n    pass\n__all__ = []\n")
    others = ["from pkg.mod import _C\n",
              "from . import mod\nmod._D\nother._E\n_A = 0\n_A\n"]
    assert unread_private_names("mod", src, others) == [
        "_A (line 1)", "_E (line 4)", "_f (line 5)", "_K (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    # a leftover constant that nothing reads passes every other test
    others = [p.read_text() for d in ("src", "tests", "perfbench")
              for p in (REPO / d).rglob("*.py") if p != path]
    assert unread_private_names(path.stem, path.read_text(), others) == []


def hand_written_distances(source: str) -> list[int]:
    """Lines that take a Euclidean norm or a squared distance over an axis
    by hand: ``linalg.norm(..., axis=...)``, ``np.sum(... ** 2, axis=-1)``
    or ``(... ** 2).sum(axis=-1)``.  Each is ``grid._sq_dist``'s job; the
    norm of one vector, ``np.linalg.norm(v)``, is not."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        f, args = node.func, list(node.args)
        kw = {k.arg: k.value for k in node.keywords}
        if f.attr == "norm" and ast.unparse(f.value).endswith("linalg"):
            if "axis" in kw or len(args) >= 3:
                bad.append(node.lineno)
        elif f.attr == "sum":
            if ast.unparse(f.value) not in ("np", "numpy"):
                args.insert(0, f.value)         # the method form
            axis = kw.get("axis", args[1] if len(args) > 1 else None)
            if (args and isinstance(args[0], ast.BinOp)
                    and isinstance(args[0].op, ast.Pow)
                    and ast.unparse(args[0].right) == "2"
                    and axis is not None and ast.unparse(axis) == "-1"):
                bad.append(node.lineno)
    return bad


def test_detects_a_hand_written_distance():
    src = ("np.linalg.norm(p - c, axis=-1)\nnp.linalg.norm(v)\n"
           "np.sum((p - c) ** 2, axis=-1)\nnp.sum(p ** 2, -1)\n"
           "((p - c) ** 2).sum(axis=-1)\nnp.sum(p ** 2)\n"
           "np.sum(p ** 2, axis=0)\nlinalg.norm(p, 2, -1)\n"
           "np.sum(np.abs(p), axis=-1)\nnp.linalg.norm(p, axis=(0, 1))\n")
    assert hand_written_distances(src) == [1, 3, 4, 5, 8, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_distances_go_through_one_kernel(path):
    # one module decides how a distance is computed: axis by axis, with
    # the additions of np.sum and no (..., dim) temporary
    assert hand_written_distances(path.read_text()) == []


def test_the_distance_kernel_is_defined_once():
    assert [p.name for p in MODULES
            if re.search(r"^def _sq_dist\(", p.read_text(), re.M)] \
        == ["grid.py"]


AXIS_REDUCTIONS = {"sum", "prod", "min", "max", "any", "all", "argmin",
                   "argmax", "cumsum", "reduce", "accumulate"}
# the reductions along a last axis that is long, not a coordinate axis of
# 1-3 entries: the function that makes each, and the axis's length
LONG_AXES = {
    "_min_plus_pass": "a grid line of n nodes",
    "contact_set": "a block of _ROW_BLOCK rows",
}


def last_axis_reductions(source: str) -> list[tuple[str | None, int]]:
    """``(function, line)`` of each reduction or scan along ``axis=-1``:
    ``x.sum(axis=-1)``, ``x.min(-1)``, ``np.prod(x, axis=-1)``,
    ``np.add.reduce(x, -1)`` and the rest of ``AXIS_REDUCTIONS``.  Over a
    coordinate axis of 1-3 entries numpy reduces 25-70 times slower than
    it applies the ufunc elementwise, which is ``grid._fold``'s job."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in AXIS_REDUCTIONS):
                args = list(child.args)
                if ast.unparse(child.func.value) in ("np", "numpy"):
                    args = args[1:]             # np.sum(x, axis): x first
                axis = {k.arg: k.value for k in child.keywords}.get(
                    "axis", args[0] if args else None)
                if axis is not None and ast.unparse(axis) == "-1":
                    found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_detects_a_last_axis_reduction():
    src = ("def f(x):\n"
           "    a = x.sum(axis=-1) + np.prod(x, axis=-1)\n"
           "    b = np.max(x, -1), x.argmin(-1), np.cumsum(x, axis=-1)\n"
           "    c = np.add.reduce(x, axis=-1), x.any(axis=-1)\n"
           "    return x.sum(axis=0), np.min(x), np.stack(x, axis=-1)\n"
           "y = np.all(x, axis=-1)\n"
           "class C:\n"
           "    def g(self, x):\n"
           "        return np.sum(x, 0) + x.max(axis=1)\n"
           "    def h(self, x):\n"
           "        return x.min(axis=-1)\n")
    assert last_axis_reductions(src) == [
        ("f", 2), ("f", 2), ("f", 3), ("f", 3), ("f", 3), ("f", 4),
        ("f", 4), (None, 6), ("h", 11)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_short_axes_fold(path):
    # a reduction over a last axis goes through grid._fold, column by
    # column, unless that axis is one of LONG_AXES
    assert [f for f in last_axis_reductions(path.read_text())
            if f[0] not in LONG_AXES] == []


def test_long_axes_name_what_exists():
    # an entry whose reduction is gone is stale
    found = {f for p in MODULES for f, _ in last_axis_reductions(
        p.read_text())}
    assert sorted(set(LONG_AXES) - found) == []


def hand_written_oscillations(source: str) -> list[int]:
    """Lines outside ``def oscillation`` that take ``x.max() - x.min()``
    or ``np.max(x) - np.min(x)`` of one array ``x``.  Each is
    ``grid.oscillation``'s job, which also says when its region holds
    no node."""
    def extreme(node, which):
        # the array whose max or min the call takes, else None
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == which):
            return None
        if ast.unparse(node.func.value) in ("np", "numpy"):
            return ast.unparse(node.args[0]) if node.args else None
        return ast.unparse(node.func.value)

    tree = ast.parse(source)
    skip = {id(n) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "oscillation"
            for n in ast.walk(fn)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in skip and isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and extreme(node.left, "max") is not None
        and extreme(node.left, "max") == extreme(node.right, "min"))


def test_detects_a_hand_written_oscillation():
    src = ("a = v.max() - v.min()\nb = u[m].max() - u[m].min()\n"
           "c = np.max(v) - np.min(v)\nd = v.max() - w.min()\n"
           "e = v.max() - v.max()\nf = max(v) - min(v)\n"
           "def oscillation(v):\n    return v.max() - v.min()\n"
           "g = float(x.values.max() - x.values.min())\n")
    assert hand_written_oscillations(src) == [1, 2, 3, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_oscillations_go_through_one_function(path):
    assert hand_written_oscillations(path.read_text()) == []


def scipy_imports(source: str) -> list[int]:
    """Lines that import ``scipy`` or one of its modules (the probes below
    see a dynamic import too).  The package runs on numpy alone: the ring
    and the finite stencils go through ``operators._apply``, the spline
    through ``operators._refine`` and the lattice distance through
    ``contact._sq_index_distance``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "scipy" for a in node.names):
                bad.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if not node.level and (node.module or "").split(".")[0] == "scipy":
                bad.append(node.lineno)
    return sorted(bad)


def test_detects_a_scipy_detour():
    src = ("import scipy\nimport numpy, scipy.ndimage\n"
           "from scipy import ndimage\nfrom scipy.spatial import cKDTree\n"
           "import scipyx\nfrom .scipy import x\nnp.convolve(a, b)\n"
           "ndimage.distance_transform_edt(m)\nimport numpy as scipy\n")
    assert scipy_imports(src) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_lattice_jobs_stay_off_scipy_detours(path):
    # scipy's versions stay in the tests, as the oracles of the package's
    # own ring, tap sum, spline and distance transform
    assert scipy_imports(path.read_text()) == []


def scipy_modules_after(code: str, blocked: bool = False) -> object:
    """What ``code``, run in a fresh interpreter with the package on its
    path, prints on its last line, read as JSON; ``loaded()`` in it lists
    the ``scipy`` modules imported so far.  With ``blocked`` every
    ``import scipy`` in that interpreter raises ``ImportError``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    block = "sys.modules['scipy'] = None\n" if blocked else ""
    prelude = ("import json, sys\n" + block
               + "def loaded():\n"
               "    return sorted(m for m in sys.modules\n"
               "                  if m == 'scipy' or m.startswith('scipy.'))\n")
    out = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


# the two paths that only the benchmark takes: analysis-kernels' level-2
# fractional Laplacian on B_1/4, and envelope-fields' Aleksandrov check on
# a sublevel domain, which has no analytic boundary distance
BENCHMARK_PATHS = (
    "import numpy as np\n"
    "import ellipticlab as el\n"
    "g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)\n"
    "wave = el.ScalarField.from_function(g, lambda p: np.cos(3 * p[..., 0]))\n"
    "el.fractional_laplacian(wave, el.FractionalParams(1.0, 2),\n"
    "                        eval_region=el.Ball((0.0, 0.0), 0.25))\n"
    "bowl = el.ScalarField.from_function(\n"
    "    g, lambda p: np.sum(p ** 2, axis=-1) - 1.0 + 0.1 * wave.values)\n"
    "assert el.aleksandrov_check(bowl, el.SubLevel(bowl, 0.0)).passed\n")


def test_import_leaves_scipy_signal_out():
    # importing scipy.signal takes about a second and scipy.ndimage about
    # 0.4 s, on every start-up
    for module in ("ellipticlab", "ellipticlab.cli"):
        assert scipy_modules_after(
            f"import {module}\nprint(json.dumps(loaded()))") == [], module


def test_suites_that_never_call_scipy_leave_it_unimported():
    # no suite, not `full`, and neither benchmark-only path loads scipy
    code = ("from ellipticlab import cli\n"
            "from ellipticlab.suites import SUITES\n"
            "seen = {}\n"
            "for s in [*SUITES, 'full']:\n"
            "    assert cli.main(['verify', s]) == 0\n"
            "    seen[s] = loaded()\n"
            + BENCHMARK_PATHS +
            "seen['benchmark-only paths'] = loaded()\n"
            "print(json.dumps(seen))\n")
    seen = scipy_modules_after(code)
    assert len(seen) == 9
    assert seen == {s: [] for s in seen}


def test_verify_full_runs_with_scipy_unimportable(tmp_path):
    from verdict_baseline import BASELINE, moved_verdicts
    out = tmp_path / "full.json"
    code = (f"code = cli.main(['verify', 'full', '--out', {str(out)!r}])\n"
            + BENCHMARK_PATHS + "print(json.dumps(code))\n")
    assert scipy_modules_after(
        "from ellipticlab import cli\n" + code, blocked=True) == 0
    assert moved_verdicts(json.loads(BASELINE.read_text()),
                          json.loads(out.read_text())) == []


def test_verify_full_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma takes about 30 ms to import; np.unique and np.quantile
    # import it on their first call
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\nfrom ellipticlab.cli import main\n"
            f"main(['verify', 'full', '--out', {str(tmp_path / 'f.json')!r}])\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.splitlines()[-1] == "False"


def test_the_suites_quantile_is_numpys():
    import numpy as np
    from ellipticlab.suites import _quantile
    rng = np.random.default_rng(56)
    for n in [1, 2, 3, 7, 10, 101, *rng.integers(1, 500, 40).tolist()]:
        vals = rng.normal(size=n) * rng.uniform(0.01, 100.0)
        for q in (0.0, 0.7, 0.5, 1.0, *rng.uniform(size=5)):
            assert _quantile(vals, q) == np.quantile(vals, q)
    ties = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
    for q in np.linspace(0.0, 1.0, 21):
        assert _quantile(ties, q) == np.quantile(ties, q)


def test_contact_kernels_stay_blocked():
    # an unblocked centers x nodes broadcast would take about 100 MB here,
    # and an unblocked min-plus pass (every target against every node of
    # every line) 136 MB
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
        low = el.inf_convolution(fld, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) >= 190 and rep.passed
    assert np.all(low.values <= fld.values)
    assert peak < 16 * 2 ** 20


def test_contact_set_stays_blocked_for_many_centers():
    # about 3,200 centers at n = 257: the centers x slabs bound table
    # would take 6.6 MB unblocked, and its gathers twice that; blocked,
    # the search peaks near 7 MB, so the cap is below the 16 MB of the
    # case above
    import numpy as np
    import ellipticlab as el
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 128)
    fld = el.ScalarField.from_function(
        g, lambda p: np.sum(p ** 2, axis=-1) - 1.0)
    fam = el.ParaboloidFamily(opening=8.0,
                              center_set=el.Ball((0.0, 0.0), 1 / 4))
    tracemalloc.start()
    try:
        cs = el.contact_set(fld, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) >= 3000
    assert peak < 12 * 2 ** 20


def test_holder_seminorms_stay_blocked():
    # every pair of the 4,225 nodes at n = 65: one (4225, 4225) array of
    # them would take 136 MB; the tile search's bound blocks and batches
    # peak near 0.9 MB, and each ball of the weighted seminorm is small
    import numpy as np
    import ellipticlab as el
    g = el.Grid.cover((0.0, 0.0), 1.0, 1 / 32)
    fld = el.ScalarField.from_function(
        g, lambda p: np.cos(3 * p[..., 0]) * np.sin(2 * p[..., 1]))
    for seminorm in (lambda: el.holder_seminorm(fld, 0.5),
                     lambda: el.weighted_seminorm(fld, 0.5, 0.5,
                                                  el.Ball((0.0, 0.0), 0.75))):
        tracemalloc.start()
        try:
            s = seminorm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s > 0
        assert peak < 2 ** 20


def walk_peak(dim):
    """The probabilistic suite's walk at h = 1/12 in ``dim`` dimensions:
    its estimate and the peak of memory it allocated."""
    import ellipticlab as el
    h = 1 / 12
    g = el.Grid.cover((0.0,) * dim, 1.0 + 2 * h, h)
    cfg = el.WalkConfig(n_samples=20_000, seed=11)
    zeros = (0.0,) * (dim - 1)
    tracemalloc.start()
    try:
        est, _, _ = el.random_walk_hitting(g, (0.0,) * dim,
                                           el.ClosedBall((0.3,) + zeros, 0.2),
                                           el.Ball((0.0,) * dim, 1.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return est, peak


def test_walk_stays_blocked():
    # a chunk of 2^15 walkers holds an (8, chunk) uint8 draw of pair codes
    # (256 KB) and the walkers' positions (int64 until the first gather,
    # 256 KB), for the walkers still walking, beside the transition table
    # of M^2 int32 per lattice node (M = 2 dim moves); no (chunk, 16)
    # int64 path.  The 31^2-node lattice's table is 62 KB; about 1.3 MB
    # at peak
    est, peak = walk_peak(2)
    assert 0.6 < est < 0.7
    assert peak < 16 * 2 ** 20


def test_walk_stays_blocked_in_3d():
    # the 31^3-node lattice's table of 36 int32 per node is 4.3 MB; about
    # 5.7 MB at peak
    est, peak = walk_peak(3)
    assert 0.45 < est < 0.52
    assert peak < 8 * 2 ** 20


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


# The probe runs roots scripts one after another in one fresh interpreter
# under a call tracer and writes, as JSON, per kind of root, the ``[file,
# first line]`` of every code object of the package that the kind's script
# entered, and the ``[module, class]`` of every package class of which it
# made an instance, of the class or of a subclass.  It traces call events
# only: the tracer returns None, so no line events.  Dataclass
# ``__init__``s are generated code outside the package, so an instance is
# seen as the ``self`` of any ``__init__`` frame.
TRACER = r'''
import json, os, sys

def tracer(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))
    if code.co_name == "__init__" and code.co_argcount:
        made.add(type(frame.f_locals[code.co_varnames[0]]))

package, out, *kinds = sys.argv[1:]
name = os.path.basename(package)
trace = {}
for kind in kinds:
    entered, made = set(), set()
    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        with open(kind + ".py") as fh:
            exec(compile(fh.read(), kind + ".py", "exec"),
                 {"__name__": "__roots__"})
    finally:
        sys.settrace(before)
    trace[kind] = {
        "entered": sorted({e for e in entered
                           if os.path.dirname(e[0]) == package}),
        "made": sorted({(c.__module__, c.__name__) for t in made
                        for c in t.__mro__
                        if c.__module__.split(".")[0] == name})}
with open(out, "w") as fh:
    json.dump(trace, fh)
'''


def run_roots(package: Path, roots: dict[str, str], tmp: Path) -> dict:
    """Run each kind's roots source of ``roots``, in order, under the
    tracer, with ``tmp`` as the working directory and ``package``'s parent
    on the path; returns the trace of each kind."""
    for kind, source in roots.items():
        (tmp / f"{kind}.py").write_text(source)
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    subprocess.run([sys.executable, "-c", TRACER, str(package),
                    str(tmp / "trace.json"), *roots],
                   env=env, cwd=tmp, check=True, capture_output=True,
                   text=True, timeout=600)
    return json.loads((tmp / "trace.json").read_text())


def _defs(node: ast.AST, prefix: str = ""):
    """``(dotted name, node)`` of every function, method, nested function
    and lambda under a node; a lambda is named by its first line, which
    is what the tracer records of its code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _defs(child, prefix + child.name + ".")
        else:
            if isinstance(child, ast.Lambda):
                yield f"{prefix}<lambda line {child.lineno}>", child
            yield from _defs(child, prefix)


def _is_interface(fn: ast.FunctionDef | ast.Lambda) -> bool:
    """A body that only raises NotImplementedError, after an optional
    docstring: an interface declaration, not code to run."""
    if isinstance(fn, ast.Lambda):
        return False
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    exc = getattr(body[0], "exc", None) if len(body) == 1 else None
    return getattr(getattr(exc, "func", exc), "id", None) \
        == "NotImplementedError"


def unused(package: Path, *traces: dict) -> list[str]:
    """Defs of the package that no root of the traces entered, and
    exported classes of which none made an instance; with no trace, every
    def and exported class."""
    entered = {tuple(e) for t in traces for e in t["entered"]}
    made = {tuple(m) for t in traces for m in t["made"]}
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, fn in _defs(tree):
            # a decorated function's code starts at its first decorator
            lines = {fn.lineno} | {d.lineno for d in
                                   getattr(fn, "decorator_list", ())}
            if not _is_interface(fn) and not any((str(path), n) in entered
                                             for n in lines):
                out.append(name)
        module = f"{package.name}.{path.stem}"
        classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
        out += [c for c in exported(tree)
                if c in classes and (module, c) not in made]
    return sorted(out)


def test_detects_code_no_root_runs(tmp_path):
    package = tmp_path / "lib"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "import functools\nfrom dataclasses import dataclass\n"
        "__all__ = ['used', 'cached', 'unused', 'Base', 'Child', 'Never',"
        " 'Interface']\n"
        "def used():\n    def inner():\n        return 1\n    return inner()\n"
        "@functools.lru_cache\ndef cached():\n    return 2\n"
        "def unused():\n    return 0\n"
        "class Base:\n    def method(self):\n        return 1\n"
        "@dataclass\nclass Child(Base):\n    x: int = 0\n"
        "class Never:\n    def __init__(self):\n        pass\n"
        "class Interface:\n    def hook(self):\n"
        "        '''Subclasses implement this.'''\n"
        "        raise NotImplementedError\n"
        "TABLE = {'run': lambda: 1,\n"
        "         'skip': lambda: 2}\n"
        "def order(xs):\n    return sorted(xs, key=lambda x: -x)\n")
    roots = ("from lib import mod\n"
             "mod.used()\nmod.cached()\nmod.Child().method()\n"
             "mod.TABLE['run']()\n")
    trace = run_roots(package.resolve(), {"roots": roots},
                      tmp_path.resolve())
    assert unused(package.resolve(), trace["roots"]) == [
        "<lambda line 27>", "Interface", "Never", "Never.__init__", "order",
        "order.<lambda line 29>", "unused"]


# The product roots: what a user runs (the CLI verbs, `verify full`
# covering every suite, and the README tour).
PRODUCT_ROOTS = '''
import contextlib, io
from ellipticlab import cli

verbs = [["verify", "full", "--out", "full.json"],
         ["verify", "probabilistic", "--h", "0.125", "--n-samples", "2000",
          "--out", "walk.json"],
         ["report", "merge", "full.json", "walk.json", "--out", "merged.json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(v) for v in verbs]
    for block in BLOCKS:
        exec(block, {"__name__": "__readme__"})
assert codes == [0] * len(verbs), codes
'''

# The benchmark roots: what the benchmark times beyond `verify`, one pass of
# each of these workloads' task lists (verify-suites runs `verify` on each
# suite, which `verify full` covers).
BENCHMARK_ROOTS = '''
import importlib, sys
sys.path.insert(0, PERFBENCH)
import workloads

package = importlib.import_module(PACKAGE)
for name in WORKLOADS:
    for task in workloads.WORKLOADS[name](package, 0, "."):
        task.inspect(task.call())
'''


@pytest.fixture(scope="module")
def root_traces(tmp_path_factory):
    product = (f"BLOCKS = {python_blocks(README.read_text())!r}\n"
               + PRODUCT_ROOTS)
    benchmark = (f"PERFBENCH = {str(REPO / 'perfbench')!r}\n"
                 f"PACKAGE = {PACKAGE.name!r}\n"
                 "WORKLOADS = ('envelope-fields', 'analysis-kernels')\n"
                 + BENCHMARK_ROOTS)
    return run_roots(PACKAGE, {"product": product, "benchmark": benchmark},
                     tmp_path_factory.mktemp("roots"))


@pytest.fixture(scope="module")
def unused_by_roots(root_traces):
    return unused(PACKAGE, *root_traces.values())


# Kept on purpose although no root needs them: defs (by name, or
# ``Class.method``) and parameters or modes (``callee(parameter)``) that
# no call outside the tests sets.
ALLOWLIST = {
    "Cube.boundary_distance": "without it, aleksandrov_check silently "
                              "switches to the lattice distance for cube "
                              "domains, and weighted_seminorm rejects them",
    "mean_value_check(p)": "an exponent that picks the estimate: the "
                           "forcing's L^p norm",
    "weak_harnack_laplacian_check(p)": "an exponent that picks the "
                                       "estimate, as in mean_value_check",
    "local_max_check(p)": "an exponent that picks the estimate, as in "
                          "mean_value_check",
    "local_max_check(eps)": "an exponent that picks the estimate, as in "
                            "mean_value_check",
    "fractional_laplacian(tail)": "the far field beyond the quadrature, "
                                  "whose kind='power', with its amplitude "
                                  "and exponent, ROADMAP item 3 needs",
    "TailSpec(kind)": "kind='power', with its amplitude and exponent, "
                      "which ROADMAP item 3 needs",
    "TailSpec(amplitude)": "the bound |u| <= amplitude |y|^-exponent of "
                           "kind='power', which ROADMAP item 3 needs",
    "TailSpec(exponent)": "the bound |u| <= amplitude |y|^-exponent of "
                          "kind='power', which ROADMAP item 3 needs",
}


def test_every_def_is_run_by_a_root(unused_by_roots):
    assert [n for n in unused_by_roots if n not in ALLOWLIST] == []


# Defs that only the benchmark roots enter, each with the perfbench tasks
# that call it.  They back no verdict and go once the benchmark stops
# timing them; the list may only shrink.
BENCHMARK_ONLY = {
    "holder_seminorm": "analysis-kernels holder_seminorm.n33, .n65",
    "_pair_sup": "analysis-kernels holder_seminorm.n33, .n65",
    "_tiles": "analysis-kernels holder_seminorm.n33, .n65",
    "_tile_bounds": "analysis-kernels holder_seminorm.n33, .n65",
    "_tile_bounds.gap2": "analysis-kernels holder_seminorm.n33, .n65",
    "_quotients": "analysis-kernels holder_seminorm.n33, .n65",
    "_distance_power": "analysis-kernels holder_seminorm.n33, .n65 and "
                       "weighted_seminorm.n33, .n65",
    "weighted_seminorm": "analysis-kernels weighted_seminorm.n33, .n65",
    "_window_columns": "analysis-kernels weighted_seminorm.n33, .n65",
    "hardy_littlewood_maximal": "analysis-kernels "
                                "hardy_littlewood_maximal.n33, .n65",
    "solve_poisson": "analysis-kernels solve_poisson.n65, .n129",
    "_sq_index_distance": "envelope-fields aleksandrov_check.* (a SubLevel "
                          "domain)",
    "Region.boundary_distance": "envelope-fields aleksandrov_check.* (a "
                                "SubLevel domain)",
}


def reach_faults(package: Path, trace: dict,
                 benchmark_only: dict[str, str]) -> list[str]:
    """What the reach rule rejects, from a trace of ``product`` and
    ``benchmark`` roots: a def or exported class that only benchmark roots
    reach and ``benchmark_only`` does not list, and an entry of
    ``benchmark_only`` whose def is gone, that no root reaches, or that a
    product root reaches."""
    product = set(unused(package, trace["product"]))
    nowhere = set(unused(package, trace["product"], trace["benchmark"]))
    known = set(unused(package))
    faults = [f"{n}: only a benchmark root reaches it"
              for n in sorted(product - nowhere - set(benchmark_only))]
    for n in benchmark_only:
        if n not in known:
            faults.append(f"{n}: gone")
        elif n in nowhere:
            faults.append(f"{n}: no root reaches it")
        elif n not in product:
            faults.append(f"{n}: a product root reaches it")
    return faults


def test_detects_code_only_the_benchmark_runs(tmp_path):
    package = tmp_path / "lib"
    package.mkdir()
    (package / "__init__.py").write_text("from . import mod\n")
    (package / "mod.py").write_text(
        "def verdict():\n    return 1\n"
        "def kernel():\n    return 2\n"
        "def timed():\n    return 3\n"
        "def shared():\n    return 4\n"
        "def idle():\n    return 5\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "workloads.py").write_text(
        "from collections import namedtuple\n"
        "Task = namedtuple('Task', 'call inspect')\n"
        "def build(lib, seed, tmpdir):\n"
        "    return [Task(f, print) for f in (lib.mod.kernel, lib.mod.timed,\n"
        "                                     lib.mod.shared)]\n"
        "WORKLOADS = {'kernels': build}\n")
    roots = {"product": "from lib import mod\nmod.verdict()\nmod.shared()\n",
             "benchmark": (f"PERFBENCH = {str(bench)!r}\nPACKAGE = 'lib'\n"
                           "WORKLOADS = ('kernels',)\n" + BENCHMARK_ROOTS)}
    trace = run_roots(package.resolve(), roots, tmp_path.resolve())
    listed = {"timed": "kernels", "shared": "kernels", "idle": "kernels",
              "gone": "kernels"}
    assert reach_faults(package.resolve(), trace, listed) == [
        "kernel: only a benchmark root reaches it",
        "shared: a product root reaches it",
        "idle: no root reaches it",
        "gone: gone"]


def test_only_listed_defs_are_benchmark_only(root_traces):
    # a def that only the benchmark reaches backs no verdict
    assert reach_faults(PACKAGE, root_traces, BENCHMARK_ONLY) == []


def def_lines(source: str) -> dict[str, int]:
    """The lines of each def of a module, named as by ``_defs``, from its
    first decorator to its last line; a nested def's lines count in its
    owner's too."""
    return {name: fn.end_lineno - min(
                [fn.lineno] + [d.lineno for d in
                               getattr(fn, "decorator_list", ())]) + 1
            for name, fn in _defs(ast.parse(source))}


def test_counts_def_lines():
    src = ("def f():\n    def g():\n        pass\n    return g\n"
           "class K:\n    @staticmethod\n    def m():\n        pass\n")
    assert def_lines(src) == {"f": 4, "f.g": 2, "K.m": 3}


def benchmark_only_debt() -> str:
    """One line per ``BENCHMARK_ONLY`` def: its name, its line count and
    the perfbench tasks that call it, tab-separated."""
    lines = {}
    for path in MODULES:
        lines.update(def_lines(path.read_text()))
    return "".join(f"{name}\t{lines[name]}\t{task}\n"
                   for name, task in BENCHMARK_ONLY.items())


def test_benchmark_only_debt_has_a_line_per_entry():
    rows = [r.split("\t") for r in benchmark_only_debt().splitlines()]
    assert [r[0] for r in rows] == list(BENCHMARK_ONLY)
    assert all(int(r[1]) > 0 for r in rows)


def test_allowlisted_defs_are_unused(unused_by_roots):
    # an entry that a root now runs, or whose def is gone, is stale
    assert [k for k in ALLOWLIST
            if "(" not in k and k not in unused_by_roots] == []


def test_allowlist_names_what_exists():
    modules = [ast.parse(p.read_text()) for p in MODULES]
    names = {f"{owner}({p})"
             for owner, _, p, _, _ in optional_parameters(modules)}
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


def _optional(fn: ast.FunctionDef,
              skip: int) -> list[tuple[str, int | None, ast.expr]]:
    """``(name, position, default)`` of the parameters with a default, the
    first ``skip`` positional ones left out; keyword-only ones have no
    position."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - skip, a.defaults[i - first])
           for i, p in enumerate(pos) if i >= first]
    out += [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def optional_parameters(modules: list[ast.Module]) -> list[tuple]:
    """Optional parameters of the public functions, methods and
    dataclasses, as ``(owner, callees, parameter, position, default)``.
    A call reaches a parameter by one of the callee names: the function's
    or method's own name, or for an ``__init__`` or a dataclass field the
    name of its class or of a subclass that defines no ``__init__``."""
    out, inits, bases = [], {}, {}
    for tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                out += [(node.name, (node.name,), *param)
                        for param in _optional(node, 0)]
            if not isinstance(node, ast.ClassDef) \
                    or node.name.startswith("_"):
                continue
            bases[node.name] = [b.id for b in node.bases
                                if isinstance(b, ast.Name)]
            if _is_dataclass(node):
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign)
                          and isinstance(n.target, ast.Name)]
                inits[node.name] = [(n.target.id, i, n.value)
                                    for i, n in enumerate(fields) if n.value]
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    inits[node.name] = _optional(fn, 1)
                elif not fn.name.startswith("_"):
                    out += [(fn.name, (fn.name,), *param) for param
                            in _optional(fn, 0 if static else 1)]
    sharing = {}
    for cls in bases:
        owner = cls
        while owner not in inits and bases.get(owner):
            owner = bases[owner][0]
        sharing.setdefault(owner, []).append(cls)
    out += [(owner, tuple(sharing.get(owner, [owner])), *param)
            for owner, params in inits.items() for param in params]
    return out


def set_by_calls(trees: list[ast.AST]) -> dict[tuple, set[str]]:
    """The arguments that calls in the trees pass, by ``(callee,
    keyword)`` and ``(callee, position)``, the callee by its name or
    attribute name, each as ``ast.dump`` writes it; a ``*`` or ``**``
    argument sets every position or keyword, written ``(callee, '*')``
    and ``(callee, '**')``."""
    out = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            for i, a in enumerate(call.args):
                key = callee, "*" if isinstance(a, ast.Starred) else i
                out.setdefault(key, set()).add(ast.dump(a))
            for k in call.keywords:
                out.setdefault((callee, k.arg or "**"), set()).add(
                    ast.dump(k.value))
    return out


def unset_parameters(modules: list[ast.Module],
                     trees: list[ast.AST]) -> list[str]:
    """Optional parameters of the modules that no call in the trees sets;
    an argument written as the parameter's default does not set it."""
    calls = set_by_calls(trees)
    return sorted({f"{owner}({p})" for owner, callees, p, i, default
                   in optional_parameters(modules)
                   if not any((c, "*") in calls or (c, "**") in calls
                              or (calls.get((c, p), set())
                                  | calls.get((c, i), set()))
                              - {ast.dump(default)} for c in callees)})


def test_detects_an_unset_parameter():
    lib = ("def f(a, b=1, *, c=2, d=3): pass\n"
           "def _g(x=0): pass\n"
           "class K:\n    def __init__(self, p=0, q=1): pass\n"
           "    def m(self, r=0, s=1): pass\n"
           "class L(K): pass\n"
           "@dataclass\nclass Cfg:\n    tol: float\n    cap: int = 9\n"
           "    seed: int = 0\n"
           "def h(u=0, v=0): pass\n"
           "def e(t=1.0, *, k='zero', j=0): pass\n")
    # e's t and k are passed only as their defaults, j also as 2
    use = ("f(0, 5, d=1)\nL(1)\nk.m(s=2)\nCfg(1e-3, 4)\n"
           "def w(**kw):\n    return h(**kw)\n"
           "e(1.0, k='zero', j=0)\ne(j=2)\n")
    assert unset_parameters([ast.parse(lib)], [ast.parse(use)]) == [
        "Cfg(seed)", "K(q)", "e(k)", "e(t)", "f(c)", "m(r)"]


# the directories whose calls count as setting a parameter, beside the
# README's tour; a parameter that only tests set is a literal in disguise
SETTERS = ("src", "perfbench", "tools")


def setting_trees(repo: Path) -> list[ast.AST]:
    """The modules under ``SETTERS`` of ``repo`` and the python blocks of
    its README, parsed."""
    trees = [ast.parse(p.read_text()) for d in SETTERS
             for p in (repo / d).rglob("*.py")]
    return trees + [ast.parse(b) for b in
                    python_blocks((repo / "README.md").read_text())]


def test_a_parameter_only_tests_set_is_unset(tmp_path):
    for d, call in (("src", "f(1, a=2)\n"), ("tests", "f(1, b=2)\n"),
                    ("perfbench", "f(1, c=2)\n"), ("tools", "f(1, 2)\n")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "use.py").write_text(call)
    (tmp_path / "README.md").write_text("```python\nf(1, e=3)\n```\n")
    lib = "def f(u, d=0, *, a=0, b=0, c=0, e=0, g=0): pass\n"
    assert unset_parameters([ast.parse(lib)], setting_trees(tmp_path)) == [
        "f(b)", "f(g)"]


def test_every_optional_parameter_is_set():
    # a default that no call outside the tests overrides is a literal in
    # disguise
    modules = [ast.parse(p.read_text()) for p in MODULES]
    unset = unset_parameters(modules, setting_trees(REPO))
    assert [p for p in unset if p not in ALLOWLIST] == []
    # an entry that a call now sets, or whose parameter is gone, is stale
    assert [k for k in ALLOWLIST if "(" in k and k not in unset] == []


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


def _parameter_count(fn: ast.FunctionDef, skip: int) -> int:
    """Parameters of a def, the first ``skip`` positional ones left out;
    ``*args`` and ``**kw`` count one each."""
    a = fn.args
    return (len(a.posonlyargs + a.args) - skip + len(a.kwonlyargs)
            + (a.vararg is not None) + (a.kwarg is not None))


def settable_ledger(modules: list[ast.Module]) -> list[tuple[str, int]]:
    """``(name, settable values)`` of every name in a module's ``__all__``,
    module by module in ``__all__`` order: the parameters of a function,
    and those of a class's constructor (methods are not counted); any
    other name has none.  A class's constructor
    is its own ``__init__``, less ``self``; else, for a dataclass, its
    fields and those of its dataclass bases; else its first package
    base's.  So a subclass counts what it inherits: ``ClosedBall(Ball)``
    counts ``center`` and ``radius``, as ``Ball`` does."""
    classes = {n.name: n for tree in modules for n in tree.body
               if isinstance(n, ast.ClassDef)}

    def base(cls):
        return next((classes[b.id] for b in cls.bases
                     if getattr(b, "id", None) in classes), None)

    def fields(cls):
        own = sum(isinstance(n, ast.AnnAssign)
                  and isinstance(n.target, ast.Name) for n in cls.body)
        up = base(cls)
        return own + (fields(up) if up and _is_dataclass(up) else 0)

    def constructor(cls):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                return _parameter_count(fn, 1)
        if _is_dataclass(cls):
            return fields(cls)
        up = base(cls)
        return constructor(up) if up else 0

    ledger = []
    for tree in modules:
        defs = {n.name: n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for name in exported(tree):
            node = defs.get(name)
            ledger.append((name, _parameter_count(node, 0)
                           if isinstance(node, ast.FunctionDef) else
                           constructor(node)
                           if isinstance(node, ast.ClassDef) else 0))
    return ledger


def settable_values(modules: list[ast.Module]) -> int:
    """The settable values of the modules: the sum of their ledger."""
    return sum(count for _, count in settable_ledger(modules))


def test_counts_settable_values():
    src = ("__all__ = ['f', 'K', 'L', 'Cfg', 'Sub', 'Plain', 'TABLE']\n"
           "TABLE = {}\n"
           "def f(a, b=1, *rest, c=2, **kw): pass\n"
           "def _g(x): pass\n"
           "def hidden(y): pass\n"
           "class K:\n    def __init__(self, p, q=1): pass\n"
           "    def m(self, r): pass\n"
           "class L(K): pass\n"
           "@dataclass\nclass Cfg:\n    tol: float\n    cap: int = 9\n"
           "    def m(self, s): pass\n"
           "@dataclass(frozen=True)\nclass Sub(Cfg):\n    seed: int = 0\n"
           "class Plain: pass\n")
    # f: 5, K: 2, L: K's 2, Cfg: 2, Sub: 2 + 1, Plain and TABLE: 0
    assert settable_ledger([ast.parse(src)]) == [
        ("f", 5), ("K", 2), ("L", 2), ("Cfg", 2), ("Sub", 3), ("Plain", 0),
        ("TABLE", 0)]
    assert settable_values([ast.parse(src)]) == 14


# The settable values may only fall: lower this ceiling with a change
# that removes some, and justify a raise in the change that makes it.
SETTABLE_CEILING = 187


def test_settable_values_stay_under_the_ceiling():
    count = settable_values([ast.parse(p.read_text()) for p in MODULES])
    assert count <= SETTABLE_CEILING


def unlisted_root_imports(package: Path) -> list[str]:
    """``module.name`` for each name that the package's ``__init__.py``
    imports from one of its modules whose ``__all__`` does not list it;
    a module with no ``__all__`` is out of scope."""
    bad = []
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module):
            continue
        tree = ast.parse((package / f"{node.module}.py").read_text())
        if any(isinstance(n, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in n.targets)
                for n in tree.body):
            listed = set(exported(tree))
            bad += [f"{node.module}.{a.name}" for a in node.names
                    if a.name not in listed]
    return bad


def test_detects_an_unlisted_root_import(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import a, b\nfrom .plain import c\nfrom . import mod\n")
    (tmp_path / "mod.py").write_text("__all__ = ['a']\na = b = 1\n")
    (tmp_path / "plain.py").write_text("c = 1\n")
    assert unlisted_root_imports(tmp_path) == ["mod.b"]


def test_the_package_root_exports_only_listed_names():
    # the settable values count the names of each module's __all__; a
    # name that the root exports beside it is public and never counted
    assert unlisted_root_imports(PACKAGE) == []
