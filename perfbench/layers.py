"""The traced layers and the per-layer metrics computed from their spans.

Each ``.s`` metric is self time per traced pass (the span minus its traced
children), scaled to the reference speed like the end-to-end times,
except ``suites.<suite>.s``, which is the whole ``run_suite`` span of that
suite, so that the seven of them plus ``cli.overhead.s`` add up to the
time spent in ``cli.main``.  Counts are per traced pass.  A
layer that a workload does not run reads 0 there.  ``<layer>.scaling`` is
``log(t_large / t_small) / log(N_large / N_small)`` from the median time
of the benchmark's own calls at the two sizes, with ``N`` the node count.
"""
from __future__ import annotations

import math
import statistics

from spans import Layer
from workloads import SUITES


def _size(args, kwargs) -> str:
    """``n<nodes per axis>`` of the first argument's grid."""
    obj = args[0] if args else None
    grid = getattr(obj, "grid", obj)
    counts = getattr(grid, "counts", None)
    return f"n{counts[0]}" if counts else ""


def _transport_size(args, kwargs):
    return _size(args[1:], kwargs)


def _first(args, kwargs):
    return str(args[0]) if args else ""


def _level(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    return f"level{params.level}"


def _depth(args, kwargs):
    depth = kwargs.get("max_depth", args[-1] if len(args) > 1 else None)
    return f"d{depth}"


def _count_pucci(counts, args, kwargs, result):
    rep = result[1]
    config = kwargs.get("config", args[6] if len(args) > 6 else None)
    it = int(rep.constants.get("iterations", 0))
    counts["solvers.solve_pucci.iterations"] += it
    counts["solvers.solve_pucci.solves"] += 1
    max_iter = getattr(config, "max_iter", math.inf)
    counts["solvers.solve_pucci.converged"] += it < max_iter


def _count_poisson(counts, args, kwargs, result):
    counts["solvers.solve_poisson.iterations"] += \
        int(result[1].constants.get("iterations", 0))


def _count_walks(counts, args, kwargs, result):
    c = result[2].constants
    counts["solvers.random_walk_hitting.walks"] += int(c.get("n_samples", 0))
    counts["solvers.random_walk_hitting.capped"] += int(c.get("capped", 0))


def _count_contacts(counts, args, kwargs, result):
    counts["contact.contact_set.nodes"] += len(result)


def _count_slopes(counts, args, kwargs, result):
    counts["contact.abp_bound.n_slopes"] += \
        int(result.constants.get("n_slopes", 0))


def _count_cubes(counts, args, kwargs, result):
    counts["coverings.cubes"] += len(result.cubes)


E = "ellipticlab."
LAYERS = (
    Layer(E + "cli", "main", "cli.main"),
    Layer(E + "suites", "run_suite", "suites.run_suite", _first),
    Layer(E + "io", "write_report_document", "io.write_report_document"),
    Layer(E + "solvers", "solve_pucci", "solvers.solve_pucci",
          count=_count_pucci),
    Layer(E + "solvers", "solve_poisson", "solvers.solve_poisson", _size,
          _count_poisson),
    Layer(E + "solvers", "random_walk_hitting", "solvers.random_walk_hitting",
          count=_count_walks),
    Layer(E + "solvers", "discrete_harmonic_hitting",
          "solvers.discrete_harmonic_hitting", _size),
    Layer(E + "operators", "hessian", "operators.hessian"),
    Layer(E + "operators", "pucci_minus", "operators.pucci"),
    Layer(E + "operators", "pucci_plus", "operators.pucci"),
    Layer(E + "operators", "fractional_laplacian",
          "operators.fractional_laplacian", _level),
    Layer(E + "contact", "contact_set", "contact.contact_set", _size,
          _count_contacts),
    Layer(E + "contact", "transport_map", "contact.transport_map",
          _transport_size),
    Layer(E + "contact", "area_formula_check", "contact.area_formula_check"),
    Layer(E + "contact", "abp_bound", "contact.abp_bound", _size,
          _count_slopes),
    Layer(E + "contact", "aleksandrov_check", "contact.aleksandrov_check",
          _size),
    Layer(E + "contact", "inf_convolution", "contact.inf_convolution", _size),
    Layer(E + "grid", "hardy_littlewood_maximal",
          "grid.hardy_littlewood_maximal", _size),
    Layer(E + "grid", "holder_seminorm", "grid.holder_seminorm", _size),
    Layer(E + "grid", "weighted_seminorm", "grid.weighted_seminorm", _size),
    Layer(E + "coverings", "dyadic_decomposition",
          "coverings.dyadic_decomposition", _depth, _count_cubes),
    Layer(E + "coverings", "cz_selection", "coverings.cz_selection", _depth,
          _count_cubes),
)

# (layer, key) pairs reported as sized ``.s`` metrics
SIZED = (
    [("solvers.solve_poisson", f"n{n}") for n in (65, 129)]
    + [("solvers.discrete_harmonic_hitting", f"n{n}") for n in (65, 129)]
    + [(f"contact.{f}", f"n{n}")
       for f in ("contact_set", "transport_map", "abp_bound",
                 "aleksandrov_check", "inf_convolution")
       for n in (65, 129)]
    + [(f"grid.{f}", f"n{n}")
       for f in ("hardy_littlewood_maximal", "holder_seminorm",
                 "weighted_seminorm")
       for n in (33, 65)]
    + [("operators.fractional_laplacian", f"level{k}") for k in (1, 2)]
    + [(f"coverings.{f}", f"d{d}")
       for f in ("dyadic_decomposition", "cz_selection") for d in (6, 7)]
)
UNSIZED = ("solvers.solve_pucci", "operators.hessian", "operators.pucci",
           "solvers.random_walk_hitting", "contact.area_formula_check",
           "io.write_report_document")
SCALING = (
    [(f"contact.{f}", 65, 129)
     for f in ("contact_set", "abp_bound", "aleksandrov_check")]
    + [(f"grid.{f}", 33, 65)
       for f in ("hardy_littlewood_maximal", "holder_seminorm",
                 "weighted_seminorm")]
)
COUNTS = ("solvers.solve_pucci.iterations", "solvers.solve_poisson.iterations",
          "solvers.random_walk_hitting.capped", "contact.contact_set.nodes",
          "contact.abp_bound.n_slopes", "coverings.cubes")

# name -> (unit, better)
PER_LAYER = {}
PER_LAYER.update({f"suites.{s}.s": ("s", "lower") for s in SUITES})
PER_LAYER.update({f"{n}.s": ("s", "lower") for n in UNSIZED})
PER_LAYER.update({f"{n}.{k}.s": ("s", "lower") for n, k in SIZED})
PER_LAYER.update({c: ("count", "lower") for c in COUNTS})
PER_LAYER.update({
    "solvers.solve_pucci.converged_frac": ("frac", "higher"),
    "operators.hessian.calls": ("count", "lower"),
    "solvers.random_walk_hitting.walks_per_s": ("1/s", "higher"),
    "cli.overhead.s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})
PER_LAYER.update({f"{n}.scaling": ("exponent", "lower")
                  for n, _, _ in SCALING})


def per_layer_metrics(tracer, passes: int, overhead_frac: float) -> dict:
    """Every ``PER_LAYER`` metric from the spans of ``passes`` traced
    passes."""
    self_s, total_s, calls, direct = tracer.aggregate()
    counts = tracer.counts

    def layer_sum(table, name, key=None):
        return sum(v for (n, k), v in table.items()
                   if n == name and (key is None or k == key))

    m = {}
    for s in SUITES:
        m[f"suites.{s}.s"] = total_s[("suites.run_suite", s)] / passes
    for name in UNSIZED:
        m[f"{name}.s"] = layer_sum(self_s, name) / passes
    for name, key in SIZED:
        m[f"{name}.{key}.s"] = layer_sum(self_s, name, key) / passes
    for c in COUNTS:
        m[c] = counts[c] / passes
    solves = counts["solvers.solve_pucci.solves"]
    m["solvers.solve_pucci.converged_frac"] = \
        counts["solvers.solve_pucci.converged"] / solves if solves else 0.0
    m["operators.hessian.calls"] = \
        layer_sum(calls, "operators.hessian") / passes
    walk_s = layer_sum(self_s, "solvers.random_walk_hitting")
    m["solvers.random_walk_hitting.walks_per_s"] = \
        counts["solvers.random_walk_hitting.walks"] / walk_s if walk_s else 0.0
    m["cli.overhead.s"] = (layer_sum(total_s, "cli.main")
                           - layer_sum(total_s, "suites.run_suite")) / passes
    m["trace.overhead_frac"] = overhead_frac
    for name, small, large in SCALING:
        ts = direct.get((name, f"n{small}"))
        tl = direct.get((name, f"n{large}"))
        m[f"{name}.scaling"] = (
            math.log(statistics.median(tl) / statistics.median(ts))
            / math.log((large / small) ** 2)) if ts and tl else 0.0
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in m.items()}
