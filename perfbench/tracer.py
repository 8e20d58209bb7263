"""Outside-in span tracing of cfmarkets.

`install(tracer)` replaces, for the duration of a `with` block, every public
function of every cfmarkets module at each module binding that holds it
(so by-name imports such as `cfmarkets.simulate.plan_switch` get the same
wrapper as `cfmarkets.switching.plan_switch`), scipy's `linprog` where
cfmarkets binds it, the cost methods of each concrete cost class, the LCMM
solver methods and the trader `bundle` methods. Nothing inside the library
is edited. On exit every binding is restored.

Each wrapped call records a span [name, start_ns, end_ns, parent, op, error,
info] in memory. `layer_metrics` turns the spans into the per-layer metrics
listed in BENCHMARK.json. The library runs in one thread with no queues, so
time spent waiting for a layer is zero by construction and is not reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("costs", "geometry", "_solvers", "utility", "switching", "lcmm",
           "gradual", "simulate", "markets", "scenario", "cli")

# concrete cost class -> kind used in metric names
COST_KINDS = {"LmsrCost": "lmsr", "IndependentBinaryCost": "product-lmsr",
              "RestrictedCost": "restricted", "SwitchedCost": "switched",
              "ScaledCost": "scaled", "LcmmCost": "lcmm"}
COST_METHODS = ("cost", "price", "conjugate")
TRADERS = {"NoiseTrader": "noise", "BeliefTrader": "belief",
           "JitArbitrageur": "jit"}

NAME, START, END, PARENT, OP, ERROR, INFO = range(7)


class Tracer:
    """In-memory span recorder; `op` tags spans with the operation index."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, False,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced


def _projection_info(args, kwargs, res):
    return (res.iterations, res.converged, res.gap)


def _solve_info(args, kwargs, sol):
    model, q = args[0], args[1]
    tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
    tol = model.solve_tol if tol is None else tol
    scales = tuple(float(getattr(c, "alpha", 1.0)) for c in model.block_costs)
    key = (id(model.space), scales,
           np.asarray(q, dtype=float).reshape(-1).tobytes(), tol)
    return (key, sol.converged, sol.certificate_gap)


def _targets(cf):
    """(owner, attribute, span name, info) for every binding to wrap."""
    from scipy.optimize import linprog

    functions = {}  # original function -> (span name, info)
    for mod_name in MODULES:
        mod = importlib.import_module(f"cfmarkets.{mod_name}")
        layer = mod_name.lstrip("_")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                info = (_projection_info if attr == "project_onto_hull"
                        else None)
                functions[obj] = (f"{layer}.{attr}", info)
    functions[linprog] = ("geometry.lp", None)

    targets = []
    modules = [cf] + [importlib.import_module(f"cfmarkets.{m}")
                      for m in MODULES]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            try:
                hit = functions.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if hit is not None:
                targets.append((mod, attr) + hit)
    for cls_name, kind in COST_KINDS.items():
        cls = getattr(cf, cls_name)
        for meth in COST_METHODS:
            if meth in vars(cls):
                targets.append((cls, meth, f"costs.{kind}.{meth}", None))
    targets.append((cf.LcmmCost, "solve", "lcmm.solve", _solve_info))
    targets.append((cf.LcmmCost, "certificate_gap", "lcmm.certificate_gap",
                    None))
    for cls_name, kind in TRADERS.items():
        targets.append((getattr(cf, cls_name), "bundle",
                        f"simulate.bundle.{kind}", None))
    return targets


class install:
    """Context manager that wraps every target binding and restores it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.bindings: list = []  # (owner, attribute, span name)
        self._saved: list = []

    def __enter__(self):
        import cfmarkets as cf

        wrappers = {}
        for owner, attr, name, info in _targets(cf):
            original = vars(owner)[attr]
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self.tracer.wrap(name, original, info)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
            self.bindings.append((owner, attr, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Span analysis


def _durations(spans):
    """Inclusive and self time (ns) of every span, and whether an ancestor
    carries the same name (so recursive time is not counted twice)."""
    n = len(spans)
    incl = [s[END] - s[START] for s in spans]
    child = [0] * n
    nested = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += incl[i]
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                nested[i] = True
                break
            p = spans[p][PARENT]
    return incl, [incl[i] - child[i] for i in range(n)], nested


def summarize(spans):
    """Per span name: calls, inclusive ms (outermost spans only), self ms,
    errors."""
    incl, self_ns, nested = _durations(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                       "errors": 0})
        row["calls"] += 1
        if not nested[i]:
            row["ms"] += incl[i] / 1e6
        row["self_ms"] += self_ns[i] / 1e6
        row["errors"] += bool(s[ERROR])
    return out


def _has_descendant(spans, name):
    """Indices of spans that have a descendant span called `name`."""
    marked = set()
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and p not in marked:
            marked.add(p)
            p = spans[p][PARENT]
    return marked


def layer_metrics(spans, metric_names, overhead_s: float) -> dict:
    """Value of every per-layer metric named in `metric_names`."""
    by_name = summarize(spans)

    def row(name):
        return by_name.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                  "errors": 0})

    layer_self: dict = {}
    layer_errors: dict = {}
    for name, r in by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + r["self_ms"]
        layer_errors[layer] = layer_errors.get(layer, 0) + r["errors"]

    values = {"trace.overhead_s": overhead_s}
    lp = row("geometry.lp")
    values["geometry.ms_per_lp"] = (lp["ms"] / lp["calls"] if lp["calls"]
                                    else 0.0)

    proj = [s for s in spans if s[NAME] == "solvers.project_onto_hull"]
    values["solvers.project_onto_hull.iterations"] = sum(
        s[INFO][0] for s in proj if s[INFO])
    values["solvers.project_onto_hull.unconverged"] = sum(
        1 for s in proj if s[INFO] and not s[INFO][1])
    values["solvers.project_onto_hull.max_gap"] = max(
        (float(s[INFO][2]) for s in proj if s[INFO]), default=0.0)

    hull_users = _has_descendant(spans, "solvers.project_onto_hull")
    util = [i for i, s in enumerate(spans) if s[NAME] == "utility.util_event"]
    values["utility.util_event.closed_form_ratio"] = (
        sum(1 for i in util if i not in hull_users) / len(util)
        if util else 0.0)

    solved = _solves(spans)
    seen = set()
    repeats = 0
    for s in solved:
        key = (s[OP], s[INFO][0])
        repeats += key in seen
        seen.add(key)
    values["lcmm.solve.computed"] = len(solved)
    values["lcmm.solve.cache_hits"] = row("lcmm.solve")["calls"] - len(solved)
    values["lcmm.solve.repeat_ratio"] = (repeats / len(solved)
                                         if solved else 0.0)
    values["lcmm.solve.unconverged"] = sum(1 for s in solved
                                           if not s[INFO][1])
    values["lcmm.solve.max_certificate_gap"] = max(
        (float(s[INFO][2]) for s in solved), default=0.0)

    for metric in metric_names:
        if metric in values:
            continue
        base, _, field = metric.rpartition(".")
        if field == "self_ms" and "." not in base:
            values[metric] = layer_self.get(base, 0.0)
        elif field == "errors" and "." not in base:
            values[metric] = layer_errors.get(base, 0)
        elif field in ("calls", "ms", "self_ms"):
            values[metric] = row(base)[field]
        else:
            raise KeyError(f"no rule derives per-layer metric {metric!r}")
    return {m: values[m] for m in metric_names}


def _solves(spans):
    """LCMM solves that computed a solution: a call answered from the
    model's own cache makes no certificate_gap call."""
    computing = set()
    for s in spans:
        if s[NAME] == "lcmm.certificate_gap" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "lcmm.solve":
            computing.add(s[PARENT])
    return [spans[i] for i in sorted(computing) if spans[i][INFO]]


def per_call_ms(spans, name, ops=None, computed_solves=False):
    """Mean inclusive ms per call of `name`, over spans whose operation is in
    `ops` (all operations when None). Returns (ms, calls)."""
    incl, _, nested = _durations(spans)
    pool = (set(id(s) for s in _solves(spans)) if computed_solves else None)
    total, calls = 0.0, 0
    for i, s in enumerate(spans):
        if s[NAME] != name or nested[i]:
            continue
        if ops is not None and s[OP] not in ops:
            continue
        if pool is not None and id(s) not in pool:
            continue
        total += incl[i] / 1e6
        calls += 1
    return (total / calls if calls else None), calls
