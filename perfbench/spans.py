"""Spans around gaugekit's layer functions, and their per-layer totals.

`instrument` replaces every ``gaugekit.*`` module attribute that *is* one of
the listed layer functions by a timing wrapper (an identity scan, so
bindings such as ``coulomb.green_A`` are caught), and puts the originals
back on exit. Spans stay in memory as ``(name, parent, t0, t1, extra)``
tuples, where ``parent`` is the index of the enclosing span (-1 at the
root).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

#: (module, function) pairs timed by the traced run
LAYERS = (
    ("operators", "green_A"),
    ("operators", "_energy_apply"),
    ("operators", "horizontal_project"),
    ("operators", "boundary_operator_T"),
    ("operators", "laplacian_A"),
    ("operators", "codiff_A"),
    ("operators", "d_A"),
    ("operators", "d_A_cell"),
    ("algebra", "coeff_bracket"),
    ("_stencils", "deriv_mid"),
    ("_stencils", "deriv_mid_t"),
    ("_stencils", "avg_mid"),
    ("_stencils", "avg_mid_t"),
    ("_stencils", "deriv_node"),
    ("_stencils", "one_sided_deriv_at_face"),
    ("coulomb", "curvature_form"),
    ("coulomb", "boundary_identity_residual"),
    ("coulomb", "small_loop_holonomy"),
    ("constructions", "generator_for_boundary_data"),
    ("constructions", "kernel_decompose"),
    ("constructions", "full_decompose"),
    ("constructions", "boundary_chart_inverse"),
    ("constructions", "interior_inverse"),
    ("geometry", "build_chart"),
    ("geometry", "mean_curvature"),
    ("fields", "random_smooth_field"),
)

#: (kind, shape) of the finest 2d and 3d rungs whose iterations per solve
#: are reported even when a workload makes no such solve
FINEST = (("flat", "128x128"), ("conn", "128x128"), ("conn", "32x32x32"))

#: layers whose spans carry a work count: output size over the 3 algebra
#: components (nodes for _energy_apply, elements for coeff_bracket)
COUNTED = {"operators._energy_apply", "algebra.coeff_bracket"}


def layer_name(module, function):
    """Metric prefix of a layer; names must start with a letter."""
    return f"{module.lstrip('_')}.{function}"


class Recorder:
    """In-memory span list with the stack of currently open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, self.clock()

    def close(self, idx, name, t0, extra=None):
        t1 = self.clock()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, parent, t0, t1, extra)

    @contextlib.contextmanager
    def span(self, name):
        idx, t0 = self.open(name)
        try:
            yield
        finally:
            self.close(idx, name, t0)

    def write_jsonl(self, path):
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, extra) in enumerate(self.spans):
                row = {"id": i, "parent": parent, "name": name,
                       "t0": t0 - base, "t1": t1 - base}
                if extra is not None:
                    row["extra"] = extra
                fh.write(json.dumps(row) + "\n")


def _timed(rec, name, fn):
    counted = name in COUNTED

    @functools.wraps(fn)
    def timed(*args, **kw):
        idx, t0 = rec.open(name)
        out = None
        try:
            out = fn(*args, **kw)
            return out
        finally:
            extra = out.size // 3 if counted and out is not None else None
            rec.close(idx, name, t0, extra)

    return timed


def _timed_green(rec, name, fn, solve_info):
    """green_A wrapper: spans split into .flat / .conn; iterations come
    from the caller's info= (passed through) or an injected SolveInfo."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def timed(*args, **kw):
        bound = sig.bind(*args, **kw)
        A = bound.arguments.get("A")
        kind = "flat" if A is None or A.is_flat else "conn"
        info = bound.arguments.get("info")
        if info is None:
            info = solve_info()
            bound.arguments["info"] = info
        shape = "x".join(str(s) for s in bound.arguments["g"].chart.shape)
        full = f"{name}.{kind}"
        idx, t0 = rec.open(full)
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            extra = {"shape": shape, "iters": info.iterations,
                     "residual": info.residual}
            rec.close(idx, full, t0, extra)

    return timed


def _gaugekit_modules():
    import gaugekit

    mods = [gaugekit]
    for m in pkgutil.iter_modules(gaugekit.__path__):
        mods.append(importlib.import_module(f"gaugekit.{m.name}"))
    return mods


def resolve_layers(layers=LAYERS):
    """The original function objects; a missing name raises LookupError."""
    found = {}
    for module, function in layers:
        mod = importlib.import_module(f"gaugekit.{module}")
        fn = getattr(mod, function, None)
        if not inspect.isfunction(fn):
            raise LookupError(f"traced layer gaugekit.{module}.{function} is missing")
        found[id(fn)] = (layer_name(module, function), fn)
    return found


@contextlib.contextmanager
def instrument(rec, layers=LAYERS):
    """Wrap every gaugekit module binding of the listed layers in `rec`.

    Yields the list of (module, attribute) pairs that were replaced; all
    originals are restored on exit, also when the body raises.
    """
    from gaugekit import SolveInfo

    found = resolve_layers(layers)
    wrappers = {}
    for key, (name, fn) in found.items():
        if fn.__name__ == "green_A":
            wrappers[key] = _timed_green(rec, "operators.green_A", fn, SolveInfo)
        else:
            wrappers[key] = _timed(rec, name, fn)
    replaced = []
    try:
        for mod in _gaugekit_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in found and found[id(val)][1] is val:
                    setattr(mod, attr, wrappers[id(val)])
                    replaced.append((mod, attr, val))
        yield [(mod.__name__, attr) for mod, attr, _ in replaced]
    finally:
        for mod, attr, val in reversed(replaced):
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(sp[3] - sp[2]) - c for sp, c in zip(spans, child)]


def layer_totals(spans):
    """Per span name: calls, inclusive s, self_s and the summed work count."""
    tot = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
    for (name, _, t0, t1, extra), own in zip(spans, self_times(spans)):
        row = tot[name]
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += own
        if isinstance(extra, int):
            row["work"] += extra
    return dict(tot)


def per_layer_metrics(spans, traced_wall, untraced_wall, suites):
    """Flat dict of every per-layer metric the traced run reports."""
    tot = layer_totals(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    out = {}
    for module, function in LAYERS:
        base = layer_name(module, function)
        names = [f"{base}.flat", f"{base}.conn"] if function == "green_A" else [base]
        for name in names:
            row = tot.get(name, zero)
            for stat in ("calls", "s", "self_s"):
                out[f"{name}.{stat}"] = row[stat]
    for kind in ("flat", "conn"):
        name = f"operators.green_A.{kind}"
        solves = [sp[4] for sp in spans if sp[0] == name]
        iters = sum(e["iters"] for e in solves)
        out[f"{name}.iters"] = iters
        out[f"{name}.iters_per_call"] = iters / len(solves) if solves else 0.0
        out[f"{name}.us_per_iter"] = (
            out[f"{name}.s"] * 1e6 / iters if iters else 0.0
        )
        out[f"{name}.max_rel_residual"] = max(
            (e["residual"] for e in solves), default=0.0
        )
        by_shape = defaultdict(list)
        for e in solves:
            by_shape[e["shape"]].append(e["iters"])
        for shape in {s for k, s in FINEST if k == kind} | by_shape.keys():
            its = by_shape.get(shape)
            out[f"{name}.{shape}.iters_per_call"] = sum(its) / len(its) if its else 0.0
    for name, key in (("operators._energy_apply", "ns_per_node"),
                      ("algebra.coeff_bracket", "ns_per_elem")):
        row = tot.get(name, zero)
        out[f"{name}.{key}"] = row["s"] * 1e9 / row["work"] if row["work"] else 0.0
    for suite in suites:
        out[f"harness.run_suite.{suite}.s"] = tot.get(
            f"harness.run_suite.{suite}", zero
        )["s"]
    covered = sum(t1 - t0 for _, parent, t0, t1, _ in spans if parent < 0)
    out["harness.self_s"] = traced_wall - covered
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
