"""Span arithmetic and the traced run's wrappers."""

import numpy as np
import pytest

import gaugekit
import spans
from gaugekit import SolveInfo, build_chart, random_smooth_field
from gaugekit.operators import Connection


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def nested_recorder():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # E [11, 12] is a second root
    rec = spans.Recorder(FakeClock([0, 1, 2, 3, 4, 5, 9, 10, 11, 12]))
    with rec.span("A"):
        with rec.span("B"):
            with rec.span("C"):
                pass
        with rec.span("D"):
            pass
    with rec.span("E"):
        pass
    return rec


def test_parents_and_self_times_of_nested_spans():
    rec = nested_recorder()
    names = [sp[0] for sp in rec.spans]
    parents = {sp[0]: (names[sp[1]] if sp[1] >= 0 else None) for sp in rec.spans}
    assert parents == {"A": None, "B": "A", "C": "B", "D": "A", "E": None}
    own = dict(zip(names, spans.self_times(rec.spans)))
    assert own == {"A": 3.0, "B": 2.0, "C": 1.0, "D": 4.0, "E": 1.0}
    # self times partition the root spans
    assert sum(own.values()) == 10.0 + 1.0


def test_layer_totals_sum_calls_inclusive_and_self_time():
    rec = nested_recorder()
    tot = spans.layer_totals(rec.spans)
    assert tot["A"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "work": 0}
    assert tot["B"] == {"calls": 1, "s": 3.0, "self_s": 2.0, "work": 0}


def test_harness_self_time_closes_the_wall_budget():
    rec = nested_recorder()
    m = spans.per_layer_metrics(rec.spans, traced_wall=15.0, untraced_wall=14.0,
                                suites=())
    own = sum(spans.self_times(rec.spans))
    assert m["harness.self_s"] == pytest.approx(15.0 - 11.0)
    assert own + m["harness.self_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def _originals():
    return {id(fn): fn for _, fn in spans.resolve_layers().values()}


def _bindings(originals):
    found = []
    for mod in spans._gaugekit_modules():
        for attr, val in vars(mod).items():
            if id(val) in originals and originals[id(val)] is val:
                found.append((mod.__name__, attr))
    return sorted(found)


def test_instrument_covers_every_binding_and_restores_them():
    originals = _originals()
    before = _bindings(originals)
    assert ("gaugekit.coulomb", "green_A") in before
    assert ("gaugekit.harness", "horizontal_project") in before
    rec = spans.Recorder()
    with spans.instrument(rec) as replaced:
        assert sorted(replaced) == before
        assert _bindings(originals) == []
    assert _bindings(originals) == before


def test_instrument_restores_when_the_body_raises():
    before = _bindings(_originals())
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Recorder()):
            raise RuntimeError("boom")
    assert _bindings(_originals()) == before


def test_missing_layer_fails_loudly():
    before = _bindings(_originals())
    layers = spans.LAYERS + (("operators", "no_such_layer"),)
    with pytest.raises(LookupError, match="no_such_layer"):
        with spans.instrument(spans.Recorder(), layers):
            pass
    assert _bindings(_originals()) == before


def _solve_inputs():
    ch = build_chart("annulus", (16, 16))
    A = Connection(ch, random_smooth_field(ch, "oneform", 3, scale=0.3))
    g = random_smooth_field(ch, "section", 4)
    return g, A


def test_wrapped_functions_return_identical_results():
    g, A = _solve_inputs()
    eta = random_smooth_field(g.chart, "oneform", 5)
    plain = (
        gaugekit.green_A(g, A).data,
        gaugekit.horizontal_project(eta, A).data,
        gaugekit.coeff_bracket(eta.data, g.data[..., None, :]),
    )
    rec = spans.Recorder()
    with spans.instrument(rec):
        traced = (
            gaugekit.green_A(g, A).data,
            gaugekit.horizontal_project(eta, A).data,
            gaugekit.coeff_bracket(eta.data, g.data[..., None, :]),
        )
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    names = {sp[0] for sp in rec.spans}
    assert {"operators.green_A.conn", "operators.horizontal_project",
            "operators._energy_apply", "algebra.coeff_bracket",
            "stencils.deriv_mid"} <= names


def test_green_wrapper_passes_caller_info_through():
    g, A = _solve_inputs()
    rec = spans.Recorder()
    info = SolveInfo()
    with spans.instrument(rec):
        gaugekit.green_A(g, A, 1e-10, None, info)
        gaugekit.green_A(g, None)
    solves = [sp for sp in rec.spans if sp[0].startswith("operators.green_A")]
    assert [sp[0] for sp in solves] == ["operators.green_A.conn", "operators.green_A.flat"]
    assert info.converged and info.iterations > 0
    assert solves[0][4] == {"shape": "16x16", "iters": info.iterations,
                            "residual": info.residual}
    assert solves[1][4]["iters"] > 0
    m = spans.per_layer_metrics(rec.spans, 1.0, 1.0, ())
    assert m["operators.green_A.conn.calls"] == 1
    assert m["operators.green_A.conn.iters"] == info.iterations
    assert m["operators.green_A.flat.128x128.iters_per_call"] == 0.0
    assert m["operators.green_A.conn.16x16.iters_per_call"] == info.iterations
