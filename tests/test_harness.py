"""Run configuration, convergence bookkeeping, report emission, CLI."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from gaugekit import _stencils as st
from gaugekit import (
    Connection,
    build_chart,
    cli,
    harness,
    horizontal_project,
    random_smooth_field,
)
from gaugekit.errors import ConfigError, NoConvergence
from gaugekit.harness import (
    Check,
    RunConfig,
    convergence_order,
    emit_report,
    emit_study,
    parse_grid,
    run_all,
    run_suite,
)


# ---------------------------------------------------------------------------
# convergence bookkeeping
# ---------------------------------------------------------------------------


def test_convergence_order_recovers_known_rate():
    hs = [0.04, 0.02, 0.01]
    errs = [16e-4, 4e-4, 1e-4]
    assert abs(convergence_order(hs, errs) - 2.0) < 1e-12


def test_convergence_order_edge_cases():
    # non-decreasing errors give a non-positive order
    assert convergence_order([0.04, 0.02], [1e-3, 2e-3]) < 0.0
    # an exact (roundoff-level) series reports an infinite order
    assert convergence_order([0.04, 0.02], [1e-3, 1e-16]) == float("inf")
    # both rungs at roundoff still count as exact
    assert convergence_order([0.04, 0.02], [1e-16, 1e-15]) == float("inf")
    # error growing out of roundoff cannot support an order estimate
    assert np.isnan(convergence_order([0.04, 0.02], [1e-16, 1e-3]))


def test_check_kinds_and_nan_policy():
    assert Check("a", 1e-4, 1e-3, "max").passed
    # a numpy value still gives a JSON number and a JSON boolean
    c = Check("a", np.float64(1e-4), np.float64(1e-3))
    assert type(c.value) is float and c.passed is True
    assert not Check("a", 2e-3, 1e-3, "max").passed
    assert Check("b", 1.8, 1.5, "min").passed
    assert not Check("b", 1.2, 1.5, "min").passed
    assert Check("c", 0.1, 0.0, "gt").passed
    assert Check("d", 0.5, 1.0, "lt").passed
    assert not Check("e", float("nan"), 1e-3, "max").passed


_GRIDS = [(32, 32), (64, 64), (128, 128)]


def _one_check(values, rule, grids=_GRIDS):
    """The check that `rule` makes of the series `values` on `grids`, or None,
    and the ladder's metrics block; each rung's h halves."""
    hs = [0.04 / 2**i for i in range(len(grids))]
    checks, block = harness._ladder_checks({"e": values}, hs, grids, [rule])
    return (checks[0] if checks else None), block


def test_ladder_checks_fail_an_increasing_series():
    rule = harness._Rule("monotone", "e", "monotone", max, 1.0, "lt")
    assert _one_check([4e-3, 2e-3, 1e-3], rule)[0].passed
    assert not _one_check([1e-3, 2e-3, 4e-3], rule)[0].passed
    # every member counts: one increasing member fails the max over members
    assert not _one_check([[4e-3, 1e-3], [2e-3, 2e-3], [1e-3, 4e-3]], rule)[0].passed


def test_ladder_checks_fail_a_first_order_series():
    rule = harness._Rule("order", "e", "order", min, 1.5, "min")
    second, block = _one_check([[16e-4, 16e-4], [4e-4, 4e-4], [1e-4, 1e-4]], rule)
    assert second.passed and abs(second.value - 2.0) < 1e-12
    assert block["orders"]["order"] == [second.value, second.value]
    first, _ = _one_check([[16e-4, 4e-3], [4e-4, 2e-3], [1e-4, 1e-3]], rule)
    assert not first.passed and abs(first.value - 1.0) < 1e-12


@pytest.mark.parametrize("rule", [
    harness._Rule("order", "e", "order", min, 1.5, "min"),
    harness._Rule("median-order", "e", "order", np.median, 1.5, "min"),
    harness._Rule("monotone", "e", "monotone", max, 1.0, "lt"),
    harness._Rule("final", "e", "final", max, 5e-3),
], ids=lambda r: r.name)
def test_ladder_checks_fail_a_nan_member(rule):
    # the first member alone passes each rule; a NaN in the second member's
    # finest rung makes the check NaN, whichever member it is
    series = [[1e-2, 1e-2], [3e-3, 3e-3], [1e-3, math.nan]]
    assert _one_check([row[:1] for row in series], rule)[0].passed
    for rows in (series, [row[::-1] for row in series]):
        check, _ = _one_check(rows, rule)
        assert math.isnan(check.value) and not check.passed


def test_calibrated_bound_binds_only_at_its_grid_or_finer():
    rule = harness._Rule("final-ratio", "e", "final", max, 1e-3, calibrated=(128, 128))
    values = [8e-3, 2e-3, 5e-4]
    ladders = {
        "coarser 2d": [(16, 16), (32, 32), (64, 64)],
        "one axis coarser": [(32, 32), (64, 64), (128, 64)],
        "3d": [(16, 16, 16), (24, 24, 24), (128, 128, 128)],
        "calibration grid": _GRIDS,
        "finer": [(64, 64), (128, 128), (256, 256)],
    }
    for label, grids in ladders.items():
        check, block = _one_check(values, rule, grids=grids)
        binds = label in ("calibration grid", "finer")
        assert (check is not None) == binds, label
        assert block["not-binding"] == ({} if binds else {"final-ratio": (128, 128)})
        if binds:
            assert check.value == 5e-4 and check.passed


def test_exactness_bound_binds_at_every_grid():
    rule = harness._Rule("x-product", "e", "final", max, 1e-12)
    for grids in ([(8, 8), (16, 16)], [(16, 16, 16), (24, 24, 24)], _GRIDS):
        check, block = _one_check([[1e-16, 3e-16]] * len(grids), rule, grids=grids)
        assert check.passed and check.value == 3e-16 and block["not-binding"] == {}
        check, _ = _one_check([[1e-16, 3e-9]] * len(grids), rule, grids=grids)
        assert not check.passed


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def test_parse_grid_forms():
    assert parse_grid("128x128") == {"grid": (128, 128)}
    assert parse_grid("24x24x24") == {"grid": (24, 24, 24)}
    assert parse_grid("32,64,128") == {"sizes": [32, 64, 128]}
    assert parse_grid("96") == {"sizes": [96]}


def test_parse_grid_rejects_bad_text():
    for bad in ("128x128x128x128", "2x2", "128,64", "0", "abc"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_ladder_shapes_default_and_explicit():
    cfg = RunConfig(grid=(128, 128))
    assert cfg.ladder_shapes() == [(32, 32), (64, 64), (128, 128)]
    cfg2 = RunConfig(grid=(32, 32, 32), ladder=[16, 24, 32])
    assert cfg2.ladder_shapes() == [(16, 16, 16), (24, 24, 24), (32, 32, 32)]
    cfg3 = RunConfig(grid=(64, 64), ladder=[(32, 32), (48, 64)])
    assert cfg3.ladder_shapes() == [(32, 32), (48, 64)]


def test_ladder_must_increase():
    # the constructor runs the same checks as from_json and with_overrides
    with pytest.raises(ConfigError):
        RunConfig(grid=(64, 64), ladder=[64, 64])
    with pytest.raises(ConfigError):
        RunConfig(grid=(64, 64), ladder=[64, 32])


def test_config_json_roundtrip(tmp_path):
    cfg = RunConfig(
        domain="periodic_slab",
        grid=(48, 48),
        ladder=[24, 48],
        seed=3,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = RunConfig.from_json(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gird": (32, 32)}))
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)
    with pytest.raises(ConfigError):
        RunConfig().with_overrides(gird=(32, 32))


@pytest.mark.parametrize(
    "raw",
    [
        {"domain_params": [1.0]},
        {"thresholds": {}},  # the retired threshold overrides
        {"grid": "64"},
        {"grid": [64]},
        {"grid": [64, 2]},
        {"ladder": 5},
        {"ladder": ["32"]},
        {"seed": "3"},
        {"seed": 1.5},
        {"solve_tol": "x"},
        {"solve_tol": -1e-10},
        {"domain": 3},
        {"solve_tol": math.nan},
        {"ladder_shapes": None},
        [64, 64],
        {"ladder": [64, 32]},
        {"ladder": [64, 64]},
        {"domain": "moebius"},
        {"domain": "custom"},
        {"grid": [32, 32], "ladder": [[8, 8, 8], [16, 16, 16]]},
        {"grid": [16, 16, 16], "ladder": [8, [12, 12]]},
        {"solve_tol": math.inf},
        {"seed": True},
        {"domain_params": None},
    ],
)
def test_config_rejects_malformed_values(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)


@pytest.mark.parametrize(
    "kw",
    [
        {"ladder_shapes": 3},
        {"grid": (2, 2)},
        {"ladder": [64, 32]},
        # the retired `thresholds` field is an unknown key, whatever its value
        {"thresholds": {"no-such-suite.x": 1.0}},
        {"thresholds": {"gauge": 2.0}},
        {"thresholds": {"gauge.": 2.0}},
        {"ladder": [(32, 32, 32), (64, 64, 64)]},
        {"grid": (32, 32, 32), "ladder": [(16, 16), (32, 32)]},
        {"thresholds": {"gauge.cocycle": math.nan}},
        {"thresholds": {"gauge.cocycle": math.inf}},
    ],
    ids=["method-name", "small-grid", "decreasing-ladder",
         "threshold-unknown-suite", "threshold-no-check", "threshold-empty-check",
         "ladder-3d-on-2d-grid", "ladder-2d-on-3d-grid", "threshold-nan", "threshold-inf"],
)
def test_overrides_reject_malformed_values(kw):
    with pytest.raises(ConfigError):
        RunConfig().with_overrides(**kw)


#: the same draws on every run, and no example database
_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

_sizes = hs.integers(4, 256)
_finite = hs.floats(allow_nan=False, allow_infinity=False)


@hs.composite
def _valid_configs(draw):
    """RunConfig keyword arguments that pass its checks."""
    grid = tuple(draw(hs.lists(_sizes, min_size=2, max_size=3)))
    ladder = draw(hs.none() | hs.lists(_sizes, min_size=1, max_size=4, unique=True))
    if ladder is not None:
        # each rung a size or the grid shape it stands for, in increasing order
        as_shape = draw(hs.lists(hs.booleans(), min_size=len(ladder), max_size=len(ladder)))
        ladder = [(s,) * len(grid) if t else s for s, t in zip(sorted(ladder), as_shape)]
    return {
        "domain": draw(hs.sampled_from(harness._DOMAINS)),
        "domain_params": draw(hs.dictionaries(hs.text(max_size=8), _finite | hs.integers())),
        "grid": grid,
        "ladder": ladder,
        "seed": draw(hs.integers(0, 2**70)),
        "solve_tol": draw(hs.floats(0.0, exclude_min=True, allow_infinity=False)),
    }


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@_PROPERTY
@given(_valid_configs())
def test_valid_configs_round_trip(cfg_file, kw):
    cfg = RunConfig(**kw)
    cfg_file.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_json(cfg_file).to_dict() == cfg.to_dict()
    assert RunConfig().with_overrides(**kw).to_dict() == cfg.to_dict()
    assert RunConfig(**cfg.to_dict()).to_dict() == cfg.to_dict()


#: field -> values its check refuses: wrong types, bools where ints are
#: due, out-of-range sizes, non-increasing ladders, ladder shapes of another
#: dimension than the (default, 2d) grid's
_INVALID = {
    "domain": hs.text(max_size=12).filter(lambda v: v not in harness._DOMAINS)
    | hs.just("custom") | hs.integers() | hs.none() | hs.lists(hs.text(max_size=3)),
    "domain_params": hs.lists(_finite) | hs.text(max_size=4) | hs.integers() | hs.none(),
    "grid": hs.lists(_sizes, min_size=2, max_size=3).flatmap(
        lambda g: hs.sampled_from([
            g[:1], g + [4, 4], [3] + g[1:], g[:-1] + [True], g[:-1] + [float(g[-1])],
            [str(s) for s in g], {"x": g},
        ])
    ) | hs.booleans() | hs.integers() | hs.none(),
    "ladder": hs.lists(_sizes, min_size=2, max_size=4).map(sorted).flatmap(
        lambda l: hs.sampled_from([
            l[::-1] if l[0] != l[-1] else l, l + [l[-1]], [2] + l, l + [True],
            [str(s) for s in l], [float(s) for s in l], [(s,) for s in l],
            [(s,) * 3 for s in l],
        ])
    ) | hs.integers() | hs.text(max_size=4) | hs.booleans(),
    "seed": hs.booleans() | hs.text(max_size=4) | _finite | hs.none() | hs.lists(_sizes)
    | hs.integers(max_value=-1),
    "solve_tol": hs.floats(max_value=0.0) | hs.just(math.inf) | hs.just(math.nan)
    | hs.booleans() | hs.text(max_size=4) | hs.none(),
}
_UNKNOWN_KEYS = hs.sampled_from(["ladder_shapes", "to_dict", "gird"]) | hs.text(
    max_size=10
).filter(lambda k: k not in _INVALID)
_invalid_items = hs.sampled_from(sorted(_INVALID)).flatmap(
    lambda k: hs.tuples(hs.just(k), _INVALID[k])
)


def _refused(call):
    with pytest.raises(ConfigError):
        call()


@_PROPERTY
@given(_invalid_items)
@example(("ladder", [(8, 8, 8), (16, 16, 16)]))  # 3d shapes for the 2d grid
def test_invalid_values_raise_config_error(cfg_file, item):
    key, value = item
    cfg_file.write_text(json.dumps({key: value}))
    _refused(lambda: RunConfig.from_json(cfg_file))
    _refused(lambda: RunConfig(**{key: value}))
    if value is not None:  # None leaves an overridden field as it is
        _refused(lambda: RunConfig().with_overrides(**{key: value}))


@_PROPERTY
@given(_UNKNOWN_KEYS, _sizes | hs.none() | hs.text(max_size=4))
@example("jobs", 1)  # the retired suite-worker count
@example("thresholds", {"gauge.cocycle": 1e-12})  # the retired check-bound overrides
def test_unknown_keys_raise_config_error(cfg_file, key, value):
    cfg_file.write_text(json.dumps({key: value}))
    _refused(lambda: RunConfig.from_json(cfg_file))
    _refused(lambda: RunConfig().with_overrides(**{key: value}))


def test_cli_grid_override_passes_the_check():
    args = cli.build_parser().parse_args(["verify", "--grid", "64x64"])
    cfg = cli._load_config(args)
    assert cfg.grid == (64, 64)


# ---------------------------------------------------------------------------
# suite running and report emission
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(grid=(32, 32), seed=0)
    return run_all(cfg, ["mean-curvature", "gauge"])


def test_empty_suite_list_is_empty_report():
    report = run_all(RunConfig(grid=(32, 32)), [])
    assert report.suites == []
    assert report.passed


def test_unknown_suite_name_raises():
    with pytest.raises(ConfigError):
        run_all(RunConfig(grid=(32, 32)), ["no-such-suite"])


def test_runs_are_deterministic():
    cfg = RunConfig(grid=(32, 32), seed=5)
    a = run_suite("mean-curvature", cfg).to_dict()
    b = run_suite("mean-curvature", cfg).to_dict()
    assert a == b


def test_malformed_chart_parameters_fail_the_suite_with_bad_geometry():
    # a value that is not a number, and a name the annulus does not read
    for params, message in (({"r0": "a"}, "r0='a'"),
                            ({"r_0": 0.7}, "'r_0' is not read by annulus")):
        res = run_suite("gauge", RunConfig(grid=(16, 16), domain_params=params))
        assert [(c.name, c.passed) for c in res.checks] == [("error", False)]
        assert res.metrics["error"] == "BadGeometry"
        assert message in res.metrics["message"]


def test_elliptic_core_on_a_3d_run_measures_the_annulus_ladder():
    # the manufactured solution lives on annulus charts: a 3d run has no 2d
    # rungs and measures it on the named 32, 64, 128 ladder
    res = run_suite("elliptic-core", RunConfig(domain="cylindrical_shell", grid=(24, 24, 24)))
    checks = {c.name: c for c in res.checks}
    mms = res.metrics["ladders"][0]
    assert mms["grids"] == [(32, 32), (64, 64), (128, 128)]
    assert len(mms["series"]["mms"]) == 3
    assert np.isfinite(checks["mms-order"].value) and checks["mms-order"].passed
    # the residual of a solve that ran, not the 0 of an empty ladder
    assert 0.0 < checks["cg-residual"].value and checks["cg-residual"].passed


def test_report_text_has_one_line_per_suite(small_report):
    text = emit_report(small_report, "text")
    lines = text.splitlines()
    marks = [ln for ln in lines if ln.startswith("[")]
    assert len(marks) == 2
    assert all(ln.startswith("[PASS]") or ln.startswith("[FAIL]") for ln in marks)
    assert lines[-1] in ("ALL PASS", "FAILURES PRESENT")


def test_report_json_roundtrip(small_report):
    text = emit_report(small_report, "json")
    data = json.loads(text)
    assert data == json.loads(json.dumps(small_report.to_dict(), default=str))
    assert data["passed"] == small_report.passed
    assert [s["suite"] for s in data["suites"]] == ["mean-curvature", "gauge"]


def test_unknown_format_raises(small_report):
    with pytest.raises(ConfigError):
        emit_report(small_report, "yaml")
    with pytest.raises(ConfigError):  # the retired CSV report
        emit_report(small_report, "csv")


_LADDER_SUITES = [
    "boundary-identity",
    "general-identity",
    "chart-inverse",
    "generator",
    "full-decompose",
    "bracket-identity",
    "mean-curvature",
    "elliptic-core",
]


@pytest.fixture(scope="module")
def ladder_report():
    return run_all(RunConfig(grid=(64, 64)), _LADDER_SUITES)


def test_ladder_reports_are_plain_json(ladder_report):
    data = json.loads(json.dumps(ladder_report.to_dict()))
    passed = [c["passed"] for s in data["suites"] for c in s["checks"]]
    assert len(passed) > len(_LADDER_SUITES)
    assert all(type(p) is bool for p in passed)
    assert all(s["metrics"]["ladders"] for s in data["suites"])


def test_study_emits_ladder_tables(ladder_report):
    text = emit_study(ladder_report)
    lines = text.splitlines()
    ladders = [(s.suite, lad) for s in ladder_report.suites for lad in s.metrics["ladders"]]
    assert [ln[2:] for ln in lines if ln.startswith("# ")] == [s for s, _ in ladders]
    # one table row per rung of every series
    rows = sum(len(lad["grids"]) * len(lad["series"]) for _, lad in ladders)
    assert len([ln for ln in lines if ln[:1].isdigit()]) == rows
    # every printed order is its check's own value
    values = {(s.suite, c.name): c.value for s in ladder_report.suites for c in s.checks}
    printed = 0
    for ln in lines:
        if ln.startswith("# "):
            suite = ln[2:]
        elif ln.startswith("order["):
            name, value = ln[len("order["):].split("] = ")
            assert float(value) == values[suite, name], ln
            printed += 1
    assert printed == sum(len(lad["orders"]) for _, lad in ladders) > 0
    # 64x64 is coarser than the grid the absolute bounds were calibrated on
    assert "final-ratio: not binding (calibrated at 128x128)" in lines


def test_unconverged_solve_is_a_failed_check(monkeypatch):
    def capped(eta, A=None, tol=1e-10):
        raise NoConvergence("capped", iterations=7, residual=0.25)

    monkeypatch.setattr(harness, "horizontal_project", capped)
    report = run_all(RunConfig(grid=(32, 32)), ["boundary-identity", "gauge"])
    failed, other = report.suites
    assert not failed.passed and other.passed  # the run went on
    assert [c.to_dict() for c in failed.checks] == [{
        "name": "solve", "value": 0.25, "threshold": 1e-10, "kind": "max",
        "passed": False,
    }]
    assert failed.metrics == {"iterations": 7, "residual": 0.25}


@pytest.mark.parametrize("kind, shape", [
    ("annulus", (32, 32)), ("cylindrical_shell", (8, 8, 10)),
], ids=["annulus32", "shell8x8x10"])
def test_pair_projection_is_the_two_projections_in_turn(kind, shape):
    ch = build_chart(kind, shape)
    A = harness._rand_connection(ch, 5)
    e1 = random_smooth_field(ch, "oneform", 6)
    e2 = random_smooth_field(ch, "oneform", 7)
    al, be = harness._project_pair(e1, e2, A, 1e-10)
    assert np.array_equal(al.data, horizontal_project(e1, A, tol=1e-10).data)
    assert np.array_equal(be.data, horizontal_project(e2, A, tol=1e-10).data)


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "flat"])
def test_pair_projection_builds_each_cache_once(monkeypatch, connected):
    # what the two projections cache is built before the worker starts, so
    # neither thread builds it again: the connection's midpoint averages and
    # the chart's Jacobi profile, or, when flat, the separable pivots alone
    ch = build_chart("cylindrical_shell", (8, 8, 10))
    A = harness._rand_connection(ch, 5) if connected else Connection.flat(ch)
    e1 = random_smooth_field(ch, "oneform", 6)
    e2 = random_smooth_field(ch, "oneform", 7)
    calls = {"avg_mid": [], "avg_mid_t": []}
    for name, seen in calls.items():
        def counted(*args, _real=getattr(st, name), _seen=seen, **kw):
            _seen.append(1)  # atomic on either thread
            return _real(*args, **kw)
        monkeypatch.setattr(st, name, counted)
    harness._project_pair(e1, e2, A, 1e-10)
    # each projection's codifferential averages every axis once more
    averages = (3 if connected else 2) * ch.n
    assert {k: len(v) for k, v in calls.items()} == {
        "avg_mid": averages, "avg_mid_t": ch.n if connected else 0}
    assert (ch._jacobi is not None) == connected and (ch._separable is None) == connected


@pytest.mark.parametrize("failing", ["worker", "caller", "both"])
def test_a_pair_projection_that_fails_is_a_failed_check(monkeypatch, failing):
    # the first field of a pair is projected on the worker thread, the
    # second on the caller's; the first's error wins, as it would in turn
    real = harness.horizontal_project
    caller = threading.current_thread()

    def capped(eta, A=None, tol=1e-10):
        on_worker = threading.current_thread() is not caller
        if failing == "both" or on_worker == (failing == "worker"):
            raise NoConvergence("capped", iterations=3 if on_worker else 5,
                                residual=0.5 if on_worker else 0.25)
        return real(eta, A, tol)

    monkeypatch.setattr(harness, "horizontal_project", capped)
    failed = run_suite("boundary-identity", RunConfig(grid=(32, 32)))
    assert [c.name for c in failed.checks] == ["solve"] and not failed.passed
    on_worker = failing != "caller"
    assert failed.metrics == {"iterations": 3 if on_worker else 5,
                              "residual": 0.5 if on_worker else 0.25}


def test_non_finite_solve_is_a_failed_check(monkeypatch):
    real = harness.horizontal_project

    def poisoned(eta, A=None, tol=1e-10):
        # an interior node: the Green source is NaN
        eta.data[tuple(n // 2 for n in eta.chart.shape)] = np.nan
        return real(eta, A, tol)

    monkeypatch.setattr(harness, "horizontal_project", poisoned)
    failed = run_suite("boundary-identity", RunConfig(grid=(32, 32)))
    (check,) = failed.checks
    assert check.name == "solve" and np.isnan(check.value) and not check.passed
    assert failed.metrics["iterations"] == 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_verify_small_grid_passes(capsys):
    rc = cli.main(["verify", "--grid", "32x32", "mean-curvature"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] mean-curvature" in out
    assert out.strip().endswith("ALL PASS")


def test_cli_suite_error_keeps_the_report(capsys):
    # the generator's 8^2 rung has too shallow a collar; the run goes on
    rc = cli.main(
        ["verify", "--grid", "32x32", "--format", "json", "generator", "mean-curvature"]
    )
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    gen, mc = data["suites"]
    assert mc["suite"] == "mean-curvature" and mc["passed"]
    assert gen["suite"] == "generator" and not gen["passed"]
    assert [c["name"] for c in gen["checks"]] == ["error"]
    assert gen["metrics"]["error"] == "BadCover"
    assert "too shallow" in gen["metrics"]["message"]
    # the text report says why under the failed check
    rc = cli.main(["verify", "--grid", "32x32", "generator"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    at = lines.index("    FAIL error: 1 <= 0")
    assert lines[at + 1].strip() == f"BadCover: {gen['metrics']['message']}"


def test_cli_study_names_the_error_of_a_suite_without_a_ladder(capsys):
    # the generator's BadCover, as in the text report above
    rc = cli.main(["study", "--grid", "32x32", "generator", "mean-curvature"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    at = lines.index("# generator")
    assert lines[at + 1] == "    FAIL error: 1 <= 0"
    assert lines[at + 2].strip().startswith("BadCover: collar too shallow")
    assert "# mean-curvature" in lines


def test_cli_config_ladder_of_another_dimension_exits_two(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"grid": [32, 32], "ladder": [[8, 8, 8], [16, 16, 16]]}))
    rc = cli.main(["verify", "--config", str(cfgp), "boundary-identity"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: ladder grid shapes must have the grid's 2 sizes" in captured.err


def test_cli_short_rung_fails_the_identity_suites_with_bad_geometry(capsys):
    # the 4-node rung is too short for the order-4 face rule of the
    # identities; each identity suite records it and the run goes on
    rc = cli.main(["verify", "--grid", "4,5,6", "--format", "json",
                   "boundary-identity", "general-identity", "mean-curvature"])
    assert rc == 1
    bi, gi, mc = json.loads(capsys.readouterr().out)["suites"]
    for suite in (bi, gi):
        assert [c["name"] for c in suite["checks"]] == ["error"]
        assert suite["metrics"]["error"] == "BadGeometry"
        assert "reads 5 nodes" in suite["metrics"]["message"]
    assert mc["suite"] == "mean-curvature" and mc["passed"]


def test_cli_exit_one_on_failed_check(monkeypatch, capsys):
    def failing(cfg):
        return harness.SuiteResult("stub", [Check("value", 2.0, 1.0)])

    monkeypatch.setitem(harness.SUITES, "stub", failing)
    rc = cli.main(["verify", "--grid", "32x32", "stub"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "    FAIL value: 2 <= 1" in out.splitlines()
    assert "FAILURES PRESENT" in out


def test_cli_exit_two_on_config_error(capsys):
    rc = cli.main(["verify", "--domain", "moebius", "--grid", "32x32", "gauge"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # np.random.default_rng refuses a negative seed; the smallest offset a
    # suite adds is 7, so without the check -1 ran and -500 raised numpy's
    # ValueError with no report
    message = "config key 'seed' must be an integer >= 0, not -500"
    rc = cli.main(["verify", "--grid", "16x16", "--seed", "-500", "gauge", "boundary-identity"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"seed": -1}))
    for call in (lambda: RunConfig(seed=-1), lambda: RunConfig.from_json(cfgp),
                 lambda: RunConfig().with_overrides(seed=-500)):
        with pytest.raises(ConfigError, match="an integer >= 0"):
            call()
    assert RunConfig(seed=0).seed == 0


def test_cli_config_naming_jobs_exits_two(tmp_path, capsys):
    # the retired suite-worker count, and the retired check-bound overrides
    cfgp = tmp_path / "cfg.json"
    for key, value in (("jobs", 1), ("thresholds", {"gauge.cocycle": -1.0})):
        cfgp.write_text(json.dumps({key: value}))
        rc = cli.main(["verify", "--config", str(cfgp), "--grid", "32x32", "gauge"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"error: unknown config key '{key}'" in captured.err


_UNREAD = "unrecognized arguments"
_RETIRED = "invalid choice"  # a retired command or report format


@pytest.mark.parametrize("argv, message", [
    (["verify", "--jobs", "2"], _UNREAD),
    (["verify", "--dump-fields", "x"], _UNREAD),
    (["study", "--dump-fields", "x"], _UNREAD),
    (["study", "--format", "json"], _UNREAD),
    (["dump", "--format", "json"], _RETIRED),
    (["construct"], _RETIRED),
    (["verify", "--format", "csv"], _RETIRED),
], ids=["verify-jobs", "verify-dump-fields", "study-dump-fields", "study-format",
        "dump-format", "construct", "verify-format-csv"])
def test_cli_rejects_a_flag_the_command_does_not_read(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--domain", "", "--grid", "32x32"],
     "error: config key 'domain' must be one of annulus, annulus_log, periodic_slab, "
     "cylindrical_shell, slab, shell, not ''"),
    (["--grid", ""], "error: cannot parse grid ''; use e.g. 64x64 or 32,64,128"),
], ids=["domain", "grid"])
def test_cli_rejects_an_empty_domain_or_grid(capsys, argv, message):
    # an empty value reaches the config check instead of falling back to
    # the config's domain or grid
    rc = cli.main(["verify", *argv, "gauge"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def _bad_configs(tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"grid": [32, 3')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    return {
        "missing": tmp_path / "missing.json",
        "truncated": truncated,
        "directory": tmp_path,
        "binary": binary,
    }


@pytest.mark.parametrize("case", ["missing", "truncated", "directory", "binary"])
def test_config_file_that_cannot_be_read_raises_config_error(tmp_path, case):
    path = _bad_configs(tmp_path)[case]
    with pytest.raises(ConfigError, match="cannot read run configuration"):
        RunConfig.from_json(path)


@pytest.mark.parametrize("case", ["missing", "truncated", "directory", "binary"])
def test_cli_exit_two_on_an_unreadable_config(tmp_path, capsys, case):
    path = _bad_configs(tmp_path)[case]
    rc = cli.main(["verify", "--config", str(path), "--grid", "32x32", "mean-curvature"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read run configuration")


def test_cli_exit_two_on_a_report_it_cannot_write(tmp_path, capsys):
    outp = tmp_path / "no-such-dir" / "report.json"
    rc = cli.main(["verify", "--grid", "32x32", "--out", str(outp), "mean-curvature"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and str(outp) in captured.err
    assert not outp.exists()


def test_cli_checks_the_report_path_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kw):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr(cli, "run_all", no_run)
    outp = tmp_path / "no-such-dir" / "report.json"
    rc = cli.main(["verify", "--out", str(outp)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(outp) in captured.err


def test_cli_refinement_sizes_set_ladder(capsys):
    rc = cli.main(
        ["verify", "--grid", "16,32", "--format", "json", "mean-curvature"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert tuple(data["config"]["grid"]) == (32, 32)
    grids = data["suites"][0]["metrics"]["ladders"][0]["grids"]
    assert [tuple(g) for g in grids] == [(16, 16), (32, 32)]


def test_cli_domain_alias_and_output_file(tmp_path):
    outp = tmp_path / "report.txt"
    rc = cli.main(
        ["verify", "--domain", "slab", "--grid", "32x32", "--out", str(outp), "gauge"]
    )
    assert rc == 0
    text = outp.read_text()
    assert "domain=slab" in text or "domain=periodic_slab" in text
    assert "[PASS] gauge" in text
