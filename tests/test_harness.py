"""Run configuration, convergence bookkeeping, report emission, CLI."""

import json

import numpy as np
import pytest

from gaugekit import cli
from gaugekit.errors import ConfigError
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
    assert not Check("a", 2e-3, 1e-3, "max").passed
    assert Check("b", 1.8, 1.5, "min").passed
    assert not Check("b", 1.2, 1.5, "min").passed
    assert Check("c", 0.1, 0.0, "gt").passed
    assert Check("d", 0.5, 1.0, "lt").passed
    assert not Check("e", float("nan"), 1e-3, "max").passed


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
    cfg = RunConfig(grid=(64, 64), ladder=[64, 64])
    with pytest.raises(ConfigError):
        cfg.ladder_shapes()
    cfg2 = RunConfig(grid=(64, 64), ladder=[64, 32])
    with pytest.raises(ConfigError):
        cfg2.ladder_shapes()


def test_config_json_roundtrip(tmp_path):
    cfg = RunConfig(
        domain="periodic_slab",
        grid=(48, 48),
        ladder=[24, 48],
        seed=3,
        thresholds={"mean-curvature.slab-zero": 1e-10},
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
        {"jobs": "2"},
        {"jobs": 0},
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
        {"thresholds": {"gauge.cocycle": "1e-12"}},
        {"ladder_shapes": None},
        [64, 64],
        {"ladder": [64, 32]},
        {"ladder": [64, 64]},
    ],
)
def test_config_rejects_malformed_values(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        RunConfig.from_json(path)


@pytest.mark.parametrize(
    "kw",
    [{"ladder_shapes": 3}, {"jobs": "2"}, {"grid": (2, 2)}, {"ladder": [64, 32]}],
    ids=["method-name", "string-jobs", "small-grid", "decreasing-ladder"],
)
def test_overrides_reject_malformed_values(kw):
    with pytest.raises(ConfigError):
        RunConfig().with_overrides(**kw)


def test_cli_grid_override_passes_the_check():
    args = cli.build_parser().parse_args(["verify", "--grid", "64x64", "--jobs", "2"])
    cfg = cli._load_config(args)
    assert cfg.grid == (64, 64)
    assert cfg.jobs == 2


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


def test_alias_resolves_to_canonical_suite():
    cfg = RunConfig(grid=(24, 24), solve_tol=1e-8)
    res = run_suite("poincare", cfg)
    assert res.suite == "elliptic-core"


def test_runs_are_deterministic():
    cfg = RunConfig(grid=(32, 32), seed=5)
    a = run_suite("mean-curvature", cfg).to_dict()
    b = run_suite("mean-curvature", cfg).to_dict()
    assert a == b


def test_threshold_override_flips_a_check():
    cfg = RunConfig(grid=(32, 32))
    base = run_suite("mean-curvature", cfg)
    assert base.passed
    forced = run_suite(
        "mean-curvature",
        cfg.with_overrides(thresholds={"mean-curvature.slab-zero": -1.0}),
    )
    assert not forced.passed
    names = [c.name for c in forced.checks if not c.passed]
    assert names == ["slab-zero"]


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


def test_report_csv_row_count(small_report):
    text = emit_report(small_report, "csv")
    rows = text.strip().splitlines()
    nchecks = sum(len(s.checks) for s in small_report.suites)
    assert rows[0] == "suite,check,kind,value,threshold,passed"
    assert len(rows) == 1 + nchecks


def test_unknown_format_raises(small_report):
    with pytest.raises(ConfigError):
        emit_report(small_report, "yaml")


def test_study_emits_ladder_tables():
    cfg = RunConfig(grid=(48, 48))
    report = run_all(cfg, ["boundary-identity"])
    text = emit_study(report)
    assert "# boundary-identity" in text
    assert "order[" in text
    # one table row per ladder rung
    rung_rows = [ln for ln in text.splitlines() if ln.startswith(("12x", "24x", "48x"))]
    assert len(rung_rows) == len(report.suites[0].metrics["grids"])


def test_parallel_jobs_give_identical_results():
    cfg = RunConfig(grid=(32, 32), seed=2)
    seq = run_all(cfg, ["mean-curvature", "gauge"])
    par = run_all(cfg.with_overrides(jobs=2), ["mean-curvature", "gauge"])
    a = [s.to_dict() for s in seq.suites]
    b = [s.to_dict() for s in par.suites]
    assert a == b


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_verify_small_grid_passes(capsys):
    rc = cli.main(["verify", "--grid", "32x32", "mean-curvature"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] mean-curvature" in out
    assert out.strip().endswith("ALL PASS")


def test_cli_exit_one_on_failed_check(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"thresholds": {"mean-curvature.slab-zero": -1.0}}))
    rc = cli.main(
        ["verify", "--config", str(cfgp), "--grid", "32x32", "mean-curvature"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILURES PRESENT" in out


def test_cli_exit_two_on_config_error(capsys):
    rc = cli.main(["verify", "--domain", "moebius", "--grid", "32x32", "gauge"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_cli_refinement_sizes_set_ladder(capsys):
    rc = cli.main(
        ["study", "--grid", "16,32", "--format", "json", "mean-curvature"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert tuple(data["config"]["grid"]) == (32, 32)
    grids = data["suites"][0]["metrics"]["grids"]
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


def test_cli_dump_writes_field_files(tmp_path, capsys):
    rc = cli.main(["dump", "--grid", "48x48", "--dump-fields", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert rc == 0
    listed = [ln for ln in out.splitlines() if ln.strip()]
    assert listed
    import os

    for path in listed:
        assert os.path.exists(path)


def test_cli_poincare_alias(capsys):
    rc = cli.main(["verify", "--grid", "24x24", "poincare"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "elliptic-core" in out
