"""Tiny-grid passes of every workload through the worker's main path."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: the workloads' suites on grids small enough that a pass takes a few seconds
SMOKE = {
    "flat-construct": [
        (
            "annulus",
            dict(grid=(32, 32), ladder=[16, 24, 32]),
            ("generator", "full-decompose"),
        ),
    ],
    "connected-identity": [
        ("annulus", dict(grid=(32, 32)), ("boundary-identity",)),
        (
            "shell",
            dict(domain="cylindrical_shell", grid=(12, 12, 12), ladder=[8, 12]),
            ("boundary-identity",),
        ),
    ],
    "no-solve": [
        (
            "annulus",
            dict(grid=(64, 64)),
            ("chart-inverse", "general-identity", "holonomy", "mean-curvature"),
        ),
    ],
}


def smoke(workload, tmp_path, monkeypatch, capsys):
    spans_path = tmp_path / "spans.jsonl"
    monkeypatch.setattr(worker, "WORKLOADS", SMOKE)
    code = worker.main(["--workload", workload, "--seconds", "0", "--trace", "1",
                        "--spans", str(spans_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1]), spans_path


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass(workload, tmp_path, monkeypatch, capsys):
    res, spans_path = smoke(workload, tmp_path, monkeypatch, capsys)
    untraced, traced = res["passes"]
    assert traced["traced"] and traced["checks"] == untraced["checks"]
    ref = json.loads((run.HERE / "reference" / f"{workload}.json").read_text())
    suites = {k.rsplit("/", 1)[0] for k in ref["seeds"]["0"]}
    assert {k.rsplit("/", 1)[0] for k in untraced["checks"]} == suites
    assert set(untraced["checks"]) <= set(ref["seeds"]["0"])

    layer = res["per_layer"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layer)
    flat, conn = layer["operators.green_A.flat.calls"], layer["operators.green_A.conn.calls"]
    if workload == "flat-construct":
        assert flat > 0 and conn == 0
    elif workload == "connected-identity":
        assert conn > 0 and flat == 0
        assert layer["operators.horizontal_project.calls"] == conn
    else:
        assert flat == conn == 0
    assert layer["harness.self_s"] >= 0
    n_spans = sum(1 for _ in spans_path.open())
    assert n_spans == sum(v for k, v in layer.items() if k.endswith(".calls")) + sum(
        len(ss) for _, _, ss in SMOKE[workload]
    )


def test_probe_reports_ready_and_exits():
    proc, ready = run.start_worker(["--probe"], run.worker_env())
    assert proc.wait(timeout=60) == 0
    assert ready > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "no-solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
