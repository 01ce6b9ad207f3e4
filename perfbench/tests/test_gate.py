"""The correctness gate that compares a pass against its reference report."""

import json
import math

import pytest

import run
from workloads import N_SEEDS, WORKLOADS

REF = {"s/a": [1.0e-3, True], "s/b": [2.0, True], "s/c": [float("inf"), True],
       "s/d": [float("nan"), False]}


def gate(checks):
    return run.gate(checks, REF, rtol=1e-6, atol=1e-10)


def test_identical_pass_matches_and_fails_only_the_stored_failure():
    bad, n, matches = gate({k: list(v) for k, v in REF.items()})
    assert n == 4
    assert list(bad) == ["s/d"]
    assert matches


def test_drift_within_tolerance_passes_and_beyond_fails():
    checks = {k: list(v) for k, v in REF.items()}
    checks["s/b"] = [2.0 * (1 + 1e-8), True]
    checks["s/a"] = [1.0e-3 + 5e-11, True]
    assert list(gate(checks)[0]) == ["s/d"]
    checks["s/b"] = [2.0 * (1 + 1e-5), True]
    bad, _, matches = gate(checks)
    assert "drifted" in bad["s/b"] and not matches


def test_changed_verdict_fails_and_does_not_match():
    checks = {k: list(v) for k, v in REF.items()}
    checks["s/d"] = [float("nan"), True]
    bad, _, matches = gate(checks)
    assert "verdict" in bad["s/d"] and not matches


def test_threshold_failure_missing_and_extra_checks_count():
    checks = {k: list(v) for k, v in REF.items() if k != "s/c"}
    checks["s/a"] = [1.0e-3, False]
    checks["s/new"] = [0.0, True]
    bad, n, matches = gate(checks)
    assert n == 5
    assert set(bad) == {"s/a", "s/c", "s/d", "s/new"}
    assert "missing" in bad["s/c"] and not matches


def test_nan_and_inf_compare_by_identity():
    assert run.close_enough(float("nan"), float("nan"), 1e-6, 1e-10)
    assert not run.close_enough(1.0, float("nan"), 1e-6, 1e-10)
    assert run.close_enough(math.inf, math.inf, 1e-6, 1e-10)
    assert not run.close_enough(1e300, math.inf, 1e-6, 1e-10)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_covers_every_seed(workload):
    doc = json.loads((run.HERE / "reference" / f"{workload}.json").read_text())
    assert sorted(doc["seeds"], key=int) == [str(s) for s in range(N_SEEDS)]
    assert doc["rtol"] <= 1e-6 and doc["atol"] <= 1e-10
    keys = {tuple(sorted(checks)) for checks in doc["seeds"].values()}
    assert len(keys) == 1


def test_known_seed_one_failure_is_stored_as_a_failure():
    doc = json.loads((run.HERE / "reference" / "connected-identity.json").read_text())
    value, passed = doc["seeds"]["1"]["annulus/boundary-identity/final-ratio"]
    assert not passed and value > 1e-3
    assert all(p for s in ("0",) for _, p in doc["seeds"][s].values())
