"""Negative controls: a check must fail when the stage it certifies is broken.

Each test runs a check once as built and once with one stage deliberately
mutated, and asserts that the mutation is caught. A check that still
passes on the mutated input certifies nothing.
"""

import numpy as np

import gaugekit.constructions as con
import gaugekit.coulomb as cm
from gaugekit import boundary_identity_residual, build_chart, random_smooth_field
from gaugekit.algebra import qexp, qmul
from gaugekit.geometry import BoundaryField
from gaugekit.harness import RunConfig, run_suite


def _area_law(result):
    return [c for c in result.checks if c.name.startswith("area-law")]


def test_loop_left_one_cell_open_fails_the_area_law(monkeypatch):
    cfg = RunConfig(grid=(64, 64))
    assert all(c.passed for c in _area_law(run_suite("holonomy", cfg)))

    closed = cm._loop_transports

    def open_loops(A, ks):
        # undo the first link, along the tangential axis out of the start
        # node: the loop starts one cell late, at x + e_0, and ends at x
        ch = A.chart
        eta = A.eta.data[..., 0, :]
        mid = 0.5 * (eta + np.roll(eta, -1, axis=0))
        back = np.stack(qexp(np.moveaxis(ch.h[0] * mid, -1, 0)))
        for k, U in closed(A, ks):
            yield k, qmul(U, back[..., : U.shape[-1]])

    monkeypatch.setattr(cm, "_loop_transports", open_loops)
    checks = _area_law(run_suite("holonomy", cfg))
    assert checks
    # the missing link adds a defect of order h |A_0| whatever the loop size,
    # which pulls the doubling ratio below 3.6 (2.0 and 2.8 at seed 0)
    assert not any(c.passed for c in checks if c.name.startswith("area-law-low"))


def test_loop_left_open_by_its_last_normal_cell_fails_the_alignment(monkeypatch):
    # the area law alone misses this one: the missing link's defect
    # h_n |A_n| is as small as the area term (h_n = 0.5/N on the annulus),
    # so both area-law ratios stay in [3.6, 4.4] at 64^2; the defect
    # direction no longer follows the curvature
    cfg = RunConfig(grid=(64, 64))
    assert run_suite("holonomy", cfg).passed

    closed = cm._loop_transports

    def open_loops(A, ks):
        # undo the last link, the normal cell from x + e_n back down to x:
        # the loop ends one cell short of its start
        ch = A.chart
        eta = A.eta.data[..., -1, :]
        mid = 0.5 * (eta[:, :-1] + eta[:, 1:])
        last = np.stack(qexp(np.moveaxis(-ch.h[-1] * mid, -1, 0)))
        for k, U in closed(A, ks):
            yield k, qmul(last[..., : U.shape[-1]], U)

    monkeypatch.setattr(cm, "_loop_transports", open_loops)
    result = run_suite("holonomy", cfg)
    failed = {c.name for c in result.checks if not c.passed}
    assert "alignment-k2" in failed


def _general_over_plain():
    # the configuration of test_coulomb's general-identity source-term test
    ch = build_chart("annulus", (64, 64))
    a = random_smooth_field(ch, "oneform", 20)
    b = random_smooth_field(ch, "oneform", 21)
    plain = boundary_identity_residual(a, b, None, general=False)
    general = boundary_identity_residual(a, b, None, general=True)
    return general.ratio / plain.ratio


def test_flipped_source_terms_fail_the_general_identity(monkeypatch):
    assert _general_over_plain() < 0.25

    faces = cm._codiff_at_faces

    def flipped(omega, A=None):
        bf = faces(omega, A)
        return BoundaryField(bf.chart, {side: -v for side, v in bf.values.items()})

    monkeypatch.setattr(cm, "_codiff_at_faces", flipped)
    assert _general_over_plain() >= 0.25


def _chart_inverse_failures():
    report = run_suite("chart-inverse", RunConfig())
    return {c.name: c.value for c in report.checks if not c.passed}


def test_flipped_normal_coefficient_fails_route_and_horizontality(monkeypatch):
    assert _chart_inverse_failures() == {}

    coefficients = con._window_coefficients

    def flipped(psi, t, sgn):
        # alpha's normal slot with the wrong sign: alpha is no longer the
        # codifferential of omega, nor horizontal, but the product (beta
        # has no normal slot) and the Dirichlet traces are untouched
        a, b, F = coefficients(psi, t, sgn)
        a[..., 1] *= -1.0
        return a, b, F

    monkeypatch.setattr(con, "_window_coefficients", flipped)
    failures = _chart_inverse_failures()
    assert set(failures) == {
        f"{w}-{check}"
        for w in ("boundary", "interior")
        for check in ("route-order", "route-monotone", "codiff-order")
    }
    # at 128^2: route orders -0.13 / -0.03, codiff orders -0.10 / -0.12
    assert all(failures[f"{w}-{c}"] < 0.0 for w in ("boundary", "interior")
               for c in ("route-order", "codiff-order"))


def test_halved_beta_fails_the_product(monkeypatch):
    coefficients = con._window_coefficients

    def halved(psi, t, sgn):
        a, b, F = coefficients(psi, t, sgn)
        return a, 0.5 * b, F

    monkeypatch.setattr(con, "_window_coefficients", halved)
    failures = _chart_inverse_failures()
    # a residual of one half at every rung: the product fails its bound of
    # 1e-3, and its order (a constant series) reads 0
    assert set(failures) == {
        f"{w}-{check}" for w in ("boundary", "interior")
        for check in ("product", "product-order")
    }
    for w in ("boundary", "interior"):
        assert abs(failures[f"{w}-product"] - 0.5) < 1e-12
