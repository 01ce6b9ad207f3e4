"""Negative controls: a check must fail when the stage it certifies is broken.

Each test runs a check once as built and once with one stage deliberately
mutated, and asserts that the mutation is caught. A check that still
passes on the mutated input certifies nothing.
"""

import numpy as np

import gaugekit.constructions as con
import gaugekit.coulomb as cm
import gaugekit.operators as ops
from gaugekit import _stencils as st
from gaugekit import (
    boundary_identity_residual,
    build_chart,
    horizontal_project,
    obstruction_report,
    random_smooth_field,
)
from gaugekit.algebra import qexp, qmul
from gaugekit.geometry import BoundaryField
from gaugekit.harness import _GENTLE, RunConfig, run_suite


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


def _face_map_ratios():
    # the boundary-identity suite's first pair at seed 0 on the 128^2
    # annulus, flat: its identity ratio, and T_A's cancellation ratio on the
    # pair's curvature value, as the obstruction suite takes it
    ch = build_chart("annulus", (128, 128))
    a, b = (horizontal_project(random_smooth_field(ch, "oneform", s, **_GENTLE))
            for s in (100, 101))
    return boundary_identity_residual(a, b).ratio, obstruction_report(a, b).ratio_curvature


def test_flipped_mean_curvature_fails_the_identity_and_the_obstruction(monkeypatch):
    # both boundary operators read H in the face map alone; the bounds are
    # the identity's final-ratio (1e-3) and the obstruction's curvature
    # ratio (2e-2). At 64^2 the unmutated values already miss them.
    identity, cancellation = _face_map_ratios()
    assert identity < 1e-3 and cancellation < 2e-2  # 3.7e-4 and 1.3e-2

    curvature = ops.mean_curvature

    def flipped(ch):
        H = curvature(ch)
        return BoundaryField(ch, {side: -v for side, v in H.values.items()})

    monkeypatch.setattr(ops, "mean_curvature", flipped)
    identity, cancellation = _face_map_ratios()
    assert identity >= 1e-3 and cancellation >= 2e-2  # 8.0 and 1.0


def _chart_inverse_failures():
    report = run_suite("chart-inverse", RunConfig())
    return {c.name: c.value for c in report.checks if not c.passed}


def test_flipped_normal_coefficient_fails_route_and_horizontality(monkeypatch):
    assert _chart_inverse_failures() == {}

    coefficients = con._window_coefficients

    def flipped(psi, t, sgn):
        # alpha's normal slot with the wrong sign: alpha is no longer the
        # star route of its potential F, nor horizontal, but the product
        # (beta has no normal slot) and the Dirichlet traces are untouched
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


def test_star_route_without_its_volume_fails_the_route(monkeypatch):
    # the route, not alpha, is broken here: alpha stays horizontal and
    # product-exact, and only its distance from the route stops converging
    assert _chart_inverse_failures() == {}

    def unweighted(ch, F):
        d0, d1 = (st.deriv_node(F, ax, ch.h[ax], ch.periodic[ax]) for ax in range(2))
        return np.stack([ch.ginv[..., 1] * d1, -(ch.ginv[..., 0] * d0)], axis=-1)

    monkeypatch.setattr(con, "_star_route", unweighted)
    failures = _chart_inverse_failures()
    assert set(failures) == {
        f"{w}-{check}" for w in ("boundary", "interior")
        for check in ("route-order", "route-monotone")
    }
    # at 128^2: route orders -0.74 / -0.96, route-monotone 1.24 / 1.32
    assert all(failures[f"{w}-route-order"] < 0.0 and failures[f"{w}-route-monotone"] > 1.0
               for w in ("boundary", "interior"))


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


def _generator_failures():
    report = run_suite("generator", RunConfig())
    return {c.name: c.value for c in report.checks if not c.passed}


def test_hopf_derivative_of_the_other_face_fails_the_generator(monkeypatch):
    assert _generator_failures() == {}

    derivative = con.normal_derivative

    def other_face(ch, data, face, order=2):
        # the collar source scaled by the Hopf derivative of the opposite
        # face, which differs from the own face's on the annulus
        return derivative(ch, data, ch.faces[1 - face.side], order)

    monkeypatch.setattr(con, "normal_derivative", other_face)
    failures = _generator_failures()
    # at 128^2: residual 0.414 against 5e-2, monotone 1.049 against 1
    assert set(failures) == {"residual", "monotone"}
    assert failures["residual"] > 0.2 and failures["monotone"] > 1.0
