"""Acceptance gate: the thirteen desk-scale verification criteria.

Each test runs (or reuses) the relevant verification suite at the stated
domain and grid, records one pass/fail line for the terminal summary, and
asserts every contributing check. Tolerances live in the suites themselves;
nothing is loosened here.
"""

import numpy as np
import pytest

from gaugekit.algebra import (
    ALGEBRA_DIM,
    AlgebraElement,
    commutator_decompose,
    coeff_bracket,
    exp_map,
    log_map,
    trace_inner,
)
from gaugekit.harness import RunConfig, run_suite

# one suite run per (suite, config) pair, shared across criteria
_cache = {}


def _suite(name, **kw):
    key = (name, repr(sorted(kw.items())))
    if key not in _cache:
        _cache[key] = run_suite(name, RunConfig(**kw))
    return _cache[key]


def _record(criteria, num, title, checks, detail):
    ok = all(c.passed for c in checks)
    criteria.append((num, title, ok, detail))
    failed = [f"{c.name}={c.value:.3g} (want {c.kind} {c.threshold:g})"
              for c in checks if not c.passed]
    assert ok, f"criterion {num}: " + "; ".join(failed)


_SHELL = dict(domain="cylindrical_shell", grid=(32, 32, 32), ladder=[16, 24, 32])


def _identity_detail(res):
    ladder = res.metrics["ladders"][0]
    return (
        f"order {np.median(ladder['orders']['median-order']):.2f}, "
        f"final {max(ladder['series']['ratio'][-1]):.2e}"
    )


def test_criterion_01_boundary_identity(criteria):
    checks, parts = [], []
    for label, kw in (
        ("annulus", {}),
        ("slab", dict(domain="periodic_slab")),
        ("shell", _SHELL),
    ):
        res = _suite("boundary-identity", **kw)
        checks += res.checks
        parts.append(f"{label}: {_identity_detail(res)}")
    _record(
        criteria, 1, "boundary identity, horizontal pairs", checks, "; ".join(parts)
    )


def test_criterion_02_general_identity(criteria):
    checks, parts = [], []
    for label, kw in (
        ("annulus", {}),
        ("slab", dict(domain="periodic_slab")),
        ("shell", _SHELL),
    ):
        res = _suite("general-identity", **kw)
        checks += res.checks
        parts.append(f"{label}: {_identity_detail(res)}")
    _record(criteria, 2, "general identity with source terms", checks, "; ".join(parts))


def test_criterion_03_obstruction_on_curvature(criteria):
    res = _suite("obstruction")
    m = res.metrics
    detail = (
        f"flat {m['flat']['ratio_curvature']:.2e}/{m['flat']['ratio_reference']:.2f}, "
        f"generic {m['generic']['ratio_curvature']:.2e}/"
        f"{m['generic']['ratio_reference']:.2f}"
    )
    _record(criteria, 3, "obstruction kills curvature values", res.checks, detail)


def test_criterion_04_boundary_chart_inverse(criteria):
    res = _suite("chart-inverse")
    checks = [c for c in res.checks if c.name.startswith("boundary-")]
    by = {c.name: c for c in checks}
    detail = (
        f"product {by['boundary-product'].value:.2e}, "
        f"dbc {by['boundary-dbc'].value:.2e}, "
        f"codiff order {by['boundary-codiff-order'].value:.2f}"
    )
    _record(criteria, 4, "boundary window inverse", checks, detail)


def test_criterion_05_interior_chart_inverse(criteria):
    res = _suite("chart-inverse")
    checks = [c for c in res.checks if c.name.startswith("interior-")]
    by = {c.name: c for c in checks}
    detail = (
        f"product {by['interior-product'].value:.2e}, "
        f"dbc {by['interior-dbc'].value:.2e}, "
        f"codiff order {by['interior-codiff-order'].value:.2f}"
    )
    _record(criteria, 5, "interior window inverse", checks, detail)


def test_criterion_06_bracket_identities(criteria):
    res = _suite("bracket-identity")
    by = {c.name: c for c in res.checks}
    detail = (
        f"interior {by['interior-ratio'].value:.2e} "
        f"(order {by['interior-order'].value:.2f}), "
        f"boundary {by['boundary-ratio'].value:.2e} "
        f"(order {by['boundary-order'].value:.2f})"
    )
    _record(criteria, 6, "bracket product rules", res.checks, detail)


def test_criterion_07_generator_realizes_face_data(criteria):
    res = _suite("generator")
    by = {c.name: c for c in res.checks}
    detail = (
        f"residual {by['residual'].value:.2e}, hopf min {by['hopf-min'].value:.3g}"
    )
    _record(criteria, 7, "commutator generator", res.checks, detail)


def test_criterion_08_full_decomposition(criteria):
    res = _suite("full-decompose")
    by = {c.name: c for c in res.checks}
    detail = f"certificate residual {by['residual'].value:.2e} over 3 targets"
    _record(criteria, 8, "full decomposition certificate", res.checks, detail)


def test_criterion_09_mean_curvature(criteria):
    res = _suite("mean-curvature")
    by = {c.name: c for c in res.checks}
    detail = (
        f"annulus {by['annulus-analytic'].value:.2e}, "
        f"slab {by['slab-zero'].value:.2e}, "
        f"shell {by['shell-analytic'].value:.2e}, "
        f"agreement order {by['type-agreement-order'].value:.2f}"
    )
    _record(criteria, 9, "mean curvature both metric types", res.checks, detail)


def test_criterion_10_elliptic_core(criteria):
    res = _suite("elliptic-core")
    by = {c.name: c for c in res.checks}
    detail = (
        f"adjointness {by['adjointness'].value:.2e}, "
        f"mms order {by['mms-order'].value:.2f}, "
        f"eigenvalue drift {by['eigenvalue-drift'].value:.2e}"
    )
    _record(criteria, 10, "elliptic core", res.checks, detail)


def test_criterion_11_gauge_action(criteria):
    res = _suite("gauge")
    by = {c.name: c for c in res.checks}
    detail = (
        f"cocycle {by['cocycle'].value:.2e}, dbc {by['dbc-preserved'].value:.2e}, "
        f"freeness margin {by['freeness-margin'].value:.2f}"
    )
    _record(criteria, 11, "gauge action identities", res.checks, detail)


def test_criterion_12_holonomy_area_law(criteria):
    res = _suite("holonomy")
    m = res.metrics
    detail = (
        f"ratio k2 {m['k2']['ratio']:.2f}, k4 {m['k4']['ratio']:.2f}, "
        f"cosine {min(m['k2']['cosine'], m['k4']['cosine']):.3f}"
    )
    _record(criteria, 12, "holonomy area law", res.checks, detail)


def test_criterion_13_algebra_layer(criteria):
    from gaugekit.harness import Check

    rng = np.random.default_rng(0)
    worst_jac = worst_ad = worst_rt = worst_dec = 0.0
    for _ in range(20):
        x, y, z = (AlgebraElement(rng.standard_normal(ALGEBRA_DIM)) for _ in range(3))
        jac = (
            coeff_bracket(x.coeffs, coeff_bracket(y.coeffs, z.coeffs))
            + coeff_bracket(y.coeffs, coeff_bracket(z.coeffs, x.coeffs))
            + coeff_bracket(z.coeffs, coeff_bracket(x.coeffs, y.coeffs))
        )
        worst_jac = max(worst_jac, float(np.max(np.abs(jac))))
        ad = trace_inner(
            AlgebraElement(coeff_bracket(x.coeffs, y.coeffs)), z
        ) + trace_inner(y, AlgebraElement(coeff_bracket(x.coeffs, z.coeffs)))
        worst_ad = max(worst_ad, abs(float(ad)))
        small = AlgebraElement(0.5 * rng.standard_normal(ALGEBRA_DIM))
        back = log_map(exp_map(small))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - small.coeffs))))
        target = rng.standard_normal(ALGEBRA_DIM)
        total = np.zeros(ALGEBRA_DIM)
        for a, b in commutator_decompose(AlgebraElement(target)):
            total = total + coeff_bracket(a.coeffs, b.coeffs)
        worst_dec = max(worst_dec, float(np.max(np.abs(total - target))))
    checks = [
        Check("jacobi", worst_jac, 1e-13),
        Check("ad-invariance", worst_ad, 1e-13),
        Check("exp-log-roundtrip", worst_rt, 1e-12),
        Check("decompose-reconstruction", worst_dec, 1e-12),
    ]
    detail = (
        f"jacobi {worst_jac:.1e}, ad {worst_ad:.1e}, "
        f"roundtrip {worst_rt:.1e}, decompose {worst_dec:.1e}"
    )
    _record(criteria, 13, "algebra layer exactness", checks, detail)
