"""Window inverses, collar partitions, generators, and decompositions."""

import numpy as np
import pytest

from gaugekit import (
    ALGEBRA_DIM,
    OneForm,
    ScalarField,
    Section,
    build_chart,
    horizontality_ratio,
    random_smooth_field,
)
from gaugekit.algebra import coeff_bracket
from gaugekit.constructions import (
    LADDER,
    BumpKit,
    band_profile,
    boundary_chart_inverse,
    bracket_boundary_identity_check,
    bracket_identity_check,
    full_decompose,
    generator_for_boundary_data,
    interior_inverse,
    kernel_class_potential,
    kernel_decompose,
    make_partition_of_unity,
)
from gaugekit.errors import (
    BadCover,
    BadGeometry,
    KernelConditionViolated,
    SupportTouchesBoundary,
    WindowTooSmall,
)
from gaugekit.fields import check_dbc
from gaugekit.geometry import BoundaryField
from gaugekit.operators import boundary_operator_T, bracket_dot


def _unit(k):
    v = np.zeros(ALGEBRA_DIM)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# smooth window ingredients
# ---------------------------------------------------------------------------


def test_bump_kit_support_and_smoothness():
    t = np.linspace(-1.0, 2.0, 301)
    s = BumpKit.smoothstep(t)
    assert np.all(s[t <= 0.0] == 0.0)
    assert np.all(s[t >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    b = BumpKit.bump01(t)
    assert np.all(b[(t <= 0.0) | (t >= 1.0)] == 0.0)
    assert abs(float(np.max(b)) - 1.0) < 1e-6


def test_band_profile_peak_and_support():
    ch = build_chart("annulus", (64, 64))
    psi = band_profile(ch, side=0, scale=0.37)
    assert abs(float(np.max(np.abs(psi.data))) - 0.37) < 1e-14
    # support sits inside the band fractions of the collar depth
    r = ch.coords[-1]
    depth = 0.8 * (r[-1] - r[0])
    t = (r - r[0]) / depth
    outside = (t <= LADDER[3]) | (t >= LADDER[4])
    assert float(np.max(np.abs(psi.data[:, outside]))) == 0.0


def test_band_profile_needs_resolvable_band():
    ch = build_chart("annulus", (8, 4))
    with pytest.raises(WindowTooSmall):
        band_profile(ch, side=0)


def test_band_coordinates_reject_bad_windows():
    ch = build_chart("annulus", (32, 32))
    with pytest.raises(SupportTouchesBoundary):
        interior_inverse(band_profile(ch, side=0), interval=(0.5, 1.0))
    with pytest.raises(BadGeometry):
        band_profile(ch)  # neither side nor interval


# ---------------------------------------------------------------------------
# window inverses
# ---------------------------------------------------------------------------


def test_zero_profile_gives_zero_pair():
    ch = build_chart("annulus", (48, 48))
    res = boundary_chart_inverse(ScalarField(ch, np.zeros(ch.shape)))
    assert res.alpha.sup() == 0.0
    assert res.beta.sup() == 0.0
    assert res.product_residual == 0.0
    assert res.route_difference == 0.0


def test_boundary_inverse_realizes_the_product():
    # independent recomputation: bracket_dot(alpha, beta) vs psi [e_a, e_b];
    # the window construction realizes the product identically, so the
    # relative residual is pure roundoff
    for n in (64, 96):
        ch = build_chart("annulus", (n, n))
        psi = band_profile(ch, side=0)
        res = boundary_chart_inverse(psi)
        prod = bracket_dot(res.alpha, res.beta)
        target = psi.data[..., None] * coeff_bracket(_unit(0), _unit(1))
        num = float(np.max(np.abs(prod.data - target)))
        den = float(np.max(np.abs(target)))
        assert abs(num / den - res.product_residual) < 1e-12
        assert res.product_residual < 1e-12


def test_inverse_pairs_are_dirichlet_and_horizontal():
    # traces are exact; the codifferential of alpha is a discretization
    # residual that refines away at second order, and beta (a plateau in a
    # single tangential slot) is exactly divergence free
    ch = build_chart("annulus", (96, 96))
    for res in (
        boundary_chart_inverse(band_profile(ch, side=0)),
        boundary_chart_inverse(band_profile(ch, side=1), side=1),
        interior_inverse(band_profile(ch, interval=(0.62, 0.88)), interval=(0.62, 0.88)),
    ):
        for w in (res.alpha, res.beta):
            ok, worst = check_dbc(w, 1e-12)
            assert ok, worst
        assert res.horizontality_beta == 0.0
        assert abs(horizontality_ratio(res.alpha) - res.horizontality_alpha) < 1e-12
    ratios, hs = [], []
    for n in (64, 96, 128):
        chn = build_chart("annulus", (n, n))
        resn = boundary_chart_inverse(band_profile(chn, side=0))
        ratios.append(resn.horizontality_alpha)
        hs.append(max(chn.h))
    order = np.log(ratios[1] / ratios[2]) / np.log(hs[1] / hs[2])
    assert order > 1.5


def test_interior_inverse_realizes_the_product():
    ch = build_chart("annulus", (96, 96))
    iv = (0.60, 0.90)
    psi = band_profile(ch, interval=iv)
    res = interior_inverse(psi, interval=iv, pair=(1, 2))
    prod = bracket_dot(res.alpha, res.beta)
    target = psi.data[..., None] * coeff_bracket(_unit(1), _unit(2))
    num = float(np.max(np.abs(prod.data - target)))
    assert num / float(np.max(np.abs(target))) < 1e-12
    # the pair is supported inside the band: zero outside a small margin
    r = ch.coords[-1]
    away = (r < iv[0] - 0.02) | (r > iv[1] + 0.02)
    assert float(np.max(np.abs(res.alpha.data[:, away]))) < 1e-15
    assert float(np.max(np.abs(res.beta.data[:, away]))) < 1e-15


def test_two_routes_to_alpha_agree_under_refinement():
    diffs, hs = [], []
    for n in (64, 96, 128):
        ch = build_chart("annulus", (n, n))
        res = boundary_chart_inverse(band_profile(ch, side=0))
        diffs.append(res.route_difference)
        hs.append(max(ch.h))
    assert diffs[2] < diffs[1] < diffs[0]
    order = np.log(diffs[1] / diffs[2]) / np.log(hs[1] / hs[2])
    assert order > 1.0


# ---------------------------------------------------------------------------
# collar partitions of unity
# ---------------------------------------------------------------------------


def test_partition_sums_to_collar_plateau():
    ch = build_chart("annulus", (64, 64))
    parts = make_partition_of_unity(ch, side=0, pieces=6)
    total = sum(p.data for p in parts)
    assert float(np.min(total)) >= 0.0
    for p in parts:
        assert float(np.min(p.data)) >= 0.0
    # exactly one on the first node layers at the face
    np.testing.assert_allclose(total[:, 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(total[:, 1], 1.0, atol=1e-14)
    # zero beyond the collar
    assert float(np.max(np.abs(total[:, -1]))) == 0.0


def test_single_piece_partition_rejected_and_shallow_collar():
    ch = build_chart("annulus", (64, 64))
    with pytest.raises(BadCover):
        make_partition_of_unity(ch, side=0, pieces=1)
    with pytest.raises(BadCover):
        make_partition_of_unity(ch, side=0, depth=3.0 * ch.h[-1])


# ---------------------------------------------------------------------------
# generator for prescribed boundary data
# ---------------------------------------------------------------------------


def _face_target(ch, side, values):
    vals = {f.side: np.zeros(ch.tangential_shape + (ALGEBRA_DIM,)) for f in ch.faces}
    vals[side][...] = values
    return BoundaryField(ch, vals)


def test_generator_zero_target_returns_nothing():
    ch = build_chart("annulus", (48, 48))
    gen = generator_for_boundary_data(_face_target(ch, 0, 0.0))
    assert gen.pairs == []
    assert gen.residual == 0.0
    assert gen.u.sup() == 0.0
    assert gen.hopf_min > 0.0


def test_generator_constant_target_converges():
    resid = []
    for n in (64, 96):
        ch = build_chart("annulus", (n, n))
        gen = generator_for_boundary_data(_face_target(ch, 1, 0.7 * _unit(0)), side=1)
        assert gen.hopf_min > 0.0
        assert len(gen.pairs) == 1
        resid.append(gen.residual)
    assert resid[1] < resid[0]
    assert resid[1] < 5e-2


def test_generator_realizes_smooth_face_data():
    ch = build_chart("annulus", (96, 96))
    th = ch.coords[0]
    vals = np.zeros(ch.tangential_shape + (ALGEBRA_DIM,))
    vals[..., 0] = 0.4 + 0.2 * np.sin(th)
    vals[..., 2] = 0.3 * np.cos(2 * th)
    gen = generator_for_boundary_data(_face_target(ch, 0, 0.0) + BoundaryField(
        ch, {0: vals, 1: np.zeros_like(vals)}
    ))
    assert len(gen.pairs) == 2  # two active algebra directions
    assert gen.residual < 5e-2
    # realized is really T applied to the commutator sum
    again = boundary_operator_T(gen.u, None)
    diff = max(
        float(np.max(np.abs(again.values[s] - gen.realized.values[s]))) for s in (0, 1)
    )
    assert diff == 0.0


def test_generator_requires_flat_base_point():
    from gaugekit.operators import Connection

    ch = build_chart("annulus", (48, 48))
    A = Connection(ch, random_smooth_field(ch, "oneform", 1, scale=0.2))
    with pytest.raises(BadGeometry):
        generator_for_boundary_data(_face_target(ch, 0, _unit(0)), A=A)


def test_generator_needs_unit_speed_normal():
    from gaugekit.errors import NotTypeA

    ch = build_chart("annulus_log", (48, 48))
    with pytest.raises(NotTypeA):
        generator_for_boundary_data(_face_target(ch, 0, _unit(0)))


# ---------------------------------------------------------------------------
# kernel stage and the full decomposition
# ---------------------------------------------------------------------------


def test_kernel_decompose_zero_field():
    ch = build_chart("annulus", (48, 48))
    kd = kernel_decompose(Section.zeros(ch))
    assert kd.gate_ratio == 0.0
    assert kd.residual == 0.0


def test_kernel_class_potential_passes_gate_and_reconstructs():
    ch = build_chart("annulus", (96, 96))
    g, f = kernel_class_potential(ch, 11)
    kd = kernel_decompose(g, gate=0.05)
    assert kd.gate_ratio < 5e-3
    assert kd.residual < 5e-3
    # pieces sum back to the masked source
    total = sum(p.data for _, p in kd.pieces)
    from gaugekit.operators import laplacian_A

    q = laplacian_A(g, None, form="pointwise")
    np.testing.assert_allclose(total, q.data, atol=1e-12 * max(1.0, q.sup()))


def test_kernel_gate_rejects_generic_sections():
    ch = build_chart("annulus", (48, 48))
    v = random_smooth_field(ch, "section", 3)
    with pytest.raises(KernelConditionViolated):
        kernel_decompose(v, gate=1e-8)


def test_full_decomposition_certificate():
    ch = build_chart("annulus", (96, 96))
    u = random_smooth_field(ch, "section", 5)
    cert = full_decompose(u)
    assert cert.residual < 5e-2
    assert cert.n_pairs >= 1
    assert cert.kernel_gate_ratio < 0.25
    # the two stages really recombine to the certificate residual
    from gaugekit.fields import l2_norm

    re = l2_norm(cert.u_commutator + cert.u_kernel - u) / l2_norm(u)
    assert abs(re - cert.residual) < 1e-12


def test_full_decomposition_scores_generator_on_its_face():
    # each stage-one call targets one face; scoring it against the trace on
    # both faces would read about 1 whatever the grid
    res = []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        u = random_smooth_field(ch, "section", 100)
        res.append(full_decompose(u).generator_residual)
    assert res[0] < 5e-2
    assert res[1] < res[0]


def test_full_decomposition_zero_input():
    ch = build_chart("annulus", (48, 48))
    cert = full_decompose(Section.zeros(ch))
    assert cert.residual == 0.0
    assert cert.n_pairs == 0


# ---------------------------------------------------------------------------
# bracket identities
# ---------------------------------------------------------------------------


def test_bracket_identity_zero_argument():
    ch = build_chart("annulus", (48, 48))
    g1 = random_smooth_field(ch, "section", 6)
    rep = bracket_identity_check(g1, Section.zeros(ch))
    assert rep.residual == 0.0
    assert rep.ratio == 0.0


def test_bracket_identity_interior_second_order():
    ratios, hs = [], []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        g1 = random_smooth_field(ch, "section", 6)
        g2 = random_smooth_field(ch, "section", 7)
        rep = bracket_identity_check(g1, g2)
        ratios.append(rep.ratio)
        hs.append(max(ch.h))
    order = np.log(ratios[0] / ratios[1]) / np.log(hs[0] / hs[1])
    assert order > 1.5
    assert ratios[1] < 5e-3 * (64.0 / 128.0) ** -2  # second-order budget


def test_bracket_boundary_identity_second_order():
    ratios, hs = [], []
    for n in (48, 96):
        ch = build_chart("annulus", (n, n))
        g1, f1 = kernel_class_potential(ch, 8)
        g2, f2 = kernel_class_potential(ch, 9)
        rep = bracket_boundary_identity_check(g1, f1, g2, f2)
        ratios.append(rep.ratio)
        hs.append(max(ch.h))
    order = np.log(ratios[0] / ratios[1]) / np.log(hs[0] / hs[1])
    assert order > 1.5
