"""Window inverses, generators, and decompositions."""

import numpy as np
import pytest

from gaugekit import (
    ALGEBRA_DIM,
    OneForm,
    ScalarField,
    Section,
    build_chart,
    green_A,
    horizontality_ratio,
    random_smooth_field,
)
from gaugekit.algebra import coeff_bracket
from gaugekit import _stencils as st
from gaugekit.constructions import (
    LADDER,
    BumpKit,
    _band_coordinates,
    _window_coefficients,
    band_profile,
    boundary_chart_inverse,
    bracket_boundary_identity_check,
    bracket_identity_check,
    full_decompose,
    generator_for_boundary_data,
    interior_inverse,
    kernel_class_potential,
    kernel_decompose,
)
from gaugekit.errors import (
    BadCover,
    BadGeometry,
    KernelConditionViolated,
    RankMismatch,
    SupportTouchesBoundary,
    WindowTooSmall,
)
from gaugekit.fields import check_dbc
from gaugekit.geometry import BoundaryField
from gaugekit.harness import RunConfig, make_boundary_target, run_suite
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
            ok, worst = check_dbc(w)
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


def _window(ch, window):
    """(side, interval) of a window named as in the cross-check."""
    if window == "interior":
        lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
        return None, (lo + 0.24 * (hi - lo), lo + 0.76 * (hi - lo))
    return int(window[-1]), None


def _inverse(ch, window, pair):
    """(profile, window inverse) for a window named as in the cross-check."""
    side, iv = _window(ch, window)
    if iv is not None:
        psi = band_profile(ch, interval=iv, scale=1.3)
        return psi, interior_inverse(psi, interval=iv, pair=pair)
    psi = band_profile(ch, side=side, scale=0.7)
    return psi, boundary_chart_inverse(psi, side=side, pair=pair)


def _star_route_of(ch, window, psi, pair):
    """The star route -(star d star) of the two-form omega = (vol F) e_a
    dx^0 ^ dx^1 as 3-component fields, F the window's potential."""
    t, sgn, _ = _band_coordinates(ch, *_window(ch, window), None)
    F = _window_coefficients(psi, t, sgn)[2]
    star = (ch.vol * F)[..., None] * _unit(pair[0]) / ch.vol[..., None]  # star omega
    d = [st.deriv_node(star, ax, ch.h[ax], ch.periodic[ax]) for ax in range(2)]
    up = [ch.ginv[..., ax, None] * d[ax] for ax in range(2)]
    return np.stack([ch.vol[..., None] * up[1], -ch.vol[..., None] * up[0]], axis=-2)


def _agrees(got, ref, tol=1e-12):
    """Absolute agreement for roundoff-level values, relative otherwise."""
    return abs(got - ref) <= (tol if abs(ref) < tol else tol * abs(ref))


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)], ids=str)
@pytest.mark.parametrize("window", ["side0", "side1", "interior"])
@pytest.mark.parametrize("kind", ["annulus", "annulus_log"])
def test_rank_one_numbers_match_the_full_operators(kind, window, pair):
    # the verification numbers are computed on the pair's coefficients; the
    # three-component operators on the returned fields must give them too
    ch = build_chart(kind, (96, 96))
    psi, res = _inverse(ch, window, pair)
    target = psi.data[..., None] * coeff_bracket(_unit(pair[0]), _unit(pair[1]))
    prod = bracket_dot(res.alpha, res.beta).data
    product = float(np.max(np.abs(prod - target))) / float(np.max(np.abs(target)))
    alpha_star = _star_route_of(ch, window, psi, pair)
    route = float(np.max(np.abs(res.alpha.data - alpha_star))) / res.alpha.sup()
    assert _agrees(res.product_residual, product)
    assert _agrees(res.route_difference, route)
    assert _agrees(res.horizontality_alpha, horizontality_ratio(res.alpha))
    assert _agrees(res.horizontality_beta, horizontality_ratio(res.beta))
    assert res.product_residual < 1e-12 and res.route_difference > 0.0


def test_window_inverses_take_the_rank_one_path(monkeypatch):
    import gaugekit.constructions as con
    import gaugekit.coulomb as cm
    import gaugekit.operators as op

    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapped

    names = ("codiff_A", "bracket_dot", "horizontality_ratio")
    for mod in (op, cm, con):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    ch = build_chart("annulus", (64, 64))
    _, res = _inverse(ch, "side0", (0, 1))
    _inverse(ch, "interior", (1, 2))
    assert calls == {}
    # the counters see the three-component operators when they do run
    op.codiff_A(res.alpha)
    op.bracket_dot(res.alpha, res.beta)
    cm.horizontality_ratio(res.alpha)
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("call, error", [
    (lambda psi: boundary_chart_inverse(psi, pair=(0, 1.5)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=(0,)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=(0, 1, 2)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair="01"), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=(True, 0)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=(0, 3)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=(2, 2)), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, pair=None), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, depth="0.3"), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, depth=float("nan")), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi, depth=True), BadGeometry),
    (lambda psi: interior_inverse(psi, interval=(0.5,)), BadGeometry),
    (lambda psi: interior_inverse(psi, interval=("a", "b")), BadGeometry),
    (lambda psi: interior_inverse(psi, interval=(0.6, float("inf"))), BadGeometry),
    (lambda psi: interior_inverse(psi, interval=0.6), BadGeometry),
    (lambda psi: boundary_chart_inverse(psi.data), RankMismatch),
    (lambda psi: interior_inverse(psi.data, interval=(0.62, 0.88)), RankMismatch),
], ids=[
    "pair-float", "pair-short", "pair-long", "pair-str", "pair-bool", "pair-range",
    "pair-same", "pair-none", "depth-str", "depth-nan", "depth-bool",
    "interval-short", "interval-str", "interval-inf", "interval-scalar",
    "psi-array-boundary", "psi-array-interior",
])
def test_window_inverse_arguments_raise_gaugekit_errors(call, error):
    ch = build_chart("annulus", (48, 48))
    with pytest.raises(error):
        call(band_profile(ch, side=0))


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
# generator for prescribed boundary data
# ---------------------------------------------------------------------------


def _face_target(ch, side, values):
    vals = {f.side: np.zeros(ch.tangential_shape + (ALGEBRA_DIM,)) for f in ch.faces}
    vals[side][...] = values
    return BoundaryField(ch, vals)


def test_generator_zero_target_returns_nothing(green_rhs):
    ch = build_chart("annulus", (48, 48))
    gen = generator_for_boundary_data(_face_target(ch, 0, 0.0))
    assert gen.directions == []
    assert gen.residual == 0.0
    assert gen.u.sup() == 0.0
    assert gen.hopf_min == np.inf  # no face carries data
    assert green_rhs == []  # not even the Hopf potential


def test_generator_constant_target_converges():
    resid = []
    for n in (64, 96):
        ch = build_chart("annulus", (n, n))
        gen = generator_for_boundary_data(_face_target(ch, 1, 0.7 * _unit(0)))
        assert gen.hopf_min > 0.0
        assert gen.directions == [0]
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
    assert gen.directions == [0, 2]  # the two active algebra directions
    assert gen.residual < 5e-2
    # realized is really T applied to the commutator sum
    again = boundary_operator_T(gen.u, None)
    diff = max(
        float(np.max(np.abs(again.values[s] - gen.realized.values[s]))) for s in (0, 1)
    )
    assert diff == 0.0


def test_generator_needs_unit_speed_normal():
    from gaugekit.errors import NotTypeA

    ch = build_chart("annulus_log", (48, 48))
    with pytest.raises(NotTypeA):
        generator_for_boundary_data(_face_target(ch, 0, _unit(0)))


def test_generator_rejects_a_shallow_collar(monkeypatch):
    import gaugekit.constructions as con

    def no_solve(*args, **kw):
        raise AssertionError("the guard must run before any Green solve")

    monkeypatch.setattr(con, "green_A", no_solve)
    ch = build_chart("annulus", (8, 8))
    with pytest.raises(BadCover):
        generator_for_boundary_data(_face_target(ch, 0, _unit(0)))


@pytest.mark.parametrize("side", [2, -1, True])
def test_face_side_must_be_zero_or_one(side):
    ch = build_chart("annulus", (48, 48))
    with pytest.raises(BadGeometry):
        band_profile(ch, side=side)
    with pytest.raises(BadGeometry):
        boundary_chart_inverse(band_profile(ch, side=0), side=side)


def _directions_target(ch, dirs, side=0):
    """Data on one face that is nonzero exactly in the algebra directions dirs."""
    th = ch.coords[0]
    vals = np.zeros(ch.tangential_shape + (ALGEBRA_DIM,))
    for d in dirs:
        vals[..., d] = 0.3 + 0.2 * d + 0.1 * np.sin((d + 1 + side) * th)
    return _face_target(ch, side, vals)


@pytest.fixture()
def green_rhs(monkeypatch):
    """The right-hand side of every Green solve the constructions make."""
    import gaugekit.constructions as con

    seen = []

    def recording(g, *args, **kw):
        seen.append(g.data.copy())
        return green_A(g, *args, **kw)

    monkeypatch.setattr(con, "green_A", recording)
    return seen


def _relative_gap(u, parts):
    return float(np.max(np.abs(u.data - sum(p.data for p in parts)))) / u.sup()


@pytest.mark.parametrize("dirs", [(0, 1, 2), (1,), (0, 2)], ids=["three", "one", "two"])
def test_merged_generator_solve_matches_separate_solves(green_rhs, dirs):
    ch = build_chart("annulus", (64, 64))
    gen = generator_for_boundary_data(_directions_target(ch, dirs))
    assert len(green_rhs) == 2  # the Hopf potential, then every direction at once
    merged = green_rhs[1]
    assert gen.directions == sorted(dirs)
    # superposition: the merged solve gives the sum of one call per direction
    alone = [generator_for_boundary_data(_directions_target(ch, (d,))).u for d in dirs]
    assert _relative_gap(gen.u, alone) <= 1e-12
    for d in set(range(ALGEBRA_DIM)) - set(dirs):
        assert np.all(merged[..., (d + 1) % 3] == 0.0)  # an inactive direction adds no source
        assert np.all(gen.u.data[..., d] == 0.0)


def test_generator_realizes_data_on_both_faces(green_rhs):
    # one call realizes each face's data from its own collar source: the
    # source of one face vanishes at the other
    ch = build_chart("annulus", (96, 96))
    faces = [_directions_target(ch, (0, 1), side=0), _directions_target(ch, (1, 2), side=1)]
    target = faces[0] + faces[1]
    gen = generator_for_boundary_data(target)
    assert len(green_rhs) == 2  # the Hopf potential, then both faces at once
    for side in (0, 1):
        face = target.values[side]
        miss = np.max(np.abs(gen.realized.values[side] - face)) / np.max(np.abs(face))
        assert miss < 5e-2
    assert gen.directions == [0, 1, 2]
    alone = [generator_for_boundary_data(f).u for f in faces]
    assert _relative_gap(gen.u, alone) <= 1e-12


# ---------------------------------------------------------------------------
# Green-solve counts: a deterministic guard on the constructions' cost
# ---------------------------------------------------------------------------


def test_generator_makes_one_solve_besides_the_hopf_potential(green_rhs):
    ch = build_chart("annulus", (48, 48))
    generator_for_boundary_data(_directions_target(ch, (0, 1, 2)))
    assert len(green_rhs) == 2
    hopf, merged = green_rhs
    # the Hopf potential's interior bump on e_0, then every collar source
    assert np.all(hopf[..., 1:] == 0.0) and np.all(hopf[:, [0, -1], 0] == 0.0)
    assert all(np.any(merged[..., k] != 0.0) for k in range(ALGEBRA_DIM))


def test_full_decompose_makes_three_solves(green_rhs):
    ch = build_chart("annulus", (48, 48))
    cert = full_decompose(random_smooth_field(ch, "section", 5))
    assert cert.n_pairs == 3  # every direction, each covering both faces
    # the Hopf potential, one generator solve for both faces, the kernel stage
    assert len(green_rhs) == 3


def test_full_decompose_skips_the_hopf_solve_without_a_trace(green_rhs):
    ch = build_chart("annulus", (48, 48))
    cert = full_decompose(Section.zeros(ch))
    assert cert.n_pairs == 0
    assert len(green_rhs) == 1  # the kernel stage alone; no face needs a generator


@pytest.mark.parametrize("suite, per_rung", [("generator", 2), ("full-decompose", 9)])
def test_suite_solves_per_rung(green_rhs, suite, per_rung):
    cfg = RunConfig(grid=(64, 64))
    res = run_suite(suite, cfg)
    assert res.passed
    assert len(green_rhs) == per_rung * len(cfg.ladder_shapes())


@pytest.mark.parametrize("stage, bound", [("generator", 8.8), ("full-decompose", 9.8)])
def test_flat_construction_peak_memory(stage, bound):
    # tracemalloc peak of one warm call at annulus 128^2 on its suite's
    # input, in sections: 8.37 and 9.41 measured. It was 11.03 and 12.06
    # while the generator built each pair as two whole sections and
    # full_decompose called it once per face, and 12.7 and 20.7 before that
    import tracemalloc

    ch = build_chart("annulus", (128, 128))
    if stage == "generator":
        target = make_boundary_target(ch, 0, 55)
        call = lambda: generator_for_boundary_data(target)
    else:
        u = random_smooth_field(ch, "section", 100)
        call = lambda: full_decompose(u, kernel_gate=0.9)
    call()  # builds the chart coefficients and the separable pivots
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / Section.zeros(ch).data.nbytes <= bound


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
    # stage one's residual is the worst face's miss relative to that face's
    # trace (1.29e-2 at 32^2, 3.27e-3 at 64^2), so it falls with h
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


def test_bracket_boundary_identity_keeps_a_nan():
    # a NaN potential must not read as a satisfied identity: one NaN row of
    # g1 reaches both faces' residuals and the scale
    ch = build_chart("annulus", (48, 48))
    g1, f1 = kernel_class_potential(ch, 8)
    g2, f2 = kernel_class_potential(ch, 9)
    g1.data[5] = np.nan
    rep = bracket_boundary_identity_check(g1, f1, g2, f2)
    assert np.isnan(rep.residual) and np.isnan(rep.scale) and np.isnan(rep.ratio)
