"""Charts and curvature against closed-form geometry."""

import numpy as np
import pytest

from gaugekit import (
    BadGeometry,
    OneForm,
    ScalarField,
    SolveInfo,
    boundary_operator_T0,
    build_chart,
    green_A,
    mean_curvature,
    random_smooth_field,
)
from gaugekit import _stencils as st
from gaugekit.fields import normal_component
from gaugekit.geometry import along_normal, normal_derivative


def test_annulus_metric_is_polar(ann64):
    th, r = ann64.mesh()
    # the chart keeps the diagonal of the metric and its reciprocal
    assert ann64.g.shape == ann64.ginv.shape == ann64.shape + (2,)
    np.testing.assert_allclose(ann64.g[..., 0], r**2, atol=1e-13)
    np.testing.assert_allclose(ann64.g[..., 1], 1.0, atol=1e-13)
    assert np.array_equal(ann64.ginv, 1.0 / ann64.g)
    np.testing.assert_allclose(ann64.vol, r, atol=1e-13)
    assert ann64.is_type_a


def test_shell_metric_is_cylindrical(shell12):
    th, z, r = shell12.mesh()
    np.testing.assert_allclose(shell12.g[..., 0], r**2, atol=1e-13)
    np.testing.assert_allclose(shell12.g[..., 1], 1.0, atol=1e-13)
    np.testing.assert_allclose(shell12.g[..., 2], 1.0, atol=1e-13)
    np.testing.assert_allclose(shell12.vol, r, atol=1e-13)


def test_slab_metric_is_identity(slab32):
    np.testing.assert_allclose(slab32.g, 1.0, atol=1e-15)
    np.testing.assert_allclose(slab32.vol, 1.0, atol=1e-15)


def test_annulus_curvature_closed_form(ann64):
    H = mean_curvature(ann64)
    r0, r1 = ann64.coords[1][0], ann64.coords[1][-1]
    # vol = r is linear, so the face derivative is exact
    np.testing.assert_allclose(H.values[0], 1.0 / r0, atol=1e-12)
    np.testing.assert_allclose(H.values[1], -1.0 / r1, atol=1e-12)


def test_slab_curvature_vanishes(slab32):
    H = mean_curvature(slab32)
    for side in (0, 1):
        np.testing.assert_allclose(H.values[side], 0.0, atol=1e-14)


def test_shell_curvature_halves(shell12):
    H = mean_curvature(shell12)
    r0, r1 = shell12.coords[2][0], shell12.coords[2][-1]
    np.testing.assert_allclose(H.values[0], 0.5 / r0, atol=1e-12)
    np.testing.assert_allclose(H.values[1], -0.5 / r1, atol=1e-12)


def test_one_formula_agrees_in_two_coordinates():
    # the same annulus with a unit-speed and with a log-radial normal
    # coordinate: the two face curvatures converge to each other
    errs = []
    for n in (48, 96):
        Ha = mean_curvature(build_chart("annulus", (n, n)))
        Hb = mean_curvature(build_chart("annulus_log", (n, n)))
        errs.append(
            max(
                float(np.max(np.abs(Ha.values[s] - Hb.values[s])))
                for s in (0, 1)
            )
        )
    assert errs[1] < errs[0]
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.5


_UNIT_SPEED_CHARTS = [
    ("annulus", (32, 32)), ("annulus", (64, 128)),
    ("periodic_slab", (32, 32)), ("periodic_slab", (64, 48)),
    ("cylindrical_shell", (12, 12, 16)), ("cylindrical_shell", (8, 10, 24)),
]


@pytest.mark.parametrize("kind, shape", _UNIT_SPEED_CHARTS,
                         ids=[f"{k}-{'x'.join(map(str, s))}" for k, s in _UNIT_SPEED_CHARTS])
def test_mean_curvature_is_the_unit_speed_formula_bit_for_bit(kind, shape):
    # on a unit-speed normal coordinate the general formula is the former
    # volume-ratio formula, sign bits of zero values included
    ch = build_chart(kind, shape)
    assert ch.is_type_a
    H = mean_curvature(ch)
    for f in ch.faces:
        d = st.one_sided_deriv_at_face(ch.vol, ch.n - 1, ch.h[-1], f.side)
        want = f.inward_sign * d / ch.vol[ch.face_slice(f)] / (ch.n - 1)
        assert _bits(H.values[f.side]) == _bits(want)
        assert np.array_equal(np.signbit(H.values[f.side]), np.signbit(want))


@pytest.mark.parametrize("kind", ["annulus", "annulus_log"])
def test_face_layer_is_the_former_hand_written_expressions(kind):
    # bit for bit against the expressions each boundary evaluation wrote out
    # before: T0 on a scalar and on a section, the boundary identity's
    # fourth-order derivative, and the normal component of a one-form;
    # sqrt(g_nn) is 1 on the annulus and r on annulus_log
    ch = build_chart(kind, (24, 20))
    sec = random_smooth_field(ch, "section", 4)
    scal = ScalarField(ch, sec.data[..., 0].copy())
    om = random_smooth_field(ch, "oneform", 5)
    H = mean_curvature(ch)
    T_sec = boundary_operator_T0(sec)
    T_scal = boundary_operator_T0(scal)
    nc = normal_component(om)
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        gnn = ch.g[sl][..., -1]
        hface = H.values[fc.side]
        d = st.one_sided_deriv_at_face(scal.data, ch.n - 1, ch.h[-1], fc.side)
        want = fc.inward_sign * d / np.sqrt(gnn) + 2.0 * (ch.n - 1) * hface * scal.data[sl]
        assert _bits(T_scal.values[fc.side]) == _bits(want)
        d = st.one_sided_deriv_at_face(sec.data, ch.n - 1, ch.h[-1], fc.side)
        want = (fc.inward_sign * d / np.sqrt(gnn[..., None])
                + 2.0 * (ch.n - 1) * hface[..., None] * sec.data[sl])
        assert _bits(T_sec.values[fc.side]) == _bits(want)
        d4 = st.one_sided_deriv_at_face(sec.data, ch.n - 1, ch.h[-1], fc.side, order=4)
        want = fc.inward_sign * d4 / np.sqrt(gnn)[..., None]
        assert _bits(normal_derivative(ch, sec.data, fc, order=4)) == _bits(want)
        comp = om.data[sl][..., -1, :]
        want = fc.inward_sign * comp / np.sqrt(gnn)[..., None]
        assert _bits(nc.values[fc.side]) == _bits(want)
        assert _bits(along_normal(ch, fc, comp)) == _bits(want)


def test_mean_curvature_reads_the_face_layers_only():
    # tracemalloc peak of one call at 256^2: under a tenth of one scalar
    # field on both coordinates (the whole-grid route formed two fields on
    # annulus_log)
    import tracemalloc

    field = np.empty((256, 256)).nbytes
    for kind in ("annulus", "annulus_log"):
        ch = build_chart(kind, (256, 256))
        tracemalloc.start()
        try:
            mean_curvature(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field / 10, kind


def test_custom_chart_curvature_closed_form():
    # g = diag(1/(1+x)^2, (1+x)^2): unit volume, tangential circles shrink
    # with x, H(0) = -1 and H(1) = +1/4 by differentiating the closed form
    def metric(mesh):
        th, x = mesh
        g = np.zeros(x.shape + (2, 2))
        g[..., 0, 0] = 1.0 / (1.0 + x) ** 2
        g[..., 1, 1] = (1.0 + x) ** 2
        return g

    ch = build_chart(
        "custom", (16, 128), metric=metric, extents=[(0.0, 2 * np.pi), (0.0, 1.0)]
    )
    np.testing.assert_allclose(ch.vol, 1.0, atol=1e-12)
    H = mean_curvature(ch)
    np.testing.assert_allclose(H.values[0], -1.0, atol=1e-3)
    np.testing.assert_allclose(H.values[1], 0.25, atol=1e-3)


def test_normal_derivative_orientation(ann32, slab32):
    # d(r)(nu) is +1 on the inner annulus face and -1 on the outer one
    # (r is linear in the unit-speed coordinate, so exactly), and +1 at the
    # slab's bottom face
    r = np.broadcast_to(ann32.coords[1], ann32.shape)
    np.testing.assert_array_equal(normal_derivative(ann32, r, ann32.faces[0]), 1.0)
    np.testing.assert_array_equal(normal_derivative(ann32, r, ann32.faces[1]), -1.0)
    z = np.broadcast_to(slab32.coords[1], slab32.shape)
    np.testing.assert_array_equal(normal_derivative(slab32, z, slab32.faces[0]), 1.0)
    # a log-radial coordinate s: d(r)(nu) = (dr/ds) / sqrt(g_ss) = 1
    ch = build_chart("annulus_log", (32, 64))
    r = ch.params["r0"] * np.exp(np.broadcast_to(ch.coords[1], ch.shape))
    np.testing.assert_allclose(normal_derivative(ch, r, ch.faces[0]), 1.0, atol=1e-3)
    np.testing.assert_allclose(normal_derivative(ch, r, ch.faces[1]), -1.0, atol=1e-3)


def test_domain_name_aliases():
    assert build_chart("slab", (16, 16)).kind == "periodic_slab"
    assert build_chart("shell", (8, 8, 8)).kind == "cylindrical_shell"


_MALFORMED = [
    (["annulus"], (16, 16), {}, "unknown chart kind"),
    ("annulus", 16, {}, "not a sequence"),
    ("annulus", ("a", 16), {}, "integers"),
    ("annulus", (16.0, 16), {}, "integers"),
    ("annulus", (16, 16), {"r0": "a"}, "r0='a'"),
    ("annulus", (16, 16), {"r1": None}, "r1=None"),
    ("cylindrical_shell", (8, 8, 8), {"length": float("inf")}, "length=inf"),
    ("periodic_slab", (16, 16), {"height": -1.0}, "steps must be finite and positive"),
    ("periodic_slab", (16, 16), {"length": 0.0}, "steps must be finite and positive"),
    ("cylindrical_shell", (8, 8, 8), {"length": -2.0}, "steps must be finite and positive"),
    # a parameter the kind does not read: misspelled, or another kind's
    ("annulus", (16, 16), {"r_0": 0.7}, "'r_0' is not read by annulus, which takes r0, r1"),
    ("annulus", (16, 16), {"length": 1.0}, "'length' is not read by annulus"),
    ("custom", (16, 16), {"extents": [(0.0, 1.0), (0.0, 1.0)], "periodic": [True, False]},
     "'periodic' is not read by custom, which takes metric, extents"),
]


def test_bad_geometry_rejected():
    with pytest.raises(BadGeometry):
        build_chart("annulus", (16, 16), r0=1.0, r1=0.5)
    with pytest.raises(BadGeometry):
        build_chart("annulus", (16,))
    with pytest.raises(BadGeometry):
        build_chart("nonagon", (16, 16))
    with pytest.raises(BadGeometry):
        build_chart("cylindrical_shell", (16, 16))
    # a custom chart needs a metric callable and one (lo, hi) pair per axis
    with pytest.raises(BadGeometry):
        build_chart("custom", (8, 8), extents=[(0, 1), (0, 1)])
    with pytest.raises(BadGeometry):
        build_chart("custom", (8, 8), metric=lambda mesh: None, extents=[(0, 1)])

    def diagonal(d0, d1):
        def metric(mesh):
            g = np.zeros(np.broadcast(*mesh).shape + (2, 2))
            g[..., 0, 0], g[..., 1, 1] = d0, d1
            return g

        return metric

    def custom(metric):
        return build_chart("custom", (16, 16), metric=metric,
                           extents=[(0.0, 2 * np.pi), (0.5, 1.0)])

    # det(diag(-1, -1)) = 1 > 0, but the metric is not positive definite
    with pytest.raises(BadGeometry, match="diagonal entries must be positive"):
        custom(diagonal(-1.0, -1.0))
    with pytest.raises(BadGeometry, match="metric entries must be finite"):
        custom(diagonal(np.nan, 1.0))
    with pytest.raises(BadGeometry, match="'periodic' is not read by custom"):
        build_chart("custom", (16, 16), metric=diagonal(1.0, 1.0),
                    extents=[(0.0, 1.0), (0.0, 1.0)], periodic=[True])
    with pytest.raises(BadGeometry, match=r"extents\[1\]='a'"):
        build_chart("custom", (16, 16), metric=diagonal(1.0, 1.0),
                    extents=[(0.0, 1.0), ("a", 1.0)])
    # every parameter is checked: integer shapes, finite numbers, positive steps
    for kind, shape, params, match in _MALFORMED:
        with pytest.raises(BadGeometry, match=match):
            build_chart(kind, shape, **params)


def test_face_slices_cover_normal_ends(ann32):
    f0, f1 = ann32.faces
    assert ann32.face_slice(f0)[-1] == 0
    assert ann32.face_slice(f1)[-1] == -1
    assert f0.inward_sign == 1.0 and f1.inward_sign == -1.0
    # the k layers nearest each face, in array order, of the grid or of a
    # slab of layers at that face
    rows = np.arange(32)
    for f, want in ((f0, [0, 1, 2]), (f1, [29, 30, 31])):
        assert rows[ann32.face_rows(f, 3)[-1]].tolist() == want
        slab = rows[ann32.face_rows(f, 5)[-1]]
        assert slab[ann32.face_rows(f, 3)[-1]].tolist() == want


def test_tangential_uniformity_looks_at_the_midpoints():
    n = 16

    def metric(mesh):
        theta, r = mesh
        g = np.zeros(np.broadcast(theta, r).shape + (2, 2))
        # vanishes at the theta nodes, varies between them
        g[..., 0, 0] = r**2 * (1.0 + 0.2 * np.sin(n * theta / 2) ** 2 * np.cos(theta))
        g[..., 1, 1] = 1.0
        return g

    ch = build_chart("custom", (n, 12), metric=metric,
                     extents=[(0.0, 2 * np.pi), (0.5, 1.0)])
    assert np.max(np.abs(ch.g - ch.g[:1])) <= 1e-12
    assert not ch.is_tangentially_uniform


def test_a_chart_samples_its_metric_once_per_axis_and_once_at_the_nodes():
    calls = []

    def counted(eps):
        def metric(mesh):
            calls.append(1)
            return _theta_metric(eps)(mesh)
        return build_chart("custom", (16, 12), metric=metric,
                           extents=[(0.0, 2 * np.pi), (0.5, 1.0)])

    ch = counted(0.3)
    assert len(calls) == 1
    ch.cell_c
    assert not ch.is_tangentially_uniform
    assert len(calls) == ch.n + 1
    # the other order, on a uniform metric: the uniformity check samples the
    # midpoints, and cell_c reuses that sampling
    calls.clear()
    ch = counted(0.0)
    assert ch.is_tangentially_uniform
    ch.cell_c
    assert len(calls) == ch.n + 1


def test_custom_metric_is_checked_at_the_midpoints():
    def metric(mesh):
        theta, r = mesh
        g = np.zeros(np.broadcast(theta, r).shape + (2, 2))
        g[..., 0, 0] = r**2
        g[..., 1, 1] = 1.0
        # vanishes at the 16 theta nodes (to 1.6e-15), reaches 0.3 between them
        g[..., 0, 1] = g[..., 1, 0] = 0.3 * r * np.sin(8 * theta)
        return g

    def chart():
        return build_chart("custom", (16, 12), metric=metric,
                           extents=[(0.0, 2 * np.pi), (0.5, 1.0)])

    with pytest.raises(BadGeometry, match="off-diagonal entry 3.000e-01"):
        chart().cell_c
    with pytest.raises(BadGeometry, match="off-diagonal entry 3.000e-01"):
        chart().is_tangentially_uniform


# ---------------------------------------------------------------------------
# chart arrays stored as normal profiles
# ---------------------------------------------------------------------------

_BUILT_IN_CHARTS = [
    ("annulus", (24, 20)),
    ("annulus_log", (16, 18)),
    ("periodic_slab", (12, 14)),
    ("periodic_slab", (8, 6, 10)),
    ("cylindrical_shell", (8, 6, 10)),
]


def _dense_arrays(ch):
    """The chart's arrays evaluated on the whole grid, as the chart stored
    them before it kept profiles: named arrays, `padded_cell_c` per axis."""
    full = ch.metric_at(ch.coords)
    g = np.diagonal(full, axis1=-2, axis2=-1).copy()
    w = np.ones(ch.shape)
    for ax in range(ch.n):
        w1 = st.quad_weights_1d(ch.shape[ax], ch.h[ax], ch.periodic[ax])
        w = w * w1.reshape([-1 if a == ax else 1 for a in range(ch.n)])
    out = {"g": g, "ginv": 1.0 / g, "vol": np.sqrt(np.linalg.det(full)), "quad_w": w}
    for ax in range(ch.n):
        m = ch.metric_at(ch.mid_coords(ax))
        c = ch.cell_weights(ax) * np.sqrt(np.linalg.det(m)) * (1.0 / m[..., ax, ax])
        pad = [(0, 0)] * (ch.n - 1) + [(0, 1 - ch.periodic[ax])]
        out[f"padded_cell_c[{ax}]"] = np.pad(c, pad)
    return out


def _stored_arrays(ch):
    out = {name: getattr(ch, name) for name in ("g", "ginv", "vol", "quad_w")}
    out.update({f"padded_cell_c[{ax}]": c for ax, c in enumerate(ch.padded_cell_c)})
    out.update({f"cell_c[{ax}]": c for ax, c in enumerate(ch.cell_c)})
    return out


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("kind, shape", _BUILT_IN_CHARTS,
                         ids=[f"{k}-{'x'.join(map(str, s))}" for k, s in _BUILT_IN_CHARTS])
def test_built_in_chart_arrays_are_read_only_normal_profiles(kind, shape):
    ch = build_chart(kind, shape)
    dense = _dense_arrays(ch)
    stored = _stored_arrays(ch)
    for name, want in dense.items():
        got = stored[name]
        assert got.shape == want.shape, name
        assert _bits(got) == _bits(want), name
    tangential = (0,) * (ch.n - 1)
    for name, a in stored.items():
        # one normal row of data, broadcast along the tangential axes
        assert a.strides[: ch.n - 1] == tangential, name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    assert ch.is_tangentially_uniform


def _theta_metric(eps):
    def metric(mesh):
        theta, r = mesh
        g = np.zeros(np.broadcast(theta, r).shape + (2, 2))
        g[..., 0, 0] = r**2 * (1.0 + eps * np.cos(theta))
        g[..., 1, 1] = 1.0
        return g
    return metric


def test_a_tangentially_varying_chart_keeps_dense_read_only_arrays():
    ch = build_chart("custom", (16, 12), metric=_theta_metric(0.3),
                     extents=[(0.0, 2 * np.pi), (0.5, 1.0)])
    dense = _dense_arrays(ch)
    stored = _stored_arrays(ch)
    for name, want in dense.items():
        assert _bits(stored[name]) == _bits(want), name
    for name in ("g", "ginv", "vol", "padded_cell_c[0]", "padded_cell_c[1]"):
        a = stored[name]
        assert a.strides[0] != 0, name
        assert not a.flags.writeable, name
    # the node weights repeat along theta whatever the metric
    assert ch.quad_w.strides[0] == 0
    assert not ch.is_tangentially_uniform


def test_tangential_uniformity_keeps_its_tolerance():
    # a theta dependence below 1e-12 changes the metric's bits, so the
    # arrays stay dense, yet the chart still counts as tangentially uniform
    # (and a flat Green solve on it stays on the separable path)
    ch = build_chart("custom", (16, 12), metric=_theta_metric(1e-14),
                     extents=[(0.0, 2 * np.pi), (0.5, 1.0)])
    assert ch.g.strides[0] != 0
    assert ch.is_tangentially_uniform
    info = SolveInfo()
    green_A(random_smooth_field(ch, "section", 3), None, tol=1e-10, info=info)
    assert info.iterations == 1


def test_built_chart_holds_profiles_only():
    # tracemalloc of building the 256^2 annulus and its energy-form
    # coefficients: what the chart keeps is under an eighth of one scalar
    # field (dense arrays kept 8 fields)
    import tracemalloc

    field = np.empty((256, 256)).nbytes
    tracemalloc.start()
    try:
        ch = build_chart("annulus", (256, 256))
        ch.cell_c
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < field / 8
