"""Gauge action, Dirichlet-connection curvature, obstruction, holonomy."""

import numpy as np
import pytest
import scipy.linalg

from gaugekit import (
    ALGEBRA_DIM,
    Connection,
    OneForm,
    Section,
    boundary_identity_residual,
    build_chart,
    curvature_form,
    gauge_act,
    green_A,
    horizontal_project,
    horizontality_ratio,
    laplacian_A,
    random_smooth_field,
)
from gaugekit.algebra import (
    coeff_to_matrix,
    matrix_to_coeff,
    qexp,
    qnormalize,
    quat_identity,
    quat_log,
    quat_to_matrix,
)
from gaugekit.coulomb import (
    GaugeTransformation,
    _cut,
    _links,
    _loop_transports,
    _qprod,
    _qprod_conj,
    freeness_check,
    obstruction_report,
    small_loop_holonomy,
)
from gaugekit.errors import BadGeometry, DbcViolation, NotHorizontal
from gaugekit.fields import check_dbc
from gaugekit.operators import bracket_dot
from gaugekit import _stencils as st


def _rand_conn(ch, seed, scale=0.3):
    return Connection(ch, random_smooth_field(ch, "oneform", seed, scale=scale))


def _coord_pair(ch):
    # e1 dtheta and e2 dtheta: constant angular forms, exactly divergence
    # free on the annulus, so they pass the horizontality gate with ratio 0
    a = np.zeros(ch.shape + (ch.n, ALGEBRA_DIM))
    b = np.zeros(ch.shape + (ch.n, ALGEBRA_DIM))
    a[..., 0, 0] = 1.0
    b[..., 0, 1] = 1.0
    return OneForm(ch, a), OneForm(ch, b)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------


def test_identity_transform_fixes_connections(ann32):
    A = _rand_conn(ann32, 1)
    e = GaugeTransformation.identity(ann32)
    moved = gauge_act(A, e)
    np.testing.assert_allclose(moved.eta.data, A.eta.data, atol=1e-14)


def test_gauge_action_matrix_oracle(ann32):
    # recompute Ad(g^-1) A + g^-1 dg per node with 2x2 complex matrices
    A = _rand_conn(ann32, 2)
    f = random_smooth_field(ann32, "section", 3, scale=0.4)
    g = GaugeTransformation.from_section(f)
    moved = gauge_act(A, g)

    U = quat_to_matrix(g.quat)
    Uh = np.conj(np.swapaxes(U, -1, -2))
    for ax in range(ann32.n):
        dU = st.deriv_node(U.real, ax, ann32.h[ax], ann32.periodic[ax]) + 1j * st.deriv_node(
            U.imag, ax, ann32.h[ax], ann32.periodic[ax]
        )
        mc = matrix_to_coeff(Uh @ dU)
        ad = matrix_to_coeff(Uh @ coeff_to_matrix(A.eta.data[..., ax, :]) @ U)
        np.testing.assert_allclose(moved.eta.data[..., ax, :], ad + mc, atol=1e-12)


def test_composition_matches_sequential_action(ann32):
    A = _rand_conn(ann32, 4)
    g = GaugeTransformation.from_section(random_smooth_field(ann32, "section", 5, scale=0.3))
    h = GaugeTransformation.from_section(random_smooth_field(ann32, "section", 6, scale=0.3))
    seq = gauge_act(gauge_act(A, g), h)
    prod = gauge_act(A, g * h)
    np.testing.assert_allclose(prod.eta.data, seq.eta.data, atol=1e-12)


def test_inverse_transform_undoes_action(ann32):
    A = _rand_conn(ann32, 7)
    g = GaugeTransformation.from_section(random_smooth_field(ann32, "section", 8, scale=0.4))
    back = gauge_act(gauge_act(A, g), g.inverse())
    np.testing.assert_allclose(back.eta.data, A.eta.data, atol=1e-12)


def test_dirichlet_transforms_are_identity_on_faces(ann32):
    f = random_smooth_field(ann32, "section", 9, scale=0.5)
    g = GaugeTransformation.from_section(f)
    assert g.quat.shape == (4,) + ann32.shape
    for fc in ann32.faces:
        # Frobenius distance sqrt(2) |q - 1| from the identity on the face
        d = g.quat[(slice(None),) + ann32.face_slice(fc)] - quat_identity()[:, None]
        assert np.sqrt(2.0) * np.max(np.sqrt(np.sum(d * d, axis=0))) < 1e-15
    # and the moved connection keeps exact Dirichlet traces
    A = _rand_conn(ann32, 10)
    moved = gauge_act(A, g)
    assert check_dbc(moved.eta, 1e-12)[0]


def test_log_section_roundtrip(ann32):
    f = random_smooth_field(ann32, "section", 11, scale=0.5)
    g = GaugeTransformation.from_section(f)
    np.testing.assert_allclose(np.moveaxis(quat_log(g.quat), 0, -1), f.data, atol=1e-12)


def test_from_section_rejects_boundary_values(ann32):
    th, r = ann32.mesh()
    bad = Section(ann32, np.ones(ann32.shape)[..., None] * np.eye(ALGEBRA_DIM)[0])
    with pytest.raises(DbcViolation):
        GaugeTransformation.from_section(bad)


def test_moved_connection_differs_for_nontrivial_transform(ann32):
    # the action is free: any transform visibly away from the identity has
    # to move the connection by a resolvable amount
    A = _rand_conn(ann32, 12)
    f = random_smooth_field(ann32, "section", 13, scale=1e-3)
    g = GaugeTransformation.from_section(f)
    moved = gauge_act(A, g)
    diff = float(np.max(np.abs(moved.eta.data - A.eta.data)))
    assert diff > 1e-10


def test_freeness_margins_hold(ann32):
    A = _rand_conn(ann32, 14)
    rep = freeness_check(A, n_seeds=5)
    assert rep.ok
    assert rep.min_margin >= 1.0


# ---------------------------------------------------------------------------
# curvature of the Dirichlet connection
# ---------------------------------------------------------------------------


def test_curvature_antisymmetry_gives_zero_on_diagonal(ann64):
    al, _ = _coord_pair(ann64)
    R = curvature_form(al, al, None)
    assert R.sup() == 0.0


def test_curvature_gate_rejects_vertical_arguments(ann32):
    A = _rand_conn(ann32, 15)
    eta = random_smooth_field(ann32, "oneform", 16)
    assert horizontality_ratio(eta, A) > 0.05
    al = horizontal_project(eta, A, tol=1e-10)
    with pytest.raises(NotHorizontal):
        curvature_form(eta, al, A)


def test_curvature_matches_dense_direct_solve():
    # -2 G_A([a.b]) recomputed by assembling the operator column by column
    ch = build_chart("annulus", (16, 16))
    al, be = _coord_pair(ch)
    rhs = bracket_dot(al, be)
    shape = ch.shape + (ALGEBRA_DIM,)
    interior = np.ones(shape, dtype=bool)
    for fc in ch.faces:
        interior[ch.face_slice(fc)] = False
    idx = np.where(interior.reshape(-1))[0]
    mat = np.zeros((idx.size, idx.size))
    for col, flat_i in enumerate(idx):
        e = np.zeros(shape)
        e.reshape(-1)[flat_i] = 1.0
        mat[:, col] = laplacian_A(Section(ch, e), None).data.reshape(-1)[idx]
    dense = np.zeros(shape)
    dense.reshape(-1)[idx] = -2.0 * np.linalg.solve(mat, rhs.data.reshape(-1)[idx])
    R = curvature_form(al, be, None, solve_tol=1e-12)
    assert float(np.max(np.abs(R.data - dense))) < 1e-8


def test_curvature_values_satisfy_dirichlet(ann64):
    al, be = _coord_pair(ann64)
    R = curvature_form(al, be, None)
    ok, worst = check_dbc(R, 1e-12)
    assert ok, worst


# ---------------------------------------------------------------------------
# boundary identity and obstruction
# ---------------------------------------------------------------------------


def test_boundary_identity_refines_at_second_order():
    ratios, hs = [], []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        A = _rand_conn(ch, 17, scale=0.25)
        e1 = horizontal_project(random_smooth_field(ch, "oneform", 18), A, tol=1e-10)
        e2 = horizontal_project(random_smooth_field(ch, "oneform", 19), A, tol=1e-10)
        rep = boundary_identity_residual(e1, e2, A)
        ratios.append(rep.ratio)
        hs.append(max(ch.h))
    order = np.log(ratios[0] / ratios[1]) / np.log(hs[0] / hs[1])
    assert order > 1.5


def test_general_identity_keeps_source_terms():
    # without projection the identity only holds in its general form
    ch = build_chart("annulus", (64, 64))
    a = random_smooth_field(ch, "oneform", 20)
    b = random_smooth_field(ch, "oneform", 21)
    plain = boundary_identity_residual(a, b, None, general=False)
    general = boundary_identity_residual(a, b, None, general=True)
    assert general.ratio < 0.25 * plain.ratio


def test_obstruction_kills_curvature_but_not_reference(ann64):
    al, be = _coord_pair(ann64)
    rep = obstruction_report(al, be, None)
    assert rep.ratio_curvature < 2e-2
    assert rep.ratio_reference > 0.5


def test_obstruction_with_generic_connection(ann64):
    A = _rand_conn(ann64, 22)
    al, be = _coord_pair(ann64)
    alp = horizontal_project(al, A, tol=1e-10)
    bep = horizontal_project(be, A, tol=1e-10)
    rep = obstruction_report(alp, bep, A)
    assert rep.ratio_curvature < 0.1  # 64^2; the acceptance run tightens this
    assert rep.ratio_reference > 0.5


# ---------------------------------------------------------------------------
# small-loop holonomy
# ---------------------------------------------------------------------------


def test_holonomy_defect_scales_with_loop_area(ann64):
    A = _rand_conn(ann64, 3, scale=0.4)
    for p in small_loop_holonomy(A, k=(2, 4)):
        assert 3.6 <= p.ratio <= 4.4
        assert p.cosine >= 0.99


def test_holonomy_scale_constant_is_stable(ann64):
    A = _rand_conn(ann64, 3, scale=0.4)
    consts = [p.scale_const for p in small_loop_holonomy(A, k=(2, 4))]
    assert abs(consts[0] - consts[1]) / abs(consts[1]) < 0.05


def test_holonomy_rejects_flat_and_odd_loops(ann32):
    with pytest.raises(BadGeometry):
        small_loop_holonomy(Connection.flat(ann32))
    A = _rand_conn(ann32, 23)
    with pytest.raises(BadGeometry):
        small_loop_holonomy(A, k=(3,))


@pytest.mark.parametrize("k", [2.0, 4.0, "2", (), None, (2, 4.0), True, 2, (True,)],
                         ids=["float", "float4", "str", "empty", "none", "mixed", "bool",
                              "scalar", "bool-size"])
def test_holonomy_rejects_loop_sizes_that_are_not_even_integers(ann32, k):
    A = _rand_conn(ann32, 23)
    with pytest.raises(BadGeometry):
        small_loop_holonomy(A, k=k)


def test_loop_transport_is_the_ordered_product_of_link_matrices():
    # independent of the quaternion formulas: 2x2 matrix exponentials of the
    # midpoint connection, multiplied on the left along the loop, one link
    # at a time (the transport itself composes runs of links by doubling)
    cases = [(build_chart("annulus", (16, 16)), k) for k in (2, 4, 6)]
    cases.append((build_chart("cylindrical_shell", (6, 5, 14)), 6))
    for ch, k in cases:
        A = _rand_conn(ch, 5, scale=0.4)
        i, j = 0, ch.n - 1
        ((size, U),) = _loop_transports(A, (k,))
        # the loop is kept only at the nodes where it fits in the chart
        assert size == k and U.shape == (4,) + ch.shape[:-1] + (ch.shape[-1] - k,)
        path = [(i, 1)] * k + [(j, 1)] * k + [(i, -1)] * k + [(j, -1)] * k
        rng = np.random.default_rng(k)
        nodes = [(0,) * ch.n, tuple(s - 1 for s in ch.shape[:-1]) + (ch.shape[-1] - 1 - k,)]
        nodes += [tuple(int(rng.integers(s)) for s in ch.shape[:-1])
                  + (int(rng.integers(ch.shape[-1] - k)),) for _ in range(4)]

        def eta(pos, ax):
            # tangential axes wrap; the loop never leaves the normal range
            tang = tuple(p % s for p, s in zip(pos[:-1], ch.shape[:-1]))
            return A.eta.data[tang + (pos[-1], ax)]

        for node in nodes:
            pos = list(node)
            M = np.eye(2, dtype=complex)
            for ax, sgn in path:
                here = eta(pos, ax)
                pos[ax] += sgn
                there = eta(pos, ax)
                M = scipy.linalg.expm(coeff_to_matrix(-sgn * ch.h[ax] * 0.5 * (here + there))) @ M
            got = quat_to_matrix(U[(slice(None),) + node])
            np.testing.assert_allclose(got, M, rtol=0, atol=1e-13)


def test_holonomy_probe_exponentiates_each_link_once(ann64, monkeypatch):
    # sizes 2, 4 and their doubles 4, 8 share runs of 1, 2, 4 and 8 links per
    # axis: 2 exponentials, 6 doublings and 3 products per loop
    import gaugekit.coulomb as cm

    calls = {"qmul": 0, "qexp": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cm, "qmul", counting("qmul", cm.qmul))
    monkeypatch.setattr(cm, "qexp", counting("qexp", cm.qexp))
    small_loop_holonomy(_rand_conn(ann64, 3, scale=0.4), k=(2, 4))
    assert calls == {"qmul": 15, "qexp": 2}


@pytest.mark.parametrize(
    "kind, shape", [("annulus", (128, 128)), ("cylindrical_shell", (24, 24, 24))],
    ids=["annulus128", "shell24"],
)
def test_holonomy_probe_peak_memory(kind, shape):
    # tracemalloc peak of the probes k = (2, 4), in quaternion fields
    # (4 values per node): 15.3 when every run and loop was kept until the
    # last probe, 6.2 when loops are reduced as they stream and runs are
    # dropped once no remaining size reads them
    import tracemalloc

    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 3, scale=0.4)
    small_loop_holonomy(A, k=(2, 4))
    tracemalloc.start()
    try:
        small_loop_holonomy(A, k=(2, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (4 * 8 * np.prod(shape)) <= 7.5


@pytest.mark.parametrize("kind, shape", [("annulus", (40, 32)), ("cylindrical_shell", (10, 8, 12))],
                         ids=["annulus40x32", "shell10x8x12"])
def test_links_match_the_stacked_exponential(kind, shape):
    ch = build_chart(kind, shape)
    eta = np.moveaxis(_rand_conn(ch, 5, scale=0.4).eta.data, (-2, -1), (0, 1))
    width = ch.shape[0] + 8
    for ax in (0, ch.n - 1):
        # the former evaluation: a new array per step, stacked at the end
        ext = np.take(eta[ax], range(width), axis=1, mode="wrap")
        mid = 0.5 * (ext[_cut(ax, 0, -1)] + ext[_cut(ax, 1, None)])
        want = np.stack(qexp(-ch.h[ax] * mid))
        assert _links(ch, eta[ax], ax, width).tobytes() == want.tobytes()


def test_conjugate_product_restores_its_factor():
    rng = np.random.default_rng(4)
    p = qnormalize(rng.standard_normal((4, 9, 7)), np.empty((4, 9, 7)))
    q = qnormalize(rng.standard_normal((4, 9, 7)), np.empty((4, 9, 7)))
    p[1, 0, 0] = -0.0  # a signed zero comes back with its sign
    before = p.copy()
    got = _qprod_conj(p, q)
    assert p.tobytes() == before.tobytes()
    conj = np.concatenate([p[:1], -p[1:]])
    assert got.tobytes() == _qprod(conj, q).tobytes()


def test_general_identity_residual_peak_memory():
    # tracemalloc peak of one general boundary-identity residual at annulus
    # 256^2, in scalar fields: the bracket product (3) and the contraction's
    # blocks of rows; the full (..., n, 3) bracket took it to 16
    import tracemalloc

    ch = build_chart("annulus", (256, 256))
    A = _rand_conn(ch, 20, scale=0.1)
    e1 = random_smooth_field(ch, "oneform", 21, scale=0.1)
    e2 = random_smooth_field(ch, "oneform", 22, scale=0.1)
    boundary_identity_residual(e1, e2, A, general=True)
    tracemalloc.start()
    try:
        boundary_identity_residual(e1, e2, A, general=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / np.empty(ch.shape).nbytes <= 4.5


def test_holonomy_probes_for_several_sizes_match_single_calls(ann64):
    A = _rand_conn(ann64, 3, scale=0.4)
    probes = small_loop_holonomy(A, k=(2, 4))
    assert probes == [small_loop_holonomy(A, k=(k,))[0] for k in (2, 4)]
