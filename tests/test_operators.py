"""Twisted operators: derivative oracles, adjointness, solver, boundary chain."""

import numpy as np
import pytest

from gaugekit import (
    ALGEBRA_DIM,
    Connection,
    NoConvergence,
    OneForm,
    RankMismatch,
    Section,
    boundary_operator_T,
    boundary_operator_T0,
    build_chart,
    codiff_A,
    d_A,
    green_A,
    horizontal_project,
    horizontality_ratio,
    l2_inner,
    l2_norm,
    laplacian_A,
    random_smooth_field,
    ritz_smallest,
)
from gaugekit import _stencils as st
from gaugekit import operators as ops
from gaugekit.algebra import STRUCTURE_C, coeff_bracket, coeff_to_matrix, matrix_to_coeff
from gaugekit.constructions import _star_route
from gaugekit.fields import MidOneForm, _mid_samples, _node_inner
from gaugekit.operators import (
    SolveInfo,
    _anchor_face_rows,
    _bracket_contract,
    _codiff_adjoint,
    _codiff_at_faces,
    _energy_apply,
    _scratch,
    bracket_dot,
    d_A_cell,
)


def _rand_conn(ch, seed, scale=0.3):
    return Connection(ch, random_smooth_field(ch, "oneform", seed, scale=scale))


def test_twisted_derivative_componentwise_oracle(ann32):
    # d_A f = flat d f + [A, f], the bracket recomputed by matrix arithmetic
    A = _rand_conn(ann32, 1)
    f = random_smooth_field(ann32, "section", 2)
    got = d_A(f, A)
    flat = d_A(f)
    for ax in range(ann32.n):
        a = A.eta.data[..., ax, :]
        mats = coeff_to_matrix(a) @ coeff_to_matrix(f.data) - coeff_to_matrix(
            f.data
        ) @ coeff_to_matrix(a)
        oracle = flat.data[..., ax, :] + matrix_to_coeff(mats)
        np.testing.assert_allclose(got.data[..., ax, :], oracle, atol=1e-13)


def test_flat_connection_reduces_to_flat_derivative(ann32):
    # componentwise node derivatives, stacked behind the chart axes
    f = random_smooth_field(ann32, "section", 3)
    got = d_A(f, None)
    want = np.stack([st.deriv_node(f.data, ax, ann32.h[ax], ann32.periodic[ax])
                     for ax in range(ann32.n)], axis=ann32.n)
    assert np.array_equal(got.data, want)


def test_bracket_dot_inverse_metric_weight(ann64):
    # alpha = e1 dtheta, beta = e2 dtheta: product is g^{tt} [e1, e2]
    th, r = ann64.mesh()
    a = np.zeros(ann64.shape + (2, ALGEBRA_DIM))
    b = np.zeros(ann64.shape + (2, ALGEBRA_DIM))
    a[..., 0, 0] = 1.0
    b[..., 0, 1] = 1.0
    prod = bracket_dot(OneForm(ann64, a), OneForm(ann64, b))
    e1 = np.eye(ALGEBRA_DIM)[0]
    e2 = np.eye(ALGEBRA_DIM)[1]
    oracle = (1.0 / r**2)[..., None] * coeff_bracket(e1, e2)
    np.testing.assert_allclose(prod.data, oracle, atol=1e-13)


def test_bracket_dot_of_equal_arguments_vanishes(ann32):
    al = random_smooth_field(ann32, "oneform", 5)
    prod = bracket_dot(al, al)
    assert float(np.max(np.abs(prod.data))) < 1e-14


def test_codifferential_is_exact_adjoint(ann32):
    rng_seeds = range(12)
    for A in (Connection.flat(ann32), _rand_conn(ann32, 9)):
        for k in rng_seeds:
            f = random_smooth_field(ann32, "section", 100 + k)
            g = random_smooth_field(ann32, "section", 200 + k)
            eg = d_A_cell(g, A)
            ip1 = l2_inner(d_A_cell(f, A), eg, "cell")
            ip2 = l2_inner(f, codiff_A(eg, A, form="adjoint"))
            assert abs(ip1 - ip2) <= 1e-12 * max(abs(ip1), 1.0)


def test_pointwise_codifferential_consistent_at_h2():
    errs, hs = [], []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        A = _rand_conn(ch, 4)
        w = random_smooth_field(ch, "oneform", 6)
        a = codiff_A(w, A, form="adjoint")
        p = codiff_A(w, A, form="pointwise")
        ii = ch.interior_slice()
        errs.append(float(np.max(np.abs(a.data[ii] - p.data[ii]))))
        hs.append(max(ch.h))
    order = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
    assert order > 1.5


def test_laplacian_manufactured_solution_slab():
    # A = 0, f = sin(pi x_n) e1: Delta f = pi^2 sin(pi x_n) e1
    errs = []
    for n in (32, 64):
        ch = build_chart("periodic_slab", (n, n))
        x = ch.mesh()[-1]
        f = Section(ch, np.sin(np.pi * x)[..., None] * np.eye(ALGEBRA_DIM)[0])
        lap = laplacian_A(f, None, form="adjoint")
        oracle = np.pi**2 * f.data
        ii = ch.interior_slice()
        errs.append(float(np.max(np.abs(lap.data[ii] - oracle[ii]))))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 0.02 * np.pi**2


#: one chart of each built-in kind: 2d bounded-periodic with a radial
#: metric, flat 2d, and 3d with two periodic axes
CHART_KINDS = pytest.mark.parametrize(
    "kind, shape",
    [("annulus", (16, 16)), ("periodic_slab", (12, 12)), ("cylindrical_shell", (8, 8, 10))],
    ids=["annulus16", "slab12", "shell8x8x10"],
)


@CHART_KINDS
def test_energy_positive_and_symmetric(kind, shape):
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 7)
    for k in range(25):
        f = random_smooth_field(ch, "section", 300 + k)
        g = random_smooth_field(ch, "section", 400 + k)
        lf, lg = laplacian_A(f, A), laplacian_A(g, A)
        assert l2_inner(lf, f) > 0
        s = l2_inner(lf, g) - l2_inner(f, lg)
        assert abs(s) < 1e-11 * max(abs(l2_inner(lf, g)), 1.0)
        # the energy matrix is the weighted Gram matrix of the staggered
        # gradient: x . S y = sum_ax sum_mid c_ax <grad_ax x, grad_ax y>
        # (any node values; the boundary rows take part as well)
        sy = _energy_apply(A, np.moveaxis(g.data, -1, 0))
        lhs = float(np.sum(np.moveaxis(f.data, -1, 0) * sy))
        gf, gg = d_A_cell(f, A), d_A_cell(g, A)
        rhs = sum(
            float(np.sum(c[..., None] * gf.arrays[ax] * gg.arrays[ax]))
            for ax, c in enumerate(ch.cell_c)
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    # on the interior rows the adjoint Laplacian is the energy matrix over
    # the node weights, also where f does not vanish on the faces
    f = random_smooth_field(ch, "section", 500, dbc=False)
    ii = ch.interior_slice()
    energy = np.moveaxis(_energy_apply(A, np.moveaxis(f.data, -1, 0)), 0, -1)
    energy /= (ch.quad_w * ch.vol)[..., None]
    assert np.array_equal(laplacian_A(f, A).data[ii], energy[ii])


@CHART_KINDS
def test_adjoint_operators_vanish_on_the_faces(kind, shape):
    # the Dirichlet codifferential has interior rows only
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 7)
    f = random_smooth_field(ch, "section", 8, dbc=False)
    w = random_smooth_field(ch, "oneform", 9, dbc=False)
    for out in (codiff_A(w, A), codiff_A(MidOneForm.of(w), A), laplacian_A(f, A)):
        for fc in ch.faces:
            assert np.all(out.data[ch.face_slice(fc)] == 0.0)
        assert np.any(out.data[ch.interior_slice()] != 0.0)


def test_pointwise_codifferential_takes_node_one_forms(ann32):
    w = random_smooth_field(ann32, "oneform", 3)
    with pytest.raises(RankMismatch):
        codiff_A(MidOneForm.of(w), None, form="pointwise")
    with pytest.raises(RankMismatch):
        _codiff_at_faces(MidOneForm.of(w), None)


@pytest.mark.parametrize("kind, shape", [
    ("annulus", (24, 20)),
    ("periodic_slab", (16, 12)),
    ("cylindrical_shell", (8, 6, 10)),
])
@pytest.mark.parametrize("connected", [False, True], ids=["flat", "connected"])
def test_face_layer_codifferential_is_the_pointwise_face_rows(kind, shape, connected):
    # evaluated on the three normal layers at each face, the codifferential's
    # face row is the whole-grid face row to the last bit
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 8) if connected else None
    w = random_smooth_field(ch, "oneform", 9)
    whole = codiff_A(w, A, form="pointwise")
    faces = _codiff_at_faces(w, A)
    for fc in ch.faces:
        assert np.array_equal(faces.values[fc.side], whole.data[ch.face_slice(fc)])


def test_green_solves_manufactured_problem():
    ch = build_chart("periodic_slab", (48, 48))
    x = ch.mesh()[-1]
    u = Section(ch, np.sin(np.pi * x)[..., None] * np.eye(ALGEBRA_DIM)[0])
    g = Section(ch, np.pi**2 * u.data)
    sol = green_A(g, None, tol=1e-10)
    err = l2_norm(sol - u) / l2_norm(u)
    assert err < 2e-3


def _dense_green(ch, A, rhs):
    """Green solution from numpy's dense factorization of the operator,
    assembled column by column on the interior unknowns."""
    shape = ch.shape + (ALGEBRA_DIM,)
    interior = np.ones(shape, dtype=bool)
    for fc in ch.faces:
        interior[ch.face_slice(fc)] = False
    idx = np.where(interior.reshape(-1))[0]
    ndof = idx.size
    mat = np.zeros((ndof, ndof))
    for col, flat_i in enumerate(idx):
        e = np.zeros(shape)
        e.reshape(-1)[flat_i] = 1.0
        le = laplacian_A(Section(ch, e), A)
        mat[:, col] = le.data.reshape(-1)[idx]
    x = np.zeros(shape)
    x.reshape(-1)[idx] = np.linalg.solve(mat, rhs.data.reshape(-1)[idx])
    return x


@CHART_KINDS
def test_green_matches_dense_direct_solve(kind, shape):
    # the iterative inverse under a connection against the dense solve
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 8, scale=0.2)
    rhs_field = random_smooth_field(ch, "section", 10)
    x = _dense_green(ch, A, rhs_field)
    sol = green_A(rhs_field, A, tol=1e-12)
    assert float(np.max(np.abs(sol.data - x))) < 1e-8


@pytest.mark.parametrize(
    "kind, shape",
    [
        ("annulus", (16, 16)),
        ("annulus_log", (16, 16)),
        ("periodic_slab", (12, 12)),
        # two tangential axes with different profiles: c_theta ~ 1/r, c_z ~ r
        ("cylindrical_shell", (8, 8, 10)),
    ],
)
def test_flat_green_is_one_separable_step(kind, shape):
    ch = build_chart(kind, shape)
    # evaluated on first use only, so building a chart pays nothing for it
    assert "is_tangentially_uniform" not in vars(ch)
    assert ch.is_tangentially_uniform
    rhs_field = random_smooth_field(ch, "section", 12)
    x = _dense_green(ch, Connection.flat(ch), rhs_field)
    info = SolveInfo()
    tol = 1e-12
    sol = green_A(rhs_field, None, tol=tol, info=info)
    assert info.iterations == 1
    assert info.residual <= tol
    assert float(np.max(np.abs(sol.data - x))) < 1e-8 * float(np.max(np.abs(x)))


def test_flat_green_falls_back_to_jacobi_on_a_nonuniform_chart():
    def metric(mesh):
        theta, r = mesh
        g = np.zeros(np.broadcast(theta, r).shape + (2, 2))
        g[..., 0, 0] = r**2 * (1.0 + 0.3 * np.cos(theta))
        g[..., 1, 1] = 1.0
        return g

    ch = build_chart(
        "custom", (16, 16), metric=metric, extents=[(0.0, 2 * np.pi), (0.5, 1.0)]
    )
    # the metric data varies along theta, so the chart keeps it dense
    assert ch.vol.strides[0] != 0 and ch.padded_cell_c[1].strides[0] != 0
    assert not ch.is_tangentially_uniform
    rhs_field = random_smooth_field(ch, "section", 13)
    # flat, then under a connection: both take the Jacobi path here
    for A in (Connection.flat(ch), _rand_conn(ch, 14, scale=0.3)):
        x = _dense_green(ch, A, rhs_field)
        info = SolveInfo()
        sol = green_A(rhs_field, A, tol=1e-12, info=info)
        assert info.iterations > 1
        assert ch._separable is None  # the Jacobi path builds no separable factor
        assert float(np.max(np.abs(sol.data - x))) < 1e-8 * float(np.max(np.abs(x)))


def test_cg_reports_converged_residual(ann32):
    info = SolveInfo()
    g = random_smooth_field(ann32, "section", 11)
    green_A(g, None, tol=1e-10, info=info)
    assert info.residual <= 1e-10
    assert info.iterations == 1


def test_green_raises_at_its_iteration_cap(ann32):
    A = _rand_conn(ann32, 5)
    info = SolveInfo()
    with pytest.raises(NoConvergence) as exc:
        green_A(random_smooth_field(ann32, "section", 6), A, tol=1e-10, maxiter=2, info=info)
    assert exc.value.iterations == 2
    assert exc.value.residual > 1e-10
    assert (info.iterations, info.residual, info.converged) == (2, exc.value.residual, False)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "connected"])
def test_green_fails_fast_on_a_non_finite_right_hand_side(ann32, bad, flat):
    g = random_smooth_field(ann32, "section", 6)
    g.data[10, 10, 1] = bad
    info = SolveInfo()
    with pytest.raises(NoConvergence, match="non-finite right-hand side") as exc:
        green_A(g, None if flat else _rand_conn(ann32, 5), info=info)
    assert exc.value.iterations == 0 and np.isnan(exc.value.residual)
    assert info.iterations == 0 and np.isnan(info.residual) and not info.converged


def test_green_fails_fast_on_a_non_finite_residual(ann32):
    # a NaN inside the connection passes its Dirichlet check and poisons the
    # first energy apply
    eta = random_smooth_field(ann32, "oneform", 5, scale=0.3)
    eta.data[10, 10, 0, 1] = np.nan
    info = SolveInfo()
    with pytest.raises(NoConvergence, match="non-finite residual after 1 iterations") as exc:
        green_A(random_smooth_field(ann32, "section", 6), Connection(ann32, eta), info=info)
    assert exc.value.iterations == 1 and np.isnan(exc.value.residual)
    assert info.iterations == 1 and np.isnan(info.residual) and not info.converged


@pytest.mark.parametrize(
    "kind, shape, bound",
    [("annulus", (128, 128), 14.9), ("cylindrical_shell", (12, 12, 16), 15.9)],
    ids=["annulus128", "shell12x12x16"],
)
def test_connected_green_peak_memory(kind, shape, bound):
    # tracemalloc peak of one connected solve, in field-sized arrays; the
    # bounds are what the solver measured when it allocated its temporaries
    # every iteration (5,724 KiB at 128^2, 856 KiB on the shell)
    import tracemalloc

    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 3)
    g = random_smooth_field(ch, "section", 4)
    green_A(g, A)  # builds the chart coefficients and the midpoint average
    tracemalloc.start()
    try:
        green_A(g, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.data.nbytes <= bound


@pytest.mark.parametrize(
    "kind, shape, bound",
    [("annulus", (128, 128), 6.5), ("cylindrical_shell", (16, 16, 20), 7.2)],
    ids=["annulus128", "shell16x16x20"],
)
def test_warm_flat_green_peak_memory(kind, shape, bound):
    # tracemalloc peak of one warm flat solve, in sections: four CG arrays
    # and two of energy-form scratch, whose block also holds the separable
    # solve's spectrum (6.35 and 6.98 measured). It was 8.0 and 9.0 while
    # the transforms allocated their spectra; on the shell the spectrum is
    # larger than one scratch buffer
    import tracemalloc

    ch = build_chart(kind, shape)
    g = random_smooth_field(ch, "section", 4)
    green_A(g)  # builds the chart coefficients and the separable pivots
    tracemalloc.start()
    try:
        green_A(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.data.nbytes <= bound


@pytest.mark.parametrize(
    "kind, shape",
    [("annulus", (128, 128)), ("cylindrical_shell", (16, 16, 20))],
    ids=["annulus128", "shell16x16x20"],
)
def test_warm_energy_apply_allocates_less_than_a_field(kind, shape):
    # given its output and scratch, one application of the energy matrix
    # (the Green solve's inner loop) allocates no field-sized temporary;
    # what tracemalloc sees is numpy's own iteration buffers (24-44 KiB)
    import tracemalloc

    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 3)
    x = np.ascontiguousarray(np.moveaxis(random_smooth_field(ch, "section", 4).data, -1, 0))
    out, scratch = np.empty_like(x), _scratch(A)
    _energy_apply(A, x, out, scratch)  # builds the coefficients and averages
    tracemalloc.start()
    try:
        _energy_apply(A, x, out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "flat"])
@pytest.mark.parametrize(
    "kind, shape", [("annulus", (32, 32)), ("cylindrical_shell", (8, 8, 10))],
    ids=["annulus32", "shell8x8x10"],
)
def test_green_solve_applies_the_energy_form_once_per_iteration(
        monkeypatch, kind, shape, connected):
    # one _energy_apply call per CG iteration; the stencils run only while
    # the first call records its ufunc calls, which the later calls replay
    from gaugekit import operators

    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 3) if connected else Connection.flat(ch)
    counts = {"apply": 0, "deriv_mid": 0}

    def counted(name, fn):
        def call(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(operators, "_energy_apply", counted("apply", operators._energy_apply))
    monkeypatch.setattr(st, "deriv_mid", counted("deriv_mid", st.deriv_mid))
    info = SolveInfo()
    green_A(random_smooth_field(ch, "section", 4), A, info=info)
    assert info.converged and info.iterations == counts["apply"]
    assert counts["deriv_mid"] == ch.n
    if connected:
        assert info.iterations > 1  # so the later calls replay


def test_connected_projection_peak_memory():
    # tracemalloc peak of one connected horizontal projection, in sections:
    # the solve's seven work arrays plus numpy's iteration buffers (7.9
    # measured). It was 10.7 while the projection kept its node-major
    # right-hand side, every axis's midpoint samples, a full-size Jacobi
    # diagonal and a separate A p through the solve
    import tracemalloc

    ch = build_chart("cylindrical_shell", (16, 16, 20))
    A = _rand_conn(ch, 3)
    eta = random_smooth_field(ch, "oneform", 5)
    horizontal_project(eta, A)  # builds the coefficients, the diagonal, the averages
    tracemalloc.start()
    try:
        horizontal_project(eta, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / Section.zeros(ch).data.nbytes <= 8.5


def test_connection_midpoints_are_published_whole(monkeypatch):
    # a projection on another thread reads A._mid as soon as it is set, so
    # it must not be set before every axis's average is in it
    ch = build_chart("cylindrical_shell", (8, 8, 10))
    A = _rand_conn(ch, 3)
    seen = []
    real = st.avg_mid

    def spy(*args, **kw):
        seen.append(A._mid)
        return real(*args, **kw)

    monkeypatch.setattr(st, "avg_mid", spy)
    A._mid_A(1)
    assert len(seen) == ch.n and all(m is None for m in seen)
    for ax in range(ch.n):
        want = real(np.moveaxis(A.eta.data[..., ax, :], -1, 0), ax + 1, ch.periodic[ax])
        got = A._mid_A(ax)
        assert np.array_equal(got if ch.periodic[ax] else got[..., :-1], want)


def test_jacobi_diagonal_is_cached_as_a_normal_profile():
    ch = build_chart("cylindrical_shell", (8, 8, 10))
    green_A(random_smooth_field(ch, "section", 4), _rand_conn(ch, 3))
    assert ch._jacobi.shape == (1, 1, 10)
    full = sum(st.avg_mid_t(c, ax, ch.periodic[ax]) * 2.0 / ch.h[ax] ** 2
               for ax, c in enumerate(ch.cell_c))
    assert np.array_equal(np.broadcast_to(ch._jacobi, ch.shape), 1.0 / full)


def _former_bracket(u, v):
    """algebra.coeff_bracket as whole-array expressions per component."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    out[..., 0] = u1 * v2 - u2 * v1
    out[..., 1] = u2 * v0 - u0 * v2
    out[..., 2] = u0 * v1 - u1 * v0
    out *= STRUCTURE_C
    return out


def _former_contract(a, b, ginv, product):
    """_bracket_contract as the full (..., n, K) bracket summed over the axes
    in axis order."""
    br = product(a, ginv[..., None] * b)
    return sum((br[..., i, :] for i in range(1, a.shape[-2])), br[..., 0, :])


def test_coeff_bracket_matches_its_former_formula():
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, 7, 9, 3))
    assert coeff_bracket(u, v).tobytes() == _former_bracket(u, v).tobytes()
    # broadcasting, and a single pair of coefficient vectors
    assert coeff_bracket(u[0, 0], v).tobytes() == _former_bracket(u[0, 0], v).tobytes()
    assert coeff_bracket(u[0, 0], v[0, 0]).tobytes() == _former_bracket(u[0, 0], v[0, 0]).tobytes()


@pytest.mark.parametrize("kind, shape", [("annulus", (160, 96)), ("cylindrical_shell", (8, 6, 10))],
                         ids=["annulus160x96", "shell8x6x10"])
def test_bracket_contraction_matches_the_full_bracket_sum(kind, shape):
    # 160 x 96 takes two uneven blocks of rows
    ch = build_chart(kind, shape)
    a = random_smooth_field(ch, "oneform", 21).data
    b = random_smooth_field(ch, "oneform", 22).data
    got = _bracket_contract(a, b, ch.ginv)
    assert got.tobytes() == _former_contract(a, b, ch.ginv, _former_bracket).tobytes()
    assert bracket_dot(OneForm(ch, a), OneForm(ch, b)).data.tobytes() == got.tobytes()
    # rank-one coefficients, componentwise
    a1, b1 = a[..., :1], b[..., :1]
    got = _bracket_contract(a1, b1, ch.ginv, np.multiply)
    assert got.tobytes() == _former_contract(a1, b1, ch.ginv, np.multiply).tobytes()
    # a band of normal rows, as the face-row codifferential passes it
    rows = (slice(None),) * (ch.n - 1) + (slice(3, 8),)
    got = _bracket_contract(a[rows], b[rows], ch.ginv[rows])
    want = _former_contract(a[rows], b[rows], ch.ginv[rows], _former_bracket)
    assert got.tobytes() == want.tobytes()


def test_connections_share_the_chart_energy_coefficients(ann32):
    c = ann32.cell_c
    g = random_smooth_field(ann32, "section", 6)
    for A in (Connection.flat(ann32), _rand_conn(ann32, 5)):
        green_A(g, A, tol=1e-8)
        assert ann32.cell_c is c
        assert set(vars(A)) == {"chart", "eta", "_mid"}  # no chart-only cache
    # the midpoint coefficients are views of the padded ones, not copies
    for mid, padded in zip(c, ann32.padded_cell_c):
        assert np.shares_memory(mid, padded)


def test_projector_outputs_horizontal_fields():
    # the residual codifferential of a projected form is O(h^2); the second
    # projection is then an O(h^2) correction of the first
    ratios, idems, hs = [], [], []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        A = _rand_conn(ch, 12)
        eta = random_smooth_field(ch, "oneform", 13)
        al = horizontal_project(eta, A, tol=1e-11)
        ratios.append(horizontality_ratio(al, A))
        again = horizontal_project(al, A, tol=1e-11)
        idems.append(float(np.max(np.abs(again.data - al.data))) / al.sup())
        hs.append(max(ch.h))
    assert ratios[0] < 0.05 and ratios[1] < 0.05  # curvature gate level
    order = np.log(ratios[0] / ratios[1]) / np.log(hs[0] / hs[1])
    assert order > 1.2
    assert idems[1] < idems[0] / 2.0


def test_anchored_face_rows_match_the_per_layer_rule(ann32):
    # reference: the 5-point rule written out at each of the 8 layers from
    # either face; every other row keeps the default node derivative
    f = random_smooth_field(ann32, "section", 9)
    got = _anchor_face_rows(d_A(f), f, ann32).data[:, :, 1, :]
    v, h, N = f.data, ann32.h[-1], ann32.shape[-1]
    want = d_A(f).data[:, :, 1, :]
    for j in range(8):
        want[:, j] = (
            -25 * v[:, j] + 48 * v[:, j + 1] - 36 * v[:, j + 2]
            + 16 * v[:, j + 3] - 3 * v[:, j + 4]
        ) / (12 * h)
        k = N - 1 - j
        want[:, k] = (
            25 * v[:, k] - 48 * v[:, k - 1] + 36 * v[:, k - 2]
            - 16 * v[:, k - 3] + 3 * v[:, k - 4]
        ) / (12 * h)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _whole_grid_anchor(grad, f, ch, depth=8):
    """_anchor_face_rows with the plain normal derivative taken on the
    whole grid, the form it replaced."""
    ax = ch.n - 1
    depth = min(depth, ch.shape[-1] - 4)
    if depth <= 0:
        return grad
    h = ch.h[-1]
    plain = st.deriv_node(f.data, ax, h, False)
    comp = grad.data[..., ax, :]
    for fc in ch.faces:
        rows = ch.face_rows(fc, depth)
        comp[rows] += st.face_layer_deriv(f.data, ax, h, fc.side, depth, order=4) - plain[rows]
    return grad


@pytest.mark.parametrize("connected", [False, True], ids=["flat", "connected"])
@pytest.mark.parametrize("kind, shape", [
    ("annulus", (16, 16)),
    ("cylindrical_shell", (8, 8, 10)),
    ("annulus", (12, 5)),  # one anchored layer: the slab is the end row's footprint
], ids=["annulus16", "shell8x8x10", "annulus12x5"])
def test_anchor_on_face_slabs_is_the_whole_grid_form(monkeypatch, kind, shape, connected):
    # the plain derivative on the anchored layers and one halo layer at each
    # face, not on the whole grid, projects bit for bit as before
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 3) if connected else None
    eta = random_smooth_field(ch, "oneform", 4)
    got = horizontal_project(eta, A)
    monkeypatch.setattr(ops, "_anchor_face_rows", _whole_grid_anchor)
    want = horizontal_project(eta, A)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_projector_preserves_tangential_traces(ann32):
    # subtracting d_A gamma with gamma|_faces = 0 can only move the normal
    # slot on the boundary; tangential (Dirichlet) slots must be untouched
    A = _rand_conn(ann32, 24)
    eta = random_smooth_field(ann32, "oneform", 25)
    al = horizontal_project(eta, A, tol=1e-11)
    for fc in ann32.faces:
        sl = ann32.face_slice(fc)
        tang = al.data[sl][..., : ann32.n - 1, :]
        np.testing.assert_allclose(tang, eta.data[sl][..., : ann32.n - 1, :], atol=1e-9)


@pytest.mark.parametrize("kind", ["annulus", "annulus_log"])
def test_cores_act_on_each_component_alone(kind):
    # the raw-array cores broadcast over the trailing component axis: a
    # three-component call equals the one-component call on each component
    ch = build_chart(kind, (32, 24))
    flat = Connection.flat(ch)
    w1 = random_smooth_field(ch, "oneform", 31).data
    cod = _codiff_adjoint(flat, _mid_samples(ch, w1))
    np.testing.assert_array_equal(cod, codiff_A(OneForm(ch, w1)).data)
    for k in range(ALGEBRA_DIM):
        one = slice(k, k + 1)
        assert np.array_equal(cod[..., one], _codiff_adjoint(flat, _mid_samples(ch, w1[..., one])))
        # the inner product sums over components, so it is exact on data
        # with one nonzero component: one-forms, sections and scalars
        for data in (w1, cod):
            rank_one = np.zeros_like(data)
            rank_one[..., k] = data[..., k]
            single = data[..., one]
            assert _node_inner(ch, rank_one, data) == _node_inner(ch, single, single)
        scalar = cod[..., k]
        assert _node_inner(ch, cod[..., one], cod[..., one]) == _node_inner(ch, scalar, scalar)


def test_codiff_squared_vanishes_flat_case():
    # the untwisted codifferential squares to zero; discretely the star-route
    # composition telescopes, so the defect is pure roundoff (the twisted
    # version instead picks up a curvature contraction and is not zero). The
    # two-form w_k dx^0 ^ dx^1 in component k has the star route of w_k / vol.
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        th, r = ch.mesh()
        w = {0: np.sin(th) * np.sin(np.pi * (r - 0.5) / 0.5),
             2: np.cos(2 * th) * (r - 0.5) * (1.0 - r)}
        data = np.zeros(ch.shape + (ch.n, ALGEBRA_DIM))
        for k, wk in w.items():
            data[..., k] = _star_route(ch, wk / ch.vol)
        dd = codiff_A(OneForm(ch, data), None, form="pointwise")
        assert float(np.max(np.abs(dd.data))) < 1e-12


def test_obstruction_chain_manufactured_value():
    # slab, A = 0, f = sin(pi x_n) e1: the chain returns pi^3 e1 at x_n = 0
    errs = []
    for n in (48, 96):
        ch = build_chart("periodic_slab", (n, n))
        x = ch.mesh()[-1]
        f = Section(ch, np.sin(np.pi * x)[..., None] * np.eye(ALGEBRA_DIM)[0])
        T = boundary_operator_T(f, None)
        errs.append(float(np.max(np.abs(T.values[0][..., 0] - np.pi**3))))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 0.02 * np.pi**3


def test_flat_boundary_operator_kernel_profile():
    # phi'(r0) = -2 H(r0) phi(r0) puts phi e1 in the kernel on the inner face
    errs = []
    for n in (64, 128):
        ch = build_chart("annulus", (n, n))
        r = ch.mesh()[-1]
        r0 = ch.coords[1][0]
        phi = np.exp(-2.0 * (r - r0) / r0)
        f = Section(ch, phi[..., None] * np.eye(ALGEBRA_DIM)[0])
        t0 = boundary_operator_T0(f)
        errs.append(float(np.max(np.abs(t0.values[0]))))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-3


def test_boundary_operators_are_linear(ann32):
    A = _rand_conn(ann32, 18)
    f1 = random_smooth_field(ann32, "section", 19)
    f2 = random_smooth_field(ann32, "section", 20)
    both = boundary_operator_T(Section(ann32, f1.data + f2.data), A)
    t1 = boundary_operator_T(f1, A)
    t2 = boundary_operator_T(f2, A)
    for side in (0, 1):
        lhs = both.values[side]
        rhs = t1.values[side] + t2.values[side]
        scale = max(float(np.max(np.abs(lhs))), 1.0)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12 * scale


def test_interior_supported_fields_have_zero_trace():
    ch = build_chart("annulus", (64, 64))
    A = _rand_conn(ch, 21)
    th, r = ch.mesh()
    r0, r1 = ch.coords[1][0], ch.coords[1][-1]
    s = (r - r0) / (r1 - r0)
    prof = np.where((s > 0.35) & (s < 0.65), np.sin(np.pi * (s - 0.35) / 0.3) ** 2, 0.0)
    f = Section(ch, (prof * np.cos(th))[..., None] * np.eye(ALGEBRA_DIM)[2])
    t0 = boundary_operator_T0(f)
    T = boundary_operator_T(f, A)
    for side in (0, 1):
        assert float(np.max(np.abs(t0.values[side]))) == 0.0
        assert float(np.max(np.abs(T.values[side]))) == 0.0


def test_smallest_ritz_value_matches_slab_mode():
    # Dirichlet ground mode sin(pi x_n) with unit height: lambda = pi^2
    ch = build_chart("periodic_slab", (32, 32))
    lam, mode = ritz_smallest(Connection.flat(ch), tol=1e-8, solve_tol=1e-10)
    assert abs(lam - np.pi**2) / np.pi**2 < 0.01
    x = ch.mesh()[-1]
    prof = np.abs(mode.data).max(axis=(0, -1))
    oracle = np.sin(np.pi * x[0, :])
    np.testing.assert_allclose(prof / prof.max(), oracle, atol=0.01)


def test_expansion_identity_converges():
    from gaugekit.harness import _expansion_rhs

    ratios, hs = [], []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        A = _rand_conn(ch, 22)
        f = random_smooth_field(ch, "section", 23)
        lhs = laplacian_A(f, A, form="adjoint")
        rhs = _expansion_rhs(f, A)
        ii = ch.interior_slice()
        num = float(np.max(np.abs(lhs.data[ii] - rhs.data[ii])))
        den = max(float(np.max(np.abs(lhs.data[ii]))), 1e-30)
        ratios.append(num / den)
        hs.append(max(ch.h))
    order = np.log(ratios[0] / ratios[1]) / np.log(hs[0] / hs[1])
    assert order > 1.5


def _old_pointwise_codiff(omega, A, rows=(...,)):
    # the former formula: the whole (..., n, 3) flux and its per-axis views
    ch = omega.chart
    w, ginv, vol = omega.data[rows], ch.ginv[rows], ch.vol[rows]
    flux = ginv[..., None] * w * vol[..., None, None]
    acc = np.zeros(w.shape[:-2] + (ALGEBRA_DIM,))
    for ax in range(ch.n):
        acc += st.deriv_node(flux[..., ax, :], ax, ch.h[ax], ch.periodic[ax])
    out = -acc / vol[..., None]
    if not A.is_flat:
        out = out - _bracket_contract(A.eta.data[rows], w, ginv)
    return out


@pytest.mark.parametrize(
    "kind, shape",
    [("annulus", (32, 24)), ("annulus_log", (24, 20)), ("cylindrical_shell", (6, 5, 12))],
)
@pytest.mark.parametrize("connected", [False, True], ids=["flat", "connected"])
def test_pointwise_codiff_keeps_the_bits_of_the_whole_flux(kind, shape, connected):
    ch = build_chart(kind, shape)
    A = _rand_conn(ch, 41) if connected else Connection.flat(ch)
    omega = random_smooth_field(ch, "oneform", 42)
    windows = [(...,)] + [ch.face_rows(fc, st.END_ROW_FOOTPRINT) for fc in ch.faces]
    for rows in windows:
        got = ops._pointwise_codiff(omega, A, rows)
        want = _old_pointwise_codiff(omega, A, rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
