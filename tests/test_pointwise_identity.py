"""The fast pointwise layers reproduce their reference formulas bit for bit.

Random fields are evaluated on 1-D coordinates, the metric contractions
broadcast the stored diagonal of the metric, and the energy coefficients
read g^aa as 1/g_aa. The energy form pairs padded node-shaped buffers as
flat shifts, folds the 1/2 of its averages into the bracket, and replays
the ufunc calls it recorded on its scratch set; the Green solve keeps its
CG state on whole node arrays, and its separable preconditioner transforms
one axis at a time in that scratch. Each is compared here with the formula
or loop it replaced.
"""

import numpy as np
import pytest

from gaugekit import (
    BadGeometry,
    Connection,
    OneForm,
    build_chart,
    codiff_A,
    green_A,
    l2_inner,
    random_smooth_field,
)
from gaugekit import _stencils as st
from gaugekit.algebra import ALGEBRA_DIM, coeff_bracket
from gaugekit.operators import (
    SolveInfo,
    _energy_apply,
    _scratch,
    _separable_pivots,
    _separable_solver,
    bracket_dot,
    d_A_cell,
    hodge_star,
)

CHARTS = {
    "annulus16": ("annulus", (16, 16)),
    "slab12": ("periodic_slab", (12, 12)),
    "shell8x8x10": ("cylindrical_shell", (8, 8, 10)),
}


@pytest.fixture(scope="module", params=sorted(CHARTS))
def chart(request):
    kind, shape = CHARTS[request.param]
    return build_chart(kind, shape)


def _non_diagonal_chart():
    def metric(mesh):
        theta, r = mesh
        g = np.zeros(np.broadcast(theta, r).shape + (2, 2))
        g[..., 0, 0] = r**2
        g[..., 0, 1] = g[..., 1, 0] = 0.1 * r
        g[..., 1, 1] = 1.0
        return g

    return build_chart(
        "custom", (16, 16), metric=metric, extents=[(0.0, 2 * np.pi), (0.5, 1.0)]
    )


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

def _mesh_scalar(ch, rng, modes, degree, terms=4):
    mesh = np.meshgrid(*ch.coords, indexing="ij")
    out = np.zeros(ch.shape)
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    t = (mesh[-1] - lo) / (hi - lo)
    for _ in range(terms):
        term = np.ones(ch.shape)
        for ax in range(ch.n - 1):
            k = int(rng.integers(0, modes + 1))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            span = ch.shape[ax] * ch.h[ax]
            term = term * np.cos(k * (2.0 * np.pi / span) * mesh[ax] + phase)
        coeffs = rng.normal(size=degree + 1)
        poly = np.polynomial.polynomial.polyval(2.0 * t - 1.0, coeffs)
        out += rng.normal() * term * poly
    return out


def _mesh_field(ch, rank, seed, dbc, scale, modes=2, degree=3):
    """random_smooth_field's data from whole-grid meshes."""
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*ch.coords, indexing="ij")
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    vanish = np.sin(np.pi * (mesh[-1] - lo) / (hi - lo))

    def section():
        return np.stack([_mesh_scalar(ch, rng, modes, degree) for _ in range(ALGEBRA_DIM)], -1)

    if rank == "scalar":
        data = _mesh_scalar(ch, rng, modes, degree)
        data = data * vanish if dbc else data
    elif rank == "section":
        data = section()
        data = data * vanish[..., None] if dbc else data
    else:
        comps = []
        for ax in range(ch.n):
            c = section()
            comps.append(c * vanish[..., None] if dbc and ax < ch.n - 1 else c)
        data = np.stack(comps, axis=ch.n)
    peak = float(np.max(np.abs(data)))
    return data * (scale / peak) if peak > 0 else data


@pytest.mark.parametrize("rank", ["scalar", "section", "oneform"])
@pytest.mark.parametrize("dbc", [True, False])
def test_random_fields_match_the_mesh_formula(chart, rank, dbc):
    for seed in (0, 7):
        got = random_smooth_field(chart, rank, seed, dbc=dbc, scale=0.3)
        assert np.array_equal(got.data, _mesh_field(chart, rank, seed, dbc, 0.3))


# ---------------------------------------------------------------------------
# metric contractions
# ---------------------------------------------------------------------------

def _full_ginv(ch):
    """The chart's inverse metric as full n x n matrices, zero off the diagonal."""
    return ch.ginv[..., None] * np.eye(ch.n)


def _raise(ch, w):
    return np.einsum("...ij,...ja->...ia", _full_ginv(ch), w)


def _bracket_dot_ref(a, b):
    return coeff_bracket(a.data, _raise(a.chart, b.data)).sum(axis=-2)


def _codiff_ref(w, A):
    ch = w.chart
    flux = _raise(ch, w.data) * ch.vol[..., None, None]
    acc = np.zeros(ch.shape + (ALGEBRA_DIM,))
    for ax in range(ch.n):
        acc += st.deriv_node(flux[..., ax, :], ax, ch.h[ax], ch.periodic[ax])
    return -acc / ch.vol[..., None] - _bracket_dot_ref(A.eta, w)


def _hodge_ref(w):
    up = w.chart.vol[..., None, None] * _raise(w.chart, w.data)
    return np.stack([-up[..., 1, :], up[..., 0, :]], axis=-2)


def _l2_inner_ref(u, v):
    ch = u.chart
    contracted = np.einsum("...ij,...ik,...jk->...", _full_ginv(ch), u.data, v.data)
    return float(np.sum(ch.quad_w * ch.vol * contracted))


def _contractions(ch):
    """(got, einsum reference) for bracket_dot, the pointwise codiff_A, the
    node l2_inner of one-forms and, on 2d charts, the one-form hodge_star.
    The references contract with the full n x n inverse metric."""
    a = random_smooth_field(ch, "oneform", 1)
    b = random_smooth_field(ch, "oneform", 2)
    A = Connection(ch, random_smooth_field(ch, "oneform", 3, scale=0.3))
    pairs = [
        (bracket_dot(a, b).data, _bracket_dot_ref(a, b)),
        (codiff_A(a, A, form="pointwise").data, _codiff_ref(a, A)),
        (l2_inner(a, b), _l2_inner_ref(a, b)),
    ]
    if ch.n == 2:
        pairs.append((hodge_star(a).data, _hodge_ref(a)))
    return pairs


def test_metric_contractions_match_einsum_exactly(chart):
    for got, ref in _contractions(chart):
        assert np.array_equal(got, ref)


def test_a_non_diagonal_metric_is_rejected():
    with pytest.raises(BadGeometry, match="metric must be diagonal"):
        _non_diagonal_chart()


# ---------------------------------------------------------------------------
# energy coefficients
# ---------------------------------------------------------------------------

def test_cell_coefficients_match_the_metric_inverse(chart):
    for ax, c in enumerate(chart.cell_c):
        g = chart.metric_at(chart.mid_coords(ax))
        ref = chart.cell_weights(ax) * np.sqrt(np.linalg.det(g)) * np.linalg.inv(g)[..., ax, ax]
        assert np.array_equal(c, ref)


# ---------------------------------------------------------------------------
# energy form and Green solve
# ---------------------------------------------------------------------------

def _ref_pair(v, ax, periodic, op):
    """op(v_{i+1}, v_i) at the midpoints, sliced: N-1 on a bounded axis."""
    if periodic:
        return op(np.roll(v, -1, ax), v)
    n = v.shape[ax]
    return op(np.take(v, range(1, n), ax), np.take(v, range(n - 1), ax))


def _ref_pair_t(m, ax, periodic, op):
    """op(m_{i-1}, m_i) at the nodes; a bounded axis pairs its ends with 0."""
    if periodic:
        return op(np.roll(m, 1, ax), m)
    shape = list(m.shape)
    shape[ax] = 1
    zero = np.zeros(shape)
    return op(np.concatenate([zero, m], ax), np.concatenate([m, zero], ax))


def _ref_bracket(u, v):
    return np.moveaxis(coeff_bracket(np.moveaxis(u, 0, -1), np.moveaxis(v, 0, -1)), -1, 0)


def _ref_avg(v, ax, periodic):
    return _ref_pair(v, ax, periodic, np.add) * 0.5


def _ref_conn_mid(A, ax):
    return _ref_avg(np.moveaxis(A.eta.data[..., ax, :], -1, 0), ax + 1, A.chart.periodic[ax])


def _ref_grad(A, x, ax):
    """Staggered covariant gradient on the midpoint grid, as the sliced
    N-1 energy form computed it."""
    ch = A.chart
    per = ch.periodic[ax]
    out = _ref_pair(x, ax + 1, per, np.subtract) / ch.h[ax]
    if not A.is_flat:
        out = out + _ref_bracket(_ref_conn_mid(A, ax), _ref_avg(x, ax + 1, per))
    return out


def _ref_div(A, mids):
    """Sum over the axes of the transpose of _ref_grad applied to the
    cell-weighted midpoint values, accumulated in the order of the loop."""
    ch = A.chart
    acc = np.zeros((ALGEBRA_DIM,) + ch.shape)
    for ax, mid in enumerate(mids):
        per, h = ch.periodic[ax], ch.h[ax]
        mid = mid * ch.cell_c[ax]
        if per:  # deriv_mid_t divides after the difference when periodic
            acc += _ref_pair_t(mid, ax + 1, per, np.subtract) / h
        else:
            acc += _ref_pair_t(mid / h, ax + 1, per, np.subtract)
        if not A.is_flat:
            br = _ref_bracket(_ref_conn_mid(A, ax), mid)
            acc -= _ref_pair_t(br, ax + 1, per, np.add) * 0.5
    return acc


def _ref_energy(A, x):
    return _ref_div(A, [_ref_grad(A, x, ax) for ax in range(A.chart.n)])


def _ref_separable(ch):
    """The separable solve through the composite transforms: rfftn, the
    spectrum moved normal axis first and copied, the Thomas sweep, irfftn."""
    n = ch.n
    off, mult, inv = _separable_pivots(ch)
    axes = tuple(range(1, n))

    def solve(r, out):
        y = np.moveaxis(np.fft.rfftn(r, axes=axes), n, 0).copy()
        for j in range(1, y.shape[0]):
            y[j] -= mult[j] * y[j - 1]
        y[-1] *= inv[-1]
        for j in range(y.shape[0] - 2, -1, -1):
            y[j] = (y[j] - off[j] * y[j + 1]) * inv[j]
        out[...] = np.fft.irfftn(np.moveaxis(y, 0, n), s=ch.shape[:-1], axes=axes)

    return solve


def _ref_green(g, A, tol=1e-10):
    """The Jacobi- or separable-preconditioned CG loop on interior arrays,
    with the search direction the interior of a zero-padded node array."""
    ch = g.chart
    ii = ch.interior_slice()
    ic = (slice(None),) + ii
    r = (ch.quad_w * ch.vol)[ii] * np.moveaxis(g.data, -1, 0)[ic]
    prod = np.empty(r.shape[1:] + (ALGEBRA_DIM,))

    def dot(u, v):
        np.multiply(u, v, out=np.moveaxis(prod, -1, 0))
        return float(prod.sum())

    if A.is_flat and ch.is_tangentially_uniform:
        pre = _ref_separable(ch)
    else:
        diag = sum(
            _ref_pair_t(c, ax, ch.periodic[ax], np.add) * 0.5 * 2.0 / ch.h[ax] ** 2
            for ax, c in enumerate(ch.cell_c)
        )
        dinv = 1.0 / diag[ii]
        pre = lambda v, out: np.multiply(dinv, v, out=out)
    bnorm = float(np.sqrt(dot(r, r)))
    pad = np.zeros((ALGEBRA_DIM,) + ch.shape)
    p = pad[ic]
    x, z = np.zeros_like(r), np.empty_like(r)
    pre(r, z)
    p[...] = z
    rz = dot(r, z)
    for k in range(1, 10_000):
        ap = _ref_energy(A, pad)[ic]
        alpha = rz / dot(p, ap)
        x = x + p * alpha
        r = r - ap * alpha
        if float(np.sqrt(dot(r, r))) <= tol * bnorm:
            return np.moveaxis(x, 0, -1), k
        pre(r, z)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise AssertionError("the reference loop did not converge")


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "flat"])
def test_energy_form_and_green_solve_match_the_sliced_loop(chart, connected):
    ch = chart
    eta = random_smooth_field(ch, "oneform", 3, scale=0.3) if connected else None
    A = Connection(ch, eta)
    f = random_smooth_field(ch, "section", 4, dbc=False)
    x = np.moveaxis(f.data, -1, 0)
    ii = (slice(None),) + ch.interior_slice()
    for arg in (x, np.ascontiguousarray(x)):  # sliced and flat-shifted
        assert np.array_equal(_energy_apply(A, arg)[ii], _ref_energy(A, x)[ii])
    got = d_A_cell(f, A).arrays
    ref = [np.moveaxis(_ref_grad(A, x, ax), 0, -1) for ax in range(ch.n)]
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    w = random_smooth_field(ch, "oneform", 5, dbc=False)
    div = _ref_div(A, [
        _ref_avg(np.moveaxis(w.data[..., ax, :], -1, 0), ax + 1, ch.periodic[ax])
        for ax in range(ch.n)
    ])
    div = np.moveaxis(div, 0, -1) / (ch.quad_w * ch.vol)[..., None]
    assert np.array_equal(codiff_A(w, A).data[ch.interior_slice()], div[ch.interior_slice()])
    g = random_smooth_field(ch, "section", 6)
    info = SolveInfo()
    sol = green_A(g, A, info=info)
    ref_sol, ref_iters = _ref_green(g, A)
    assert info.iterations == ref_iters
    assert np.array_equal(sol.data[ch.interior_slice()], ref_sol)


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "flat"])
@pytest.mark.parametrize("kind, shape", [
    *CHARTS.values(),
    ("annulus", (15, 12)),  # an odd half spectrum
    ("cylindrical_shell", (16, 16, 20)),  # a spectrum larger than one buffer
], ids=[*CHARTS, "annulus15x12", "shell16x16x20"])
def test_separable_solve_matches_the_composite_transforms(kind, shape, connected):
    # the transforms one axis at a time, in place in the scratch block, give
    # rfftn and irfftn bit for bit; the second solve starts from the first
    # one's spectrum, and the first from an energy apply's leftovers
    ch = build_chart(kind, shape)
    A = Connection(ch, random_smooth_field(ch, "oneform", 3, scale=0.3) if connected else None)
    scratch = _scratch(A)
    assert np.shares_memory(scratch.spectrum, scratch[0])
    x = np.ascontiguousarray(np.moveaxis(random_smooth_field(ch, "section", 4).data, -1, 0))
    _energy_apply(A, x, np.empty_like(x), scratch)
    solve, ref = _separable_solver(ch, scratch.spectrum), _ref_separable(ch)
    ic = (slice(None),) + ch.interior_slice()
    for seed in (5, 6):
        r = np.ascontiguousarray(np.moveaxis(random_smooth_field(ch, "section", seed).data, -1, 0))
        got, want = np.zeros_like(r), np.zeros_like(r)
        solve(r[ic], got[ic])
        ref(r[ic], want[ic])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "flat"])
def test_replayed_energy_apply_follows_its_arrays_in_place(chart, connected):
    # the calls recorded on a scratch set read x and write out in place:
    # after x is overwritten, the replay is the new x's energy bit for bit
    ch = chart
    eta = random_smooth_field(ch, "oneform", 3, scale=0.3) if connected else None
    A = Connection(ch, eta)
    x = np.ascontiguousarray(
        np.moveaxis(random_smooth_field(ch, "section", 4, dbc=False).data, -1, 0))
    out, scratch = np.empty_like(x), _scratch(A)
    ii = (slice(None),) + ch.interior_slice()
    assert np.array_equal(_energy_apply(A, x, out, scratch)[ii], _ref_energy(A, x)[ii])
    calls = scratch.plan[-1]
    for seed in (5, 6):
        x[...] = np.moveaxis(random_smooth_field(ch, "section", seed, dbc=False).data, -1, 0)
        out.fill(np.nan)  # the replay must not read what out held
        assert _energy_apply(A, x, out, scratch) is out
        assert scratch.plan[-1] is calls  # replayed, not rebuilt
        assert np.array_equal(out[ii], _ref_energy(A, x)[ii])


def test_new_energy_arrays_rebuild_the_recorded_calls(chart):
    # a scratch set replays its calls only for the arrays they were
    # recorded on: another x, out or connection records afresh, and the
    # arrays it was first given are left as they were
    ch = chart
    A = Connection(ch, random_smooth_field(ch, "oneform", 3, scale=0.3))
    B = Connection(ch, random_smooth_field(ch, "oneform", 7, scale=0.3))
    xs = [np.ascontiguousarray(np.moveaxis(
        random_smooth_field(ch, "section", seed, dbc=False).data, -1, 0)) for seed in (4, 5)]
    outs = [np.empty_like(xs[0]) for _ in range(3)]
    scratch = _scratch(A)
    ii = (slice(None),) + ch.interior_slice()
    _energy_apply(A, xs[0], outs[0], scratch)
    first, last = outs[0].copy(), scratch.plan[-1]
    for conn, x, out in ((A, xs[1], outs[0]), (A, xs[1], outs[1]), (B, xs[1], outs[2])):
        _energy_apply(conn, x, out, scratch)
        assert scratch.plan[-1] is not last
        last = scratch.plan[-1]
        assert np.array_equal(out[ii], _ref_energy(conn, x)[ii])
    assert np.array_equal(outs[1][ii], _ref_energy(A, xs[1])[ii])
    assert np.array_equal(xs[0], np.ascontiguousarray(np.moveaxis(
        random_smooth_field(ch, "section", 4, dbc=False).data, -1, 0)))
    assert not np.array_equal(first[ii], outs[0][ii])
