"""The fast pointwise layers reproduce their reference formulas bit for bit.

Random fields are evaluated on 1-D coordinates, the metric contractions use
matmul, and the energy coefficients read g^aa as 1/g_aa. Each is compared
here with the whole-grid formula it replaced.
"""

import numpy as np
import pytest

from gaugekit import Connection, OneForm, build_chart, codiff_A, random_smooth_field
from gaugekit import _stencils as st
from gaugekit.algebra import ALGEBRA_DIM, coeff_bracket
from gaugekit.operators import bracket_dot, hodge_star

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

def _raise(ch, w):
    return np.einsum("...ij,...ja->...ia", ch.ginv, w)


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


def _contractions(ch):
    """(got, einsum reference) for bracket_dot, the pointwise codiff_A and,
    on 2d charts, the one-form hodge_star."""
    a = random_smooth_field(ch, "oneform", 1)
    b = random_smooth_field(ch, "oneform", 2)
    A = Connection(ch, random_smooth_field(ch, "oneform", 3, scale=0.3))
    pairs = [
        (bracket_dot(a, b).data, _bracket_dot_ref(a, b)),
        (codiff_A(a, A, form="pointwise").data, _codiff_ref(a, A)),
    ]
    if ch.n == 2:
        pairs.append((hodge_star(a).data, _hodge_ref(a)))
    return pairs


def test_metric_contractions_match_einsum_exactly(chart):
    for got, ref in _contractions(chart):
        assert np.array_equal(got, ref)


def test_metric_contractions_on_a_non_diagonal_metric():
    # matmul and einsum may sum a dense row in different orders
    for got, ref in _contractions(_non_diagonal_chart()):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# energy coefficients
# ---------------------------------------------------------------------------

def test_cell_coefficients_match_the_metric_inverse(chart):
    for ax, c in enumerate(chart.cell_c):
        g = chart.metric_at(chart.mid_coords(ax))
        ref = chart.cell_weights(ax) * np.sqrt(np.linalg.det(g)) * np.linalg.inv(g)[..., ax, ax]
        assert np.array_equal(c, ref)
