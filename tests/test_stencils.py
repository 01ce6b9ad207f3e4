"""Stencil layer: polynomial exactness, adjointness, quadrature."""

import numpy as np
import pytest
import scipy.integrate

from gaugekit import _stencils as st
from gaugekit.errors import BadGeometry


def _grid(n=17, h=0.25):
    return np.arange(n) * h


def test_deriv_node_exact_on_quadratics():
    x = _grid()
    v = 3.0 * x**2 - 2.0 * x + 1.0
    d = st.deriv_node(v, 0, 0.25, False)
    np.testing.assert_allclose(d, 6.0 * x - 2.0, atol=1e-12)


def test_deriv_node_periodic_exact_on_modes():
    n = 64
    h = 2.0 * np.pi / n
    x = np.arange(n) * h
    d = st.deriv_node(np.sin(x), 0, h, True)
    # spectral accuracy is not claimed; 2nd order central on the mode
    assert np.max(np.abs(d - np.cos(x))) < h**2


#: (axis, side) of a 3d array: axis 0 and the last axis, low and high face
FACES = pytest.mark.parametrize(
    "axis, side",
    [(0, 0), (0, 1), (2, 0), (2, 1)],
    ids=["axis0-low", "axis0-high", "last-low", "last-high"],
)


def _check_face_layers(prof, dprof, order, axis, side, atol):
    """Exactness of the anchored rule at every layer it can reach, with the
    profile laid along `axis` of a 3d array and scaled across the others."""
    x = _grid()
    scale = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]])
    v = np.moveaxis(scale[..., None] * prof(x), -1, axis)
    depth = x.size - order
    layers = x[:depth] if side == 0 else x[-depth:]
    want = np.moveaxis(scale[..., None] * dprof(layers), -1, axis)
    got = st.face_layer_deriv(v, axis, 0.25, side, depth, order)
    np.testing.assert_allclose(got, want, atol=atol)
    face = st.one_sided_deriv_at_face(v, axis, 0.25, side, order)
    np.testing.assert_allclose(face, np.take(want, -side, axis=axis), atol=atol)


@FACES
def test_one_sided_order2_exact_on_quadratics(axis, side):
    _check_face_layers(
        lambda x: x**2 - 5.0 * x, lambda x: 2 * x - 5.0, 2, axis, side, 1e-11
    )


@FACES
def test_one_sided_order4_exact_on_quartics(axis, side):
    _check_face_layers(
        lambda x: x**4 - 2.0 * x**3 + x,
        lambda x: 4 * x**3 - 6 * x**2 + 1.0,
        4,
        axis,
        side,
        1e-9,
    )


@pytest.mark.parametrize("order, depth, reach", [(2, 1, 3), (2, 3, 5), (4, 1, 5), (4, 2, 6)])
@pytest.mark.parametrize("side", [0, 1])
def test_face_rule_on_too_short_an_axis_raises_bad_geometry(order, depth, reach, side):
    v = np.ones((3, reach))
    assert st.face_layer_deriv(v, 1, 0.1, side, depth, order).shape == (3, depth)
    short = f"reads {reach} nodes along axis 1, which holds {reach - 1}"
    with pytest.raises(BadGeometry, match=short):
        st.face_layer_deriv(v[:, 1:], 1, 0.1, side, depth, order)
    if depth == 1:
        with pytest.raises(BadGeometry):
            st.one_sided_deriv_at_face(v[:, 1:], 1, 0.1, side, order)


def test_one_sided_applies_along_chosen_axis():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((6, 9))
    rows = st.one_sided_deriv_at_face(v, 1, 0.1, 0, order=4)
    for i in range(6):
        assert abs(rows[i] - st.one_sided_deriv_at_face(v[i], 0, 0.1, 0, 4)) < 1e-14


def test_deriv_mid_exact_on_quadratics():
    x = _grid()
    v = x**2
    mid = st.deriv_mid(v, 0, 0.25, False)
    xm = 0.5 * (x[1:] + x[:-1])
    np.testing.assert_allclose(mid, 2.0 * xm, atol=1e-12)


def test_avg_mid_exact_on_linears():
    x = _grid()
    v = 4.0 * x + 1.0
    mid = st.avg_mid(v, 0, False)
    xm = 0.5 * (x[1:] + x[:-1])
    np.testing.assert_allclose(mid, 4.0 * xm + 1.0, atol=1e-12)


def test_mid_transposes_are_exact_adjoints():
    rng = np.random.default_rng(2)
    for periodic in (False, True):
        n = 12
        nm = n if periodic else n - 1
        v = rng.standard_normal(n)
        m = rng.standard_normal(nm)
        lhs = np.dot(st.deriv_mid(v, 0, 0.3, periodic), m)
        rhs = np.dot(v, st.deriv_mid_t(m, 0, 0.3, periodic))
        assert abs(lhs - rhs) < 1e-12
        lhs = np.dot(st.avg_mid(v, 0, periodic), m)
        rhs = np.dot(v, st.avg_mid_t(m, 0, periodic))
        assert abs(lhs - rhs) < 1e-12


def test_quad_weights_integrate_linears_exactly():
    n, h = 21, 0.05
    x = np.arange(n) * h
    w = st.quad_weights_1d(n, h, False)
    assert abs(np.sum(w) - x[-1]) < 1e-13
    assert abs(np.dot(w, x) - 0.5 * x[-1] ** 2) < 1e-13


def test_quad_weights_periodic_sum_to_length():
    n, h = 16, 0.125
    w = st.quad_weights_1d(n, h, True)
    np.testing.assert_allclose(w, np.full(n, h), atol=1e-15)


def test_cumulative_trapezoid_matches_scipy():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 11))
    got = st.cumulative_trapezoid(v, 1, 0.2)
    oracle = scipy.integrate.cumulative_trapezoid(v, dx=0.2, axis=1, initial=0.0)
    np.testing.assert_allclose(got, oracle, atol=1e-13)
