"""Finite-difference stencils shared by the field and operator modules.

All functions act on plain ndarrays along a given axis and broadcast over the
rest, so algebra components ride along untouched. The staggered
(cell-midpoint) difference and average, together with their exact
transposes, carry the energy form of the elliptic operators.

Node derivatives are centered second order inside; periodic axes wrap. The
one-sided rules at a bounded face live in one place, `face_layer_deriv`:
the 3-point second-order or the 5-point fourth-order rule, re-anchored at
every layer counted inward from the face. Its callers are the end rows of
`deriv_node`, `one_sided_deriv_at_face` (the face layer alone, used by the
mean curvature, the boundary identity and the generator's Hopf derivative),
the face-layer anchoring of `operators.horizontal_project`, and the layer
chain of `operators.boundary_operator_T`.
"""

from __future__ import annotations

import numpy as np


def _axslice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def deriv_node(v, axis, h, periodic):
    """First derivative collocated at the nodes."""
    v = np.asarray(v)
    if periodic:
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)
    out = np.empty_like(v, dtype=float)
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    out[s(slice(1, -1))] = (v[s(slice(2, None))] - v[s(slice(0, -2))]) / (2.0 * h)
    out[s(slice(0, 1))] = face_layer_deriv(v, axis, h, 0)
    out[s(slice(-1, None))] = face_layer_deriv(v, axis, h, 1)
    return out


def deriv_mid(v, axis, h, periodic):
    """Difference at cell midpoints: (v_{i+1} - v_i)/h.

    Periodic axes return N midpoints (the last wraps); bounded axes N-1.
    """
    v = np.asarray(v)
    if periodic:
        return (np.roll(v, -1, axis) - v) / h
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    return (v[s(slice(1, None))] - v[s(slice(0, -1))]) / h


def avg_mid(v, axis, periodic):
    """Two-point average at cell midpoints, matching deriv_mid's layout."""
    v = np.asarray(v)
    if periodic:
        return 0.5 * (np.roll(v, -1, axis) + v)
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    return 0.5 * (v[s(slice(1, None))] + v[s(slice(0, -1))])


def deriv_mid_t(m, axis, h, periodic):
    """Exact transpose of deriv_mid, mapping midpoint arrays back to nodes."""
    m = np.asarray(m)
    if periodic:
        return (np.roll(m, 1, axis) - m) / h
    nd = m.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    shape = list(m.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=float)
    out[s(slice(0, -1))] -= m / h
    out[s(slice(1, None))] += m / h
    return out


def avg_mid_t(m, axis, periodic):
    """Exact transpose of avg_mid."""
    m = np.asarray(m)
    if periodic:
        return 0.5 * (np.roll(m, 1, axis) + m)
    nd = m.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    shape = list(m.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=float)
    out[s(slice(0, -1))] += 0.5 * m
    out[s(slice(1, None))] += 0.5 * m
    return out


def quad_weights_1d(n, h, periodic):
    """Composite quadrature weights along one axis.

    Periodic axes use the (exact for the grid) rectangle rule; bounded axes
    the composite trapezoid rule.
    """
    w = np.full(n, h)
    if not periodic:
        w[0] = 0.5 * h
        w[-1] = 0.5 * h
    return w


def cumulative_trapezoid(v, axis, h):
    """Running composite-trapezoid integral along a bounded axis, zero at 0.

    The forward difference of the result reproduces the two-point midpoint
    average of v exactly, and the final entry equals the full composite
    trapezoid integral, so support bookkeeping downstream stays exact.
    """
    v = np.asarray(v, dtype=float)
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    mid = 0.5 * (v[s(slice(1, None))] + v[s(slice(0, -1))]) * h
    out = np.zeros_like(v)
    out[s(slice(1, None))] = np.cumsum(mid, axis=axis)
    return out


#: one-sided first-derivative weights on layers 0, 1, ... from a face, and
#: their denominator in units of h, by order of accuracy
_ONE_SIDED = {
    2: ((-3.0, 4.0, -1.0), 2.0),
    4: ((-25.0, 48.0, -36.0, 16.0, -3.0), 12.0),
}


def face_layer_deriv(v, axis, h, side, depth=1, order=2):
    """+axis derivative on the first `depth` layers counted inward from a face.

    side 0 is the low end of the axis, side 1 the high end. The one-sided
    rule of the given order (3-point second order or 5-point fourth order)
    is re-anchored at every layer, so its truncation constant does not jump
    from layer to layer. The axis is kept with length `depth`, in array
    order: the result lines up with the first or last `depth` slices of v.
    """
    if order not in _ONE_SIDED:
        raise ValueError(f"unsupported one-sided order: {order}")
    weights, den = _ONE_SIDED[order]
    v = np.asarray(v)
    if side == 1:
        v = np.flip(v, axis)
    nd = v.ndim
    acc = weights[0] * v[_axslice(nd, axis, slice(0, depth))]
    for k, w in enumerate(weights[1:], 1):
        acc = acc + w * v[_axslice(nd, axis, slice(k, k + depth))]
    out = acc / (den * h)
    return out if side == 0 else np.flip(-out, axis)


def one_sided_deriv_at_face(v, axis, h, side, order=2):
    """Inward-pointing one-sided derivative at a boundary face.

    side 0 is the low end of the axis, side 1 the high end; the result is the
    derivative along +axis (not yet flipped for inwardness) evaluated on the
    face slice, with the axis dimension removed. order selects the 3-point
    second-order or the 5-point fourth-order rule.
    """
    return np.take(face_layer_deriv(v, axis, h, side, 1, order), 0, axis=axis)
