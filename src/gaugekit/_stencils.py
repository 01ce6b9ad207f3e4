"""Finite-difference stencils shared by the field and operator modules.

All functions act on plain ndarrays along a given axis and broadcast over the
rest, so algebra components ride along untouched. The staggered
(cell-midpoint) difference and average, together with their exact
transposes, carry the energy form of the elliptic operators. They write
into a caller's `out` buffer when given one, and periodic axes wrap by
slicing. Contiguous node-shaped buffers pair as one flat shifted op, not
one loop per row. Given a `calls` list (and `out`), deriv_mid, deriv_mid_t
and their pair helpers append each ufunc call to it as
`(ufunc, (*operands, out))` over views built once, instead of running it
(`emit`); the energy form replays that list (`replay`) in every iteration
of the Green solve, so the Green solve's inner loop builds nothing. `_pair`
and `_pair_t` are the one home of the axis stride and of the flat shifted
and wrap slices.

Node derivatives are centered second order inside; periodic axes wrap,
by slicing as well, so a node derivative forms no shifted copy. The
one-sided rules at a bounded face live in one place, `face_layer_deriv`:
the 3-point second-order or the 5-point fourth-order rule, re-anchored at
every layer counted inward from the face; an axis too short for the rule
raises BadGeometry there. Its callers are the end rows of
`deriv_node`, `one_sided_deriv_at_face` (the face layer alone), the
face-layer anchoring of `operators.horizontal_project`, and the face-layer
Laplacian of T_A, on the layers `geometry.Chart.face_rows` indexes. Only
`geometry` calls `one_sided_deriv_at_face`: its mean curvature, and
`normal_derivative`, which every other boundary evaluation takes (the face
map `operators._face_map` of T0, T_A and the boundary identities; the
generator's Hopf derivative).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadGeometry


def _axslice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def deriv_node(v, axis, h, periodic):
    """First derivative collocated at the nodes. The centered differences
    are written into the result by slices, the wrap of a periodic axis
    too, and divided by 2h in place."""
    v = np.asarray(v)
    out = np.empty_like(v, dtype=float)
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    inner = out[s(slice(1, -1))]
    np.subtract(v[s(slice(2, None))], v[s(slice(0, -2))], out=inner)
    if periodic:
        np.subtract(v[s(slice(1, 2))], v[s(slice(-1, None))], out=out[s(slice(0, 1))])
        np.subtract(v[s(slice(0, 1))], v[s(slice(-2, -1))], out=out[s(slice(-1, None))])
        out /= 2.0 * h
        return out
    inner /= 2.0 * h
    out[s(slice(0, 1))] = face_layer_deriv(v, axis, h, 0)
    out[s(slice(-1, None))] = face_layer_deriv(v, axis, h, 1)
    return out


def emit(calls, op, *operands, out):
    """op(*operands, out=out): run at once when `calls` is None, else
    appended to `calls` as (op, (*operands, out)) and left for `replay`."""
    if calls is None:
        return op(*operands, out=out)
    calls.append((op, operands + (out,)))
    return out


def replay(calls):
    """Run the ufunc calls that `emit` recorded, in order; each takes its
    output array as its last positional argument."""
    for op, args in calls:
        op(*args)


def _pair(v, axis, periodic, op, out, calls=None):
    """op(v_{i+1}, v_i) at every cell midpoint; a periodic axis wraps by
    slicing, so `out` may be a preallocated buffer. A node-shaped `out` on a
    bounded axis gets a pad of unspecified value in its last slot. With v
    and `out` contiguous the pairs are one op over the flat arrays shifted by
    the axis stride; the last slots pair across rows, then are the pad or
    take the wrap. With `calls` the ops are recorded there (`emit`)."""
    v = np.asarray(v, dtype=float)
    nd = v.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    if not periodic and (out is None or out.shape != v.shape):  # N-1 midpoints
        return emit(calls, op, v[s(slice(1, None))], v[s(slice(0, -1))], out=out)
    if out is None:
        out = np.empty_like(v)
    if v.flags.c_contiguous and out.flags.c_contiguous:
        k = math.prod(v.shape[axis + 1:])
        flat = v.reshape(-1)
        emit(calls, op, flat[k:], flat[:-k], out=out.reshape(-1)[:-k])
    else:
        emit(calls, op, v[s(slice(1, None))], v[s(slice(0, -1))], out=out[s(slice(0, -1))])
    if periodic:
        emit(calls, op, v[s(slice(0, 1))], v[s(slice(-1, None))], out=out[s(slice(-1, None))])
    return out


def deriv_mid(v, axis, h, periodic, out=None, calls=None):
    """Difference at cell midpoints: (v_{i+1} - v_i)/h.

    Periodic axes return N midpoints (the last wraps); bounded axes N-1, or
    a pad after them in a node-shaped `out`. The result goes to `out` when
    one is given; with `calls` (and `out`) the ops are recorded there.
    """
    out = _pair(v, axis, periodic, np.subtract, out, calls)
    return emit(calls, np.true_divide, out, h, out=out)


def avg_mid(v, axis, periodic, out=None):
    """Two-point average at cell midpoints, matching deriv_mid's layout."""
    out = _pair(v, axis, periodic, np.add, out)
    out *= 0.5
    return out


def _pair_t(m, axis, periodic, op, out, calls=None):
    """op(m_{i-1}, m_i) at every node, from the midpoints on either side of
    node i: a periodic axis wraps, and on a bounded axis each end node pairs
    its one midpoint with 0, which a node-shaped m (given `out`) holds as the
    pad in its last slot. With m and `out` contiguous the pairs are one op
    over the flat arrays shifted by the axis stride; the first slots are
    then paired again with the wrap or with 0. With `calls` the ops are
    recorded there (`emit`)."""
    m = np.asarray(m, dtype=float)
    nd = m.ndim
    s = lambda sl: _axslice(nd, axis, sl)
    if out is None:
        shape = list(m.shape)
        shape[axis] += 0 if periodic else 1
        out = np.empty(shape)
    if out.shape != m.shape:  # the N-1 midpoints of a bounded axis
        emit(calls, op, m[s(slice(0, -1))], m[s(slice(1, None))], out=out[s(slice(1, -1))])
        emit(calls, op, m[s(slice(-1, None))], 0.0, out=out[s(slice(-1, None))])
    elif m.flags.c_contiguous and out.flags.c_contiguous:
        k = math.prod(m.shape[axis + 1:])
        flat = m.reshape(-1)
        emit(calls, op, flat[:-k], flat[k:], out=out.reshape(-1)[k:])
    else:
        emit(calls, op, m[s(slice(0, -1))], m[s(slice(1, None))], out=out[s(slice(1, None))])
    emit(calls, op, m[s(slice(-1, None))] if periodic else 0.0, m[s(slice(0, 1))],
         out=out[s(slice(0, 1))])
    return out


def deriv_mid_t(m, axis, h, periodic, out=None, calls=None):
    """Exact transpose of deriv_mid, mapping midpoint arrays back to nodes.

    With `out` the result goes there, and on a bounded axis m is divided by
    h in place, so the call allocates nothing; with `calls` as well the ops
    are recorded there.
    """
    if periodic:
        out = _pair_t(m, axis, True, np.subtract, out, calls)
        return emit(calls, np.true_divide, out, h, out=out)
    if out is None:
        m = np.asarray(m) / h
    else:
        emit(calls, np.true_divide, m, h, out=m)
    return _pair_t(m, axis, False, np.subtract, out, calls)


def avg_mid_t(m, axis, periodic, out=None):
    """Exact transpose of avg_mid; the result goes to `out` when one is
    given."""
    out = _pair_t(m, axis, periodic, np.add, out)
    out *= 0.5
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


#: normal layers read by deriv_node's end row (the second-order rule)
END_ROW_FOOTPRINT = len(_ONE_SIDED[2][0])


def face_layer_deriv(v, axis, h, side, depth=1, order=2):
    """+axis derivative on the first `depth` layers counted inward from a face.

    side 0 is the low end of the axis, side 1 the high end. The one-sided
    rule of the given order (3-point second order or 5-point fourth order)
    is re-anchored at every layer, so its truncation constant does not jump
    from layer to layer. The axis is kept with length `depth`, in array
    order: the result lines up with the first or last `depth` slices of v.
    An axis shorter than the rule's reach from the deepest layer raises
    BadGeometry.
    """
    if order not in _ONE_SIDED:
        raise ValueError(f"unsupported one-sided order: {order}")
    weights, den = _ONE_SIDED[order]
    v = np.asarray(v)
    reach = len(weights) + depth - 1
    if v.shape[axis] < reach:
        raise BadGeometry(f"the order-{order} one-sided rule at depth {depth} reads "
                          f"{reach} nodes along axis {axis}, which holds {v.shape[axis]}")
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
