"""su(2) coefficient algebra and SU(2) group arithmetic, on whole arrays.

Algebra elements are stored as real coefficient vectors in the orthonormal
basis e_k = (i/sqrt(2)) sigma_k (sigma_k the Pauli matrices), which makes the
trace inner product tr(X^dagger Y) the Euclidean dot product of coefficients.
In this basis [e_i, e_j] = c * eps_ijk e_k with c = -sqrt(2), so brackets of
coefficient arrays are scaled cross products and stay exact to rounding.
Fields keep their coefficients on the last axis, (..., 3), and
coeff_bracket, the matrix maps and commutator_decompose take them so.

Group elements are unit quaternions q = (w, u1, u2, u3) standing for the
matrix U = w*I + i*(u . sigma). There is one quaternion layout,
component-first: a grid of group values is a (4, *shape) array, and the
algebra coefficients that the group functions take and return are
(3, *shape). Composition, inverse, exponential, logarithm and the adjoint
action all have closed forms and broadcast over the trailing axes, so whole
grids of group values move through one call. qmul, qexp and qnormalize
unpack their arguments into components, so separate component arrays serve
as well; qmul returns a (4, ...) array, qexp and qnormalize separate
components, or store them in one (`out`).
"""

from __future__ import annotations

import numpy as np

from .errors import NearCutLocus

ALGEBRA_DIM = 3

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# e_k = (i/sqrt(2)) sigma_k
BASIS = (1.0j / np.sqrt(2.0)) * PAULI

# [e_i, e_j] = STRUCTURE_C * eps_ijk e_k
STRUCTURE_C = -np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coefficient arrays (..., 3)
# ---------------------------------------------------------------------------

def coeff_bracket(u, v):
    """Bracket of coefficient arrays: [u, v] = STRUCTURE_C * (u x v)."""
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    tmp = np.empty(out.shape[:-1], dtype=out.dtype)
    # out_c = u_a v_b - u_b v_a, formed in place with one scratch array
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        o = np.multiply(u[..., a], v[..., b], out=out[..., c])
        o -= np.multiply(u[..., b], v[..., a], out=tmp)
    out *= STRUCTURE_C
    return out


def coeff_to_matrix(a):
    """Map coefficient array (..., 3) to matrices (..., 2, 2)."""
    a = np.asarray(a, dtype=float)
    return np.einsum("...k,kij->...ij", a, BASIS)


def matrix_to_coeff(m):
    """Project matrices onto the basis: a_k = Re tr(e_k^dagger m).

    For inputs that are not exactly in su(2) this is the orthogonal
    projection under the trace inner product.
    """
    m = np.asarray(m, dtype=complex)
    basis_dag = np.conjugate(np.swapaxes(BASIS, -1, -2))
    return np.real(np.einsum("kji,...ij->...k", basis_dag, m))


# ---------------------------------------------------------------------------
# quaternion SU(2) arithmetic on component-first (4, ...) arrays
# ---------------------------------------------------------------------------

def qmul(p, q, out=None):
    """The product U1 U2 for U = w*I + i(u.sigma), as a component-first
    (4, ...) array: `out` when given (it must share no memory with either
    factor), a new one otherwise.

    Each component is formed in place in `out` with two scratch arrays, in
    the operation order of w1 w2 - ((x1 x2 + y1 y2) + z1 z2) and
    (w1 x2 + w2 x1) - (y1 z2 - z1 y2) with its cyclic shifts.
    """
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    shape = np.broadcast_shapes(np.shape(w1), np.shape(w2))
    if out is None:
        out = np.empty((4,) + shape)
    s, t = np.empty(shape), np.empty(shape)
    np.multiply(x1, x2, out=s)
    s += np.multiply(y1, y2, out=t)
    s += np.multiply(z1, z2, out=t)
    o = np.multiply(w1, w2, out=out[0, ...])  # a view, also when 0-d
    o -= s
    v1, v2 = (x1, y1, z1), (x2, y2, z2)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        o = np.multiply(w1, v2[c], out=out[1 + c, ...])
        o += np.multiply(w2, v1[c], out=s)
        np.multiply(v1[a], v2[b], out=s)
        s -= np.multiply(v1[b], v2[a], out=t)
        o -= s
    return out


def qexp(a, out=None):
    """Components of exp of the algebra coefficients (a1, a2, a3); with
    `out`, a component-first (4, ...) array, they are stored there."""
    a1, a2, a3 = a
    theta = np.sqrt((a1 * a1 + a2 * a2) + a3 * a3) / np.sqrt(2.0)
    # sin(theta)/theta, stable at zero
    fac = np.sinc(theta / np.pi) / np.sqrt(2.0)
    if out is None:
        return np.cos(theta), fac * a1, fac * a2, fac * a3
    np.cos(theta, out=out[0, ...])
    np.multiply(fac, a, out=out[1:])
    return out


def qnormalize(q, out=None):
    """Components of q projected back to the unit sphere; with `out`, a
    component-first array (q itself may be one), they are stored there."""
    w, x, y, z = q
    n = np.sqrt(((w * w + x * x) + y * y) + z * z)
    if out is None:
        return w / n, x / n, y / n, z / n
    return np.divide(q, n, out=out)


def quat_identity(shape=()):
    q = np.zeros((4,) + shape)
    q[0] = 1.0
    return q


def quat_conj(q):
    out = np.array(q, dtype=float, copy=True)
    out[1:] *= -1.0
    return out


def quat_log(q, tol=1e-8):
    """Algebra coefficients (3, ...) of log(U); raises NearCutLocus when
    tr(U) <= -2+tol."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[0], -1.0, 1.0)
    if np.any(2.0 * w <= -2.0 + tol):
        raise NearCutLocus("group logarithm within tolerance of trace = -2")
    u = q[1:]
    s = np.sqrt(np.sum(u * u, axis=0))
    theta = np.arctan2(s, w)
    del w
    # theta/sin(theta), stable at zero
    small = s < 1e-12
    fac = np.where(small, 1.0 + theta**2 / 6.0, theta / np.where(small, 1.0, s))
    del s, theta, small  # before the result is formed
    return np.sqrt(2.0) * fac * u


def quat_to_matrix(q):
    """The matrices (..., 2, 2) of quaternions (4, ...)."""
    w, u1, u2, u3 = np.asarray(q, dtype=float)
    m = np.empty(w.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = w + 1.0j * u3
    m[..., 0, 1] = u2 + 1.0j * u1
    m[..., 1, 0] = -u2 + 1.0j * u1
    m[..., 1, 1] = w - 1.0j * u3
    return m


def quat_rotate(q, a):
    """Coefficients (3, ...) of Ad(U) X = U X U^-1 for X with coefficients
    a (3, ...)."""
    w, x, y, z = q
    a1, a2, a3 = a
    s = w * w - ((x * x + y * y) + z * z)
    d = 2.0 * ((x * a1 + y * a2) + z * a3)
    c = 2.0 * w
    return np.stack([
        s * a1 + d * x - c * (y * a3 - z * a2),
        s * a2 + d * y - c * (z * a1 - x * a3),
        s * a3 + d * z - c * (x * a2 - y * a1),
    ])


def quat_rotate_inv(q, a):
    """Coefficients of Ad(U^-1) X."""
    return quat_rotate(quat_conj(q), a)


# cyclic partner pairs: e_k is proportional to [e_i, e_j] for (i, j, k) cyclic
_CYCLIC = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def commutator_decompose(x):
    """Write coefficients x (..., 3) as a sum of commutators of basis
    multiples.

    Returns a list of (f, g) coefficient-array pairs with
    sum_i coeff_bracket(f_i, g_i) = x to rounding. Each component k that is
    nonzero somewhere contributes one pair built from the cyclic partner
    basis directions, with the magnitude split evenly between the two
    factors.
    """
    x = np.asarray(x, dtype=float)
    pairs = []
    for k in range(ALGEBRA_DIM):
        xk = x[..., k]
        if not np.any(xk):
            continue
        i, j = _CYCLIC[k]
        t = xk / STRUCTURE_C
        s = np.sqrt(np.abs(t))
        f, g = np.zeros(x.shape), np.zeros(x.shape)
        f[..., i] = np.sign(t) * s
        g[..., j] = s
        pairs.append((f, g))
    return pairs
