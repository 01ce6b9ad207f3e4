"""su(2) coefficient algebra and SU(2) group arithmetic.

Algebra elements are stored as real coefficient vectors in the orthonormal
basis e_k = (i/sqrt(2)) sigma_k (sigma_k the Pauli matrices), which makes the
trace inner product tr(X^dagger Y) the Euclidean dot product of coefficients.
In this basis [e_i, e_j] = c * eps_ijk e_k with c = -sqrt(2), so brackets of
coefficient arrays are scaled cross products and stay exact to rounding.

Group elements are unit quaternions q = (w, u1, u2, u3) standing for the
matrix U = w*I + i*(u . sigma); composition, inverse, exponential and
logarithm all have closed forms, and every function here broadcasts over
leading array axes so whole grids of group values move through one call.

The product, exponential and normalisation are written once, on components:
qmul, qexp and qnormalize take and return (w, u1, u2, u3) (qexp takes the
three algebra coefficients) as separate arrays. A component-first
(4, *shape) array unpacks into them directly; the node-major quat_* wrappers
on (..., 4) arrays split the last axis and stack the result back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

RENORM_EVERY = 64


# ---------------------------------------------------------------------------
# coefficient-array operations (broadcast over leading axes)
# ---------------------------------------------------------------------------

def coeff_bracket(u, v):
    """Bracket of coefficient arrays: [u, v] = STRUCTURE_C * (u x v)."""
    u = np.asarray(u)
    v = np.asarray(v)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    out[..., 0] = u1 * v2 - u2 * v1
    out[..., 1] = u2 * v0 - u0 * v2
    out[..., 2] = u0 * v1 - u1 * v0
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
# quaternion SU(2) arithmetic (broadcast over leading axes)
# ---------------------------------------------------------------------------

def _split(q):
    """Component views of a node-major (..., k) array."""
    return np.moveaxis(np.asarray(q, dtype=float), -1, 0)


def qmul(p, q):
    """Components of the product U1 U2 for U = w*I + i(u.sigma)."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - ((x1 * x2 + y1 * y2) + z1 * z2),
        (w1 * x2 + w2 * x1) - (y1 * z2 - z1 * y2),
        (w1 * y2 + w2 * y1) - (z1 * x2 - x1 * z2),
        (w1 * z2 + w2 * z1) - (x1 * y2 - y1 * x2),
    )


def qexp(a):
    """Components of exp of the algebra coefficients (a1, a2, a3)."""
    a1, a2, a3 = a
    theta = np.sqrt((a1 * a1 + a2 * a2) + a3 * a3) / np.sqrt(2.0)
    # sin(theta)/theta, stable at zero
    fac = np.sinc(theta / np.pi) / np.sqrt(2.0)
    return np.cos(theta), fac * a1, fac * a2, fac * a3


def qnormalize(q):
    """Components of q projected back to the unit sphere."""
    w, x, y, z = q
    n = np.sqrt(((w * w + x * x) + y * y) + z * z)
    return w / n, x / n, y / n, z / n


def quat_identity(shape=()):
    q = np.zeros(shape + (4,))
    q[..., 0] = 1.0
    return q


def quat_mul(q1, q2):
    """Product of U1 U2 for U = w*I + i(u.sigma) quaternion components."""
    return np.stack(qmul(_split(q1), _split(q2)), axis=-1)


def quat_conj(q):
    out = np.array(q, copy=True)
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q):
    return np.stack(qnormalize(_split(q)), axis=-1)


def quat_exp(a):
    """exp of algebra coefficients (..., 3) as quaternions (..., 4)."""
    return np.stack(qexp(_split(a)), axis=-1)


def quat_log(q, tol=1e-8):
    """Algebra coefficients of log(U); raises NearCutLocus when tr(U) <= -2+tol."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., 0], -1.0, 1.0)
    if np.any(2.0 * w <= -2.0 + tol):
        raise NearCutLocus("group logarithm within tolerance of trace = -2")
    u = q[..., 1:]
    s = np.linalg.norm(u, axis=-1)
    theta = np.arctan2(s, w)
    # theta/sin(theta), stable at zero
    small = s < 1e-12
    fac = np.where(small, 1.0 + theta**2 / 6.0, theta / np.where(small, 1.0, s))
    return np.sqrt(2.0) * fac[..., None] * u


def quat_to_matrix(q):
    q = np.asarray(q, dtype=float)
    w = q[..., 0]
    u1, u2, u3 = q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = w + 1.0j * u3
    m[..., 0, 1] = u2 + 1.0j * u1
    m[..., 1, 0] = -u2 + 1.0j * u1
    m[..., 1, 1] = w - 1.0j * u3
    return m


def quat_rotate(q, a):
    """Coefficients of Ad(U) X = U X U^-1 for X with coefficients a."""
    w, x, y, z = _split(q)
    a1, a2, a3 = _split(a)
    s = w * w - ((x * x + y * y) + z * z)
    d = 2.0 * ((x * a1 + y * a2) + z * a3)
    c = 2.0 * w
    return np.stack([
        s * a1 + d * x - c * (y * a3 - z * a2),
        s * a2 + d * y - c * (z * a1 - x * a3),
        s * a3 + d * z - c * (x * a2 - y * a1),
    ], axis=-1)


def quat_rotate_inv(q, a):
    """Coefficients of Ad(U^-1) X."""
    return quat_rotate(quat_conj(q), a)


# ---------------------------------------------------------------------------
# scalar wrapper types
# ---------------------------------------------------------------------------

@dataclass
class AlgebraElement:
    """su(2) element as real coefficients in the orthonormal basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (ALGEBRA_DIM,):
            raise ValueError("AlgebraElement expects 3 real coefficients")

    @property
    def matrix(self):
        return coeff_to_matrix(self.coeffs)

    def __add__(self, other):
        return AlgebraElement(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return AlgebraElement(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return AlgebraElement(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(-self.coeffs)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


def basis_element(k):
    coeffs = np.zeros(ALGEBRA_DIM)
    coeffs[k] = 1.0
    return AlgebraElement(coeffs)


@dataclass
class GroupElement:
    """SU(2) element held as a unit quaternion.

    Products track how many multiplications accumulated since the last
    renormalization and project back to the unit sphere every
    RENORM_EVERY products so long chains do not drift off the group.
    """

    quat: np.ndarray
    products: int = field(default=0, compare=False)

    def __post_init__(self):
        self.quat = np.asarray(self.quat, dtype=float)
        if self.quat.shape != (4,):
            raise ValueError("GroupElement expects a length-4 quaternion")

    @classmethod
    def identity(cls):
        return cls(quat_identity())

    @property
    def matrix(self):
        return quat_to_matrix(self.quat)

    @property
    def trace(self):
        return 2.0 * self.quat[0]

    def inverse(self):
        return GroupElement(quat_conj(self.quat), self.products)

    def __mul__(self, other):
        q = quat_mul(self.quat, other.quat)
        products = self.products + other.products + 1
        if products >= RENORM_EVERY:
            q = quat_normalize(q)
            products = 0
        return GroupElement(q, products)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Matrix commutator [x, y], computed on coefficients."""
    return AlgebraElement(coeff_bracket(x.coeffs, y.coeffs))


def trace_inner(x: AlgebraElement, y: AlgebraElement) -> float:
    """Real trace inner product tr(x^dagger y); the coefficient dot product."""
    return float(np.dot(x.coeffs, y.coeffs))


def exp_map(x: AlgebraElement) -> GroupElement:
    """Closed-form (axis-angle) exponential of an algebra element."""
    return GroupElement(quat_exp(x.coeffs))


def log_map(g: GroupElement, tol=1e-8) -> AlgebraElement:
    """Closed-form logarithm; raises NearCutLocus near trace(g) = -2."""
    return AlgebraElement(quat_log(g.quat, tol=tol))


# cyclic partner pairs: e_k is proportional to [e_i, e_j] for (i, j, k) cyclic
_CYCLIC = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def commutator_decompose(x: AlgebraElement):
    """Write x as a sum of commutators of basis multiples.

    Returns a list of (f, g) AlgebraElement pairs with sum_i [f_i, g_i] = x
    to rounding. Each nonzero coefficient x_k contributes one pair built from
    the cyclic partner basis elements, with the magnitude split evenly
    between the two factors.
    """
    pairs = []
    for k in range(ALGEBRA_DIM):
        xk = float(x.coeffs[k])
        if xk == 0.0:
            continue
        i, j = _CYCLIC[k]
        t = xk / STRUCTURE_C
        s = np.sqrt(abs(t))
        pairs.append((basis_element(i) * (np.sign(t) * s), basis_element(j) * s))
    return pairs
