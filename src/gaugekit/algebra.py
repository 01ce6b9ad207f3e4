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

def quat_identity(shape=()):
    q = np.zeros(shape + (4,))
    q[..., 0] = 1.0
    return q


def quat_mul(q1, q2):
    """Product of U1 U2 for U = w*I + i(u.sigma) quaternion components."""
    w1, u1 = q1[..., :1], q1[..., 1:]
    w2, u2 = q2[..., :1], q2[..., 1:]
    w = w1 * w2 - np.sum(u1 * u2, axis=-1, keepdims=True)
    u = w1 * u2 + w2 * u1 - np.cross(u1, u2)
    return np.concatenate([w, u], axis=-1)


def quat_conj(q):
    out = np.array(q, copy=True)
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_exp(a):
    """exp of algebra coefficients (..., 3) as quaternions (..., 4)."""
    a = np.asarray(a, dtype=float)
    theta = np.linalg.norm(a, axis=-1) / np.sqrt(2.0)
    # sin(theta)/theta, stable at zero
    fac = np.sinc(theta / np.pi) / np.sqrt(2.0)
    w = np.cos(theta)[..., None]
    u = fac[..., None] * a
    return np.concatenate([w, u], axis=-1)


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


def matrix_to_quat(m):
    m = np.asarray(m, dtype=complex)
    w = 0.5 * np.real(m[..., 0, 0] + m[..., 1, 1])
    u3 = 0.5 * np.imag(m[..., 0, 0] - m[..., 1, 1])
    u1 = 0.5 * np.imag(m[..., 0, 1] + m[..., 1, 0])
    u2 = 0.5 * np.real(m[..., 0, 1] - m[..., 1, 0])
    return np.stack([w, u1, u2, u3], axis=-1)


def quat_rotate(q, a):
    """Coefficients of Ad(U) X = U X U^-1 for X with coefficients a."""
    w = q[..., :1]
    u = q[..., 1:]
    uu = np.sum(u * u, axis=-1, keepdims=True)
    dot = np.sum(u * a, axis=-1, keepdims=True)
    return (w * w - uu) * a + 2.0 * dot * u - 2.0 * w * np.cross(u, a)


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

    @classmethod
    def from_matrix(cls, m):
        return cls(quat_normalize(matrix_to_quat(m)))

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
