"""Algebra layer against independent matrix-arithmetic oracles.

su(2) facts are verified twice: once through the package's coefficient and
quaternion array formulas and once by direct 2x2 complex matrix arithmetic
(with scipy's expm/logm as the transcendental oracle). The identities that
hold for every input (Jacobi, ad-invariance, exp/log, the product and the
adjoint action) are checked as properties over derandomized hypothesis
draws, on small grids, so each draw also exercises broadcasting.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from gaugekit import (
    ALGEBRA_DIM,
    STRUCTURE_C,
    NearCutLocus,
    coeff_bracket,
    commutator_decompose,
)
from gaugekit.algebra import (
    BASIS,
    coeff_to_matrix,
    matrix_to_coeff,
    qexp,
    qmul,
    qnormalize,
    quat_identity,
    quat_log,
    quat_rotate,
    quat_rotate_inv,
    quat_to_matrix,
)

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: the standard basis of coefficient vectors, e_k as row k
E = np.eye(ALGEBRA_DIM)

#: the same draws on every run, and no example database
_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _box(shape, bound):
    return hnp.arrays(
        np.float64, shape,
        elements=hs.floats(-bound, bound, allow_nan=False, allow_subnormal=False),
    )


#: node-major coefficient grids (..., 3), as fields hold them
_coeffs = _box((4, ALGEBRA_DIM), 3.0)
#: component-first algebra grids (3, ...), as the group functions take them;
#: |a| <= 2 sqrt(3) keeps theta = |a|/sqrt(2) below 0.8 pi, off the cut locus
_algebra = _box((ALGEBRA_DIM, 5), 2.0)


#: component-first unit quaternion grids (4, ...)
_unit_quats = (
    _box((4, 5), 1.0)
    .filter(lambda q: np.min(np.sum(q * q, axis=0)) > 1e-2)
    .map(lambda q: np.stack(qnormalize(q)))
)


def _oracle_basis():
    return (1.0j / np.sqrt(2.0)) * SIGMA


def _comm(x, y):
    return x @ y - y @ x


def _exp_matrix(a):
    """exp of algebra coefficients (3,) as a matrix, through qexp."""
    return quat_to_matrix(np.stack(qexp(a)))


def test_basis_is_orthonormal_antihermitian():
    E2 = _oracle_basis()
    np.testing.assert_allclose(BASIS, E2, atol=1e-15)
    for k in range(ALGEBRA_DIM):
        np.testing.assert_allclose(E2[k], -E2[k].conj().T, atol=1e-15)
        for l in range(ALGEBRA_DIM):
            ip = np.trace(E2[k].conj().T @ E2[l]).real
            assert abs(ip - (1.0 if k == l else 0.0)) < 1e-14


def test_structure_constant_from_matrices():
    # [e1, e2] = c e3 with c read off by direct 2x2 arithmetic
    E2 = _oracle_basis()
    c = np.trace(E2[2].conj().T @ _comm(E2[0], E2[1])).real
    assert abs(c - STRUCTURE_C) < 1e-14
    np.testing.assert_allclose(coeff_bracket(E[0], E[1]), c * E[2], atol=1e-14)


def test_coeff_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(ALGEBRA_DIM)
        v = rng.standard_normal(ALGEBRA_DIM)
        lhs = coeff_bracket(u, v)
        rhs = matrix_to_coeff(_comm(coeff_to_matrix(u), coeff_to_matrix(v)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_coeff_bracket_broadcasts_over_grids():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, 5, ALGEBRA_DIM))
    v = rng.standard_normal((4, 5, ALGEBRA_DIM))
    out = coeff_bracket(u, v)
    for i in range(4):
        for j in range(5):
            np.testing.assert_allclose(
                out[i, j], coeff_bracket(u[i, j], v[i, j]), atol=1e-14
            )


@_PROPERTY
@given(_coeffs, _coeffs, _coeffs)
def test_jacobi_identity(x, y, z):
    s = (
        coeff_bracket(x, coeff_bracket(y, z))
        + coeff_bracket(y, coeff_bracket(z, x))
        + coeff_bracket(z, coeff_bracket(x, y))
    )
    assert np.max(np.abs(s)) < 1e-12


@_PROPERTY
@given(_coeffs, _coeffs, _coeffs)
def test_ad_invariance_of_trace_form(x, y, z):
    # <[z, x], y> + <x, [z, y]> = 0, the trace form being the dot product
    s = np.sum(coeff_bracket(z, x) * y, axis=-1) + np.sum(x * coeff_bracket(z, y), axis=-1)
    assert np.max(np.abs(s)) < 1e-12


def test_trace_inner_is_matrix_trace_form():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.standard_normal(ALGEBRA_DIM)
        y = rng.standard_normal(ALGEBRA_DIM)
        oracle = np.trace(coeff_to_matrix(x).conj().T @ coeff_to_matrix(y)).real
        assert abs(np.dot(x, y) - oracle) < 1e-13


def test_exp_of_zero_is_identity():
    np.testing.assert_allclose(_exp_matrix(np.zeros(ALGEBRA_DIM)), np.eye(2), atol=1e-15)
    assert np.array_equal(np.stack(qexp(np.zeros((ALGEBRA_DIM, 2, 3)))), quat_identity((2, 3)))


def test_log_of_identity_is_zero():
    assert not np.any(quat_log(quat_identity((2, 3))))
    assert quat_log(quat_identity((2, 3))).shape == (ALGEBRA_DIM, 2, 3)


def test_exp_quarter_turn_closed_form():
    # exp(t e3) at t = pi/2: axis-angle closed form and scipy expm agree
    t = np.pi / 2.0
    x = E[2] * t
    g = _exp_matrix(x)
    np.testing.assert_allclose(g, scipy.linalg.expm(coeff_to_matrix(x)), atol=1e-13)
    ang = t / np.sqrt(2.0)
    closed = np.cos(ang) * np.eye(2) + 1j * np.sin(ang) * SIGMA[2]
    np.testing.assert_allclose(g, closed, atol=1e-13)


@_PROPERTY
@given(_box((ALGEBRA_DIM,), 4.0))
def test_exp_matches_scipy_on_random_elements(x):
    np.testing.assert_allclose(
        _exp_matrix(x), scipy.linalg.expm(coeff_to_matrix(x)), atol=1e-12
    )


@_PROPERTY
@given(_algebra)
def test_exp_log_roundtrip(a):
    # away from the cut locus the principal logarithm inverts qexp
    back = quat_log(np.stack(qexp(a)))
    assert back.shape == a.shape
    np.testing.assert_allclose(back, a, rtol=0, atol=1e-12)


def test_log_matches_scipy_logm():
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = 0.5 * rng.standard_normal(ALGEBRA_DIM)
        q = np.stack(qexp(x))
        oracle = matrix_to_coeff(scipy.linalg.logm(quat_to_matrix(q)))
        np.testing.assert_allclose(quat_log(q), oracle, atol=1e-10)


@_PROPERTY
@given(_box((ALGEBRA_DIM, 1), 1.0).filter(lambda v: np.sum(v * v) > 1e-2),
       hs.floats(1e-10, 1e-3), hs.floats(0.0, 0.98), hs.floats(1.02, 50.0))
def test_log_near_cut_locus_raises(axis, tol, inside, outside):
    # trace -> -2 is the antipode; the principal branch blows up there.
    # A node at trace -2 + d raises exactly when d <= tol.
    n = axis / np.sqrt(np.sum(axis * axis))

    def at_trace_gap(d):
        w = -1.0 + 0.5 * d
        return np.concatenate([[[w]], np.sqrt(1.0 - w * w) * n])

    near = np.concatenate([quat_identity((1,)), at_trace_gap(inside * tol)], axis=1)
    try:
        quat_log(near, tol=tol)
    except NearCutLocus:
        pass
    else:
        raise AssertionError("expected NearCutLocus")
    quat_log(at_trace_gap(outside * tol), tol=tol)


def test_group_products_stay_unitary():
    # 2000 unnormalized products drift off the sphere by rounding only
    rng = np.random.default_rng(23)
    q = quat_identity()
    for _ in range(2000):
        q = qmul(q, np.stack(qexp(0.1 * rng.standard_normal(ALGEBRA_DIM))))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    m = quat_to_matrix(q)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


@_PROPERTY
@given(_unit_quats, _unit_quats, _unit_quats)
def test_qmul_is_associative_and_preserves_norm(p, q, r):
    np.testing.assert_allclose(qmul(qmul(p, q), r), qmul(p, qmul(q, r)), rtol=0, atol=1e-15)
    pq = qmul(p, q)
    np.testing.assert_allclose(np.sum(pq * pq, axis=0), 1.0, rtol=0, atol=1e-15)
    # and the product is the matrix product
    np.testing.assert_allclose(
        quat_to_matrix(pq), quat_to_matrix(p) @ quat_to_matrix(q), rtol=0, atol=1e-15
    )


@_PROPERTY
@given(_unit_quats, _box((ALGEBRA_DIM, 5), 3.0))
def test_quat_rotate_is_adjoint_action(q, a):
    U = quat_to_matrix(q)
    X = coeff_to_matrix(np.moveaxis(a, 0, -1))
    Uh = np.conj(np.swapaxes(U, -1, -2))
    want = np.moveaxis(matrix_to_coeff(U @ X @ Uh), -1, 0)
    np.testing.assert_allclose(quat_rotate(q, a), want, rtol=0, atol=1e-12)
    want_inv = np.moveaxis(matrix_to_coeff(Uh @ X @ U), -1, 0)
    np.testing.assert_allclose(quat_rotate_inv(q, a), want_inv, rtol=0, atol=1e-12)


def test_decompose_zero_is_empty():
    assert commutator_decompose(np.zeros(ALGEBRA_DIM)) == []


def test_decompose_basis_direction():
    pairs = commutator_decompose(E[2])
    assert len(pairs) == 1
    f, g = pairs[0]
    total = _comm(coeff_to_matrix(f), coeff_to_matrix(g))
    np.testing.assert_allclose(total, coeff_to_matrix(E[2]), atol=1e-14)


def test_decompose_reconstructs_random_elements():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.standard_normal(ALGEBRA_DIM)
        pairs = commutator_decompose(x)
        total = np.zeros((2, 2), dtype=complex)
        for f, g in pairs:
            total += _comm(coeff_to_matrix(f), coeff_to_matrix(g))
        np.testing.assert_allclose(total, coeff_to_matrix(x), atol=1e-14)
        coeff_total = sum(coeff_bracket(f, g) for f, g in pairs)
        np.testing.assert_allclose(coeff_total, x, atol=1e-14)
    # and a whole grid at once
    x = rng.standard_normal((4, 5, ALGEBRA_DIM))
    coeff_total = sum(coeff_bracket(f, g) for f, g in commutator_decompose(x))
    np.testing.assert_allclose(coeff_total, x, atol=1e-14)


def _former_qmul(p, q):
    """qmul's components as whole-array expressions."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.stack([
        w1 * w2 - ((x1 * x2 + y1 * y2) + z1 * z2),
        (w1 * x2 + w2 * x1) - (y1 * z2 - z1 * y2),
        (w1 * y2 + w2 * y1) - (z1 * x2 - x1 * z2),
        (w1 * z2 + w2 * z1) - (x1 * y2 - y1 * x2),
    ])


def test_qmul_matches_its_former_formula():
    rng = np.random.default_rng(8)
    p, q = rng.standard_normal((2, 4, 6, 5))
    want = _former_qmul(p, q)
    assert qmul(p, q).tobytes() == want.tobytes()
    out = np.empty_like(p)
    assert qmul(p, q, out) is out and out.tobytes() == want.tobytes()
    # broadcasting, and single quaternions
    assert qmul(p[:, :1], q).tobytes() == _former_qmul(p[:, :1], q).tobytes()
    assert qmul(p[:, 0, 0], q[:, 0, 0]).tobytes() == _former_qmul(p[:, 0, 0], q[:, 0, 0]).tobytes()
