"""Algebra layer against independent matrix-arithmetic oracles.

Scalar su(2) facts are verified twice: once through the package's
coefficient formulas and once by direct 2x2 complex matrix arithmetic
(with scipy's expm/logm as the transcendental oracle).
"""

import numpy as np
import scipy.linalg

from gaugekit import (
    ALGEBRA_DIM,
    STRUCTURE_C,
    AlgebraElement,
    GroupElement,
    NearCutLocus,
    bracket,
    coeff_bracket,
    commutator_decompose,
    exp_map,
    log_map,
    trace_inner,
)
from gaugekit.algebra import (
    BASIS,
    basis_element,
    coeff_to_matrix,
    matrix_to_coeff,
    qmul,
    quat_rotate,
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


def _oracle_basis():
    return (1.0j / np.sqrt(2.0)) * SIGMA


def _comm(x, y):
    return x @ y - y @ x


def test_basis_is_orthonormal_antihermitian():
    E = _oracle_basis()
    np.testing.assert_allclose(BASIS, E, atol=1e-15)
    for k in range(ALGEBRA_DIM):
        np.testing.assert_allclose(E[k], -E[k].conj().T, atol=1e-15)
        for l in range(ALGEBRA_DIM):
            ip = np.trace(E[k].conj().T @ E[l]).real
            assert abs(ip - (1.0 if k == l else 0.0)) < 1e-14


def test_structure_constant_from_matrices():
    # [e1, e2] = c e3 with c read off by direct 2x2 arithmetic
    E = _oracle_basis()
    c = np.trace(E[2].conj().T @ _comm(E[0], E[1])).real
    assert abs(c - STRUCTURE_C) < 1e-14
    got = coeff_bracket(basis_element(0).coeffs, basis_element(1).coeffs)
    np.testing.assert_allclose(got, c * basis_element(2).coeffs, atol=1e-14)


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


def test_jacobi_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y, z = (rng.standard_normal(ALGEBRA_DIM) for _ in range(3))
        s = (
            coeff_bracket(x, coeff_bracket(y, z))
            + coeff_bracket(y, coeff_bracket(z, x))
            + coeff_bracket(z, coeff_bracket(x, y))
        )
        assert np.max(np.abs(s)) < 1e-13


def test_ad_invariance_of_trace_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        y = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        z = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        s = trace_inner(bracket(z, x), y) + trace_inner(x, bracket(z, y))
        assert abs(s) < 1e-13


def test_trace_inner_is_matrix_trace_form():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        y = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        oracle = np.trace(x.matrix.conj().T @ y.matrix).real
        assert abs(trace_inner(x, y) - oracle) < 1e-13


def test_exp_of_zero_is_identity():
    g = exp_map(AlgebraElement(np.zeros(ALGEBRA_DIM)))
    np.testing.assert_allclose(g.matrix, np.eye(2), atol=1e-15)


def test_log_of_identity_is_zero():
    x = log_map(GroupElement.identity())
    assert x.norm() == 0.0


def test_exp_quarter_turn_closed_form():
    # exp(t e3) at t = pi/2: axis-angle closed form and scipy expm agree
    t = np.pi / 2.0
    x = basis_element(2) * t
    g = exp_map(x)
    oracle = scipy.linalg.expm(x.matrix)
    np.testing.assert_allclose(g.matrix, oracle, atol=1e-13)
    ang = t / np.sqrt(2.0)
    closed = np.cos(ang) * np.eye(2) + 1j * np.sin(ang) * SIGMA[2]
    np.testing.assert_allclose(g.matrix, closed, atol=1e-13)


def test_exp_matches_scipy_on_random_elements():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        np.testing.assert_allclose(
            exp_map(x).matrix, scipy.linalg.expm(x.matrix), atol=1e-12
        )


def test_exp_log_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        # keep |x| below the cut locus radius so log is single-valued
        x = AlgebraElement(0.8 * np.pi * rng.standard_normal(ALGEBRA_DIM) / 3)
        back = log_map(exp_map(x))
        np.testing.assert_allclose(back.coeffs, x.coeffs, atol=1e-12)


def test_log_matches_scipy_logm():
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = AlgebraElement(0.5 * rng.standard_normal(ALGEBRA_DIM))
        g = exp_map(x)
        oracle = matrix_to_coeff(scipy.linalg.logm(g.matrix))
        np.testing.assert_allclose(log_map(g).coeffs, oracle, atol=1e-10)


def test_log_near_cut_locus_raises():
    # trace -> -2 is the antipode; the principal branch blows up there
    x = basis_element(0) * (np.pi * np.sqrt(2.0))
    g = exp_map(x)
    assert abs(g.trace + 2.0) < 1e-12
    try:
        log_map(g)
    except NearCutLocus:
        return
    raise AssertionError("expected NearCutLocus")


def test_group_products_stay_unitary():
    rng = np.random.default_rng(23)
    g = GroupElement.identity()
    for _ in range(2000):
        g = g * exp_map(AlgebraElement(0.1 * rng.standard_normal(ALGEBRA_DIM)))
    assert abs(np.linalg.norm(g.quat) - 1.0) < 1e-12
    m = g.matrix
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_quat_rotate_is_adjoint_action():
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        g = exp_map(AlgebraElement(rng.standard_normal(ALGEBRA_DIM)))
        got = quat_rotate(g.quat, x.coeffs)
        U = g.matrix
        oracle = matrix_to_coeff(U @ x.matrix @ U.conj().T)
        np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_decompose_zero_is_empty():
    assert commutator_decompose(AlgebraElement(np.zeros(ALGEBRA_DIM))) == []


def test_decompose_basis_direction():
    pairs = commutator_decompose(basis_element(2))
    assert len(pairs) == 1
    f, g = pairs[0]
    total = _comm(f.matrix, g.matrix)
    np.testing.assert_allclose(total, basis_element(2).matrix, atol=1e-14)


def test_decompose_reconstructs_random_elements():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = AlgebraElement(rng.standard_normal(ALGEBRA_DIM))
        pairs = commutator_decompose(x)
        total = np.zeros((2, 2), dtype=complex)
        for f, g in pairs:
            total += _comm(f.matrix, g.matrix)
        np.testing.assert_allclose(total, x.matrix, atol=1e-14)
        coeff_total = sum(
            coeff_bracket(f.coeffs, g.coeffs) for f, g in pairs
        )
        np.testing.assert_allclose(coeff_total, x.coeffs, atol=1e-14)


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
