"""Gauge action, curvature of the Dirichlet connection, and boundary checks.

A gauge transformation stores its group values as a quaternion grid together
with its own logarithmic derivative (Maurer-Cartan one-form), computed once
at construction. Composition multiplies values pointwise and transports the
stored derivative by the cocycle rule, so acting twice and acting by the
product agree to rounding rather than to discretization error. The holonomy
loop transport runs component-first, on (4, *shape) quaternions and
(3, *shape) connection components, through algebra's qmul/qexp/qnormalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import (
    ALGEBRA_DIM,
    coeff_bracket,
    quat_conj,
    quat_exp,
    quat_identity,
    quat_log,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_rotate_inv,
    qexp,
    qmul,
    qnormalize,
)
from .errors import BadGeometry, NotHorizontal, RankMismatch
from .fields import (
    OneForm,
    Section,
    exterior_d,
    l2_norm,
    normal_component,
    random_smooth_field,
    require_dbc,
)
from .geometry import mean_curvature, require_same_chart
from .operators import (
    Connection,
    _conn,
    boundary_operator_T,
    bracket_dot,
    codiff_A,
    green_A,
    ritz_smallest,
)


class GaugeTransformation:
    """Pointwise SU(2) field with its stored Maurer-Cartan one-form."""

    def __init__(self, chart, quat, mu):
        self.chart = chart
        self.quat = np.asarray(quat, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        if self.quat.shape != chart.shape + (4,):
            raise RankMismatch("gauge values must be one quaternion per node")
        if self.mu.shape != chart.shape + (chart.n, ALGEBRA_DIM):
            raise RankMismatch("stored derivative must be a one-form array")

    @classmethod
    def identity(cls, chart):
        return cls(
            chart,
            quat_identity(chart.shape),
            np.zeros(chart.shape + (chart.n, ALGEBRA_DIM)),
        )

    @classmethod
    def from_section(cls, f):
        """Exponentiate a Dirichlet section; boundary values are exactly 1."""
        if not isinstance(f, Section):
            raise RankMismatch("from_section expects a Section")
        require_dbc(f)
        ch = f.chart
        q = quat_exp(f.data)
        mu = np.empty(ch.shape + (ch.n, ALGEBRA_DIM))
        qc = quat_conj(q)
        for ax in range(ch.n):
            dq = st.deriv_node(q, ax, ch.h[ax], ch.periodic[ax])
            # vector part of U^-1 dU; coefficients carry the sqrt(2) of the basis
            mu[..., ax, :] = np.sqrt(2.0) * quat_mul(qc, dq)[..., 1:]
        return cls(ch, q, mu)

    def compose(self, other):
        """Pointwise product self * other with the cocycle derivative rule."""
        require_same_chart(self.chart, other.chart)
        quat = quat_normalize(quat_mul(self.quat, other.quat))
        mu = quat_rotate_inv(other.quat[..., None, :], self.mu) + other.mu
        return GaugeTransformation(self.chart, quat, mu)

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self):
        quat = quat_conj(self.quat)
        mu = -quat_rotate(self.quat[..., None, :], self.mu)
        return GaugeTransformation(self.chart, quat, mu)

    def boundary_distance(self):
        """Sup Frobenius distance from the identity over the boundary nodes."""
        ch = self.chart
        e = quat_identity(())
        worst = 0.0
        for fc in ch.faces:
            q = self.quat[ch.face_slice(fc)]
            d = np.sqrt(2.0) * np.linalg.norm(q - e, axis=-1)
            if d.size:
                worst = max(worst, float(np.max(d)))
        return worst

    def log_section(self, tol=1e-8):
        return Section(self.chart, quat_log(self.quat, tol=tol))


def gauge_act(A, g):
    """Transformed connection Ad(g^-1) A + g^-1 dg."""
    require_same_chart(A.chart, g.chart)
    new = g.mu.copy()
    if not A.is_flat:
        new += quat_rotate_inv(g.quat[..., None, :], A.eta.data)
    return Connection(A.chart, OneForm(A.chart, new))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def horizontality_ratio(omega, A=None):
    """Scale-free size of the codifferential relative to the form itself.

    The codifferential is the adjoint one, with interior rows only (its face
    layers are zero), so the ratio measures Dirichlet horizontality.
    """
    A = _conn(omega.chart, A)
    ch = omega.chart
    span = float(ch.coords[-1][-1] - ch.coords[-1][0])
    den = l2_norm(omega)
    if den == 0.0:
        return 0.0
    return l2_norm(codiff_A(omega, A, form="adjoint")) * span / den


#: largest horizontality_ratio that curvature_form accepts
_HORIZONTAL_TOL = 0.05


def curvature_form(alpha, beta, A=None, solve_tol=1e-10):
    """Curvature of the Dirichlet connection: -2 G_A([alpha . beta]).

    Both arguments must pass the horizontality gate, a ratio of at most
    0.05; project first if they came from anywhere other than
    horizontal_project.
    """
    A = _conn(alpha.chart, A)
    for name, w in (("first", alpha), ("second", beta)):
        rho = horizontality_ratio(w, A)
        if rho > _HORIZONTAL_TOL:
            raise NotHorizontal(
                f"{name} argument has codifferential ratio {rho:.3e} > {_HORIZONTAL_TOL:.1e}"
            )
    rhs = bracket_dot(alpha, beta)
    return -2.0 * green_A(rhs, A, tol=solve_tol)


# ---------------------------------------------------------------------------
# boundary identity and obstruction reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Sup residual of an identity and the scale that makes it relative."""

    residual: float
    scale: float

    @property
    def ratio(self):
        return self.residual / self.scale if self.scale > 0 else 0.0


def boundary_identity_residual(alpha, beta, A=None, general=False):
    """Residual of the boundary identity for the bracket product.

    Horizontal form: d_A[a.b](nu) + 2(n-1) H [a.b] = 0. The general form
    keeps the codifferential source terms -[d*_A a, b(nu)] - [a(nu), d*_A b]
    on the right-hand side. Returns sup residual together with the sup norm
    of the bracket product, which serves as the relative scale.
    """
    require_same_chart(alpha.chart, beta.chart)
    A = _conn(alpha.chart, A)
    ch = alpha.chart
    s = bracket_dot(alpha, beta)
    H = mean_curvature(ch)
    residual = 0.0
    if general:
        ca = codiff_A(alpha, A, form="pointwise")
        cb = codiff_A(beta, A, form="pointwise")
        anu = normal_component(alpha)
        bnu = normal_component(beta)
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        gnn = ch.g[sl][..., -1, -1]
        dn = st.one_sided_deriv_at_face(s.data, ch.n - 1, ch.h[-1], fc.side, order=4)
        dterm = fc.inward_sign * dn / np.sqrt(gnn)[..., None]
        if not A.is_flat:
            a_nu = (
                fc.inward_sign
                * A.eta.data[sl][..., -1, :]
                / np.sqrt(gnn)[..., None]
            )
            dterm = dterm + coeff_bracket(a_nu, s.data[sl])
        hterm = 2.0 * (ch.n - 1) * H.values[fc.side][..., None] * s.data[sl]
        lhs = dterm + hterm
        rhs = 0.0
        if general:
            r1 = -coeff_bracket(ca.data[sl], bnu.values[fc.side])
            r2 = -coeff_bracket(anu.values[fc.side], cb.data[sl])
            rhs = r1 + r2
        res = lhs - rhs
        residual = max(residual, float(np.max(np.abs(res))))
    scale = s.sup()
    return IdentityReport(residual, scale)


@dataclass
class ObstructionReport:
    """Cancellation ratios of the obstruction operator.

    ratio_curvature compares T_A on a curvature value against the size of
    T_A's own two terms there (near zero when the boundary relation holds);
    ratio_reference is the same quotient for a generic section of matched
    amplitude (near one when nothing cancels).
    """

    ratio_curvature: float
    ratio_reference: float
    sup_curvature: float
    sup_T_curvature: float
    sup_T_reference: float


def _cancellation_ratio(f, A):
    d_part, h_part = boundary_operator_T(f, A, split=True)
    total = d_part + h_part
    denom = d_part.sup() + h_part.sup()
    if denom == 0.0:
        return 0.0, 0.0
    return total.sup() / denom, total.sup()


def obstruction_report(alpha, beta, A=None, seed=7, solve_tol=1e-10):
    """Evaluate T_A on a curvature value and on a matched generic section."""
    A = _conn(alpha.chart, A)
    R = curvature_form(alpha, beta, A, solve_tol=solve_tol)
    ratio_curv, sup_curv_T = _cancellation_ratio(R, A)
    ref = random_smooth_field(
        alpha.chart, "section", seed=seed, dbc=True, scale=max(R.sup(), 1e-30)
    )
    ratio_ref, sup_ref_T = _cancellation_ratio(ref, A)
    return ObstructionReport(
        ratio_curvature=ratio_curv,
        ratio_reference=ratio_ref,
        sup_curvature=R.sup(),
        sup_T_curvature=sup_curv_T,
        sup_T_reference=sup_ref_T,
    )


# ---------------------------------------------------------------------------
# freeness of the action
# ---------------------------------------------------------------------------

@dataclass
class FreenessReport:
    distances: list
    bounds: list
    ok: bool

    @property
    def min_margin(self):
        pairs = [d / b for d, b in zip(self.distances, self.bounds) if b > 0]
        return min(pairs) if pairs else float("inf")


def freeness_check(A, n_seeds=20, seed0=1000):
    """Quantitative freeness probe for the gauge action.

    For transforms exp(f) with small Dirichlet f (sup 0.05), the moved
    connection must stay at least 0.8 sqrt(lambda_min) ||f|| away from the
    original, a fraction of the Poincare bound for the linearized motion
    d_A f. The eigenvalue only sets that lower bound, so a few digits
    suffice.
    """
    lam, _ = ritz_smallest(A, tol=2e-3, solve_tol=1e-8)
    root = float(np.sqrt(lam))
    distances, bounds = [], []
    for k in range(n_seeds):
        f = random_smooth_field(A.chart, "section", seed=seed0 + k, dbc=True, scale=0.05)
        g = GaugeTransformation.from_section(f)
        moved = gauge_act(A, g)
        diff = moved.perturbation() - A.perturbation()
        distances.append(l2_norm(diff, quadrature="cell"))
        bounds.append(0.8 * root * l2_norm(f))
    ok = all(d >= b for d, b in zip(distances, bounds))
    return FreenessReport(distances, bounds, ok)


# ---------------------------------------------------------------------------
# small-loop holonomy
# ---------------------------------------------------------------------------

@dataclass
class HolonomyProbe:
    k: int
    defect_small: float
    defect_large: float
    ratio: float
    cosine: float
    sign: float
    scale_const: float


def _loop_transport(A, k):
    """Quaternion holonomy of the k-cell loop in the (0, normal) coordinate
    plane at each node, component-first: (4, *shape)."""
    ch = A.chart
    i, j = 0, ch.n - 1
    eta = np.moveaxis(A.eta.data, (-2, -1), (0, 1)).copy()  # (n, 3, *shape)
    U = np.moveaxis(quat_identity(ch.shape), -1, 0)
    off = {i: 0, j: 0}
    for ax, sgn in [(i, 1)] * k + [(j, 1)] * k + [(i, -1)] * k + [(j, -1)] * k:
        here = np.roll(eta[ax], (-off[i], -off[j]), axis=(i + 1, j + 1))
        off[ax] += sgn
        there = np.roll(eta[ax], (-off[i], -off[j]), axis=(i + 1, j + 1))
        mid = 0.5 * (here + there)
        U = np.stack(qnormalize(qmul(qexp(-sgn * ch.h[ax] * mid), U)))
    return U


def small_loop_holonomy(A, k=2):
    """Holonomy defect of loops with sides k and 2k cells in the plane of
    the first tangential axis and the normal axis.

    Returns the sup defects, their ratio (near 4 for a curvature-dominated
    defect), and the alignment of the defect direction with the curvature
    two-form at the loop center. The overall sign is reported, not judged.
    A tuple of sizes k returns a list of probes, in that order, and
    transports a loop that two of them share once.
    """
    if A.is_flat:
        raise BadGeometry("holonomy probes need a non-flat connection")
    ch = A.chart
    i, j = 0, ch.n - 1
    single = np.isscalar(k)
    ks = (k,) if single else tuple(k)
    for kk in ks:
        if kk < 2 or kk % 2:
            raise BadGeometry("loop size k must be even and at least 2")
        if ch.shape[-1] < 2 * kk + 6:
            raise BadGeometry("normal axis too short for the requested loop")
    U = {kk: _loop_transport(A, kk) for kk in sorted({*ks, *(2 * kk for kk in ks)})}

    # curvature two-form component along the loop plane, at each node
    dd = exterior_d(A.eta)
    p = dd.pairs.index((i, j))
    F = dd.data[..., p, :] + coeff_bracket(A.eta.data[..., i, :], A.eta.data[..., j, :])

    probes = []
    for k in ks:
        valid = [slice(None)] * ch.n
        valid[-1] = slice(2, ch.shape[-1] - 1 - 2 * k)
        valid = tuple(valid)
        # defect fields for both loop sizes (log only where the loop is real,
        # away from rows where the normal-axis roll wrapped around)
        g1, g2 = (quat_log(np.moveaxis(U[kk], 0, -1)[valid]) for kk in (k, 2 * k))

        # sample F at the small-loop center
        shift = [0] * ch.n
        shift[i], shift[j] = -k // 2, -k // 2
        Fv = np.roll(F, shift=tuple(shift), axis=tuple(range(ch.n)))[valid]

        flat_norms = np.linalg.norm(g1, axis=-1)
        d1 = float(np.max(flat_norms))
        d2 = float(np.max(np.linalg.norm(g2, axis=-1)))
        idx = np.unravel_index(int(np.argmax(flat_norms)), flat_norms.shape)
        gpt, fpt = g1[idx], Fv[idx]
        dot = float(np.dot(gpt, fpt))
        denom = float(np.linalg.norm(gpt) * np.linalg.norm(fpt))
        cosine = abs(dot) / denom if denom > 0 else 0.0
        area = (k * ch.h[i]) * (k * ch.h[j])
        scale_const = dot / (area * float(np.dot(fpt, fpt))) if denom > 0 else 0.0
        probes.append(HolonomyProbe(
            k=k,
            defect_small=d1,
            defect_large=d2,
            ratio=d2 / d1 if d1 > 0 else float("nan"),
            cosine=cosine,
            sign=float(np.sign(dot)),
            scale_const=scale_const,
        ))
    return probes[0] if single else probes
