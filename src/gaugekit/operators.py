"""Covariant differential operators and the Dirichlet Green solve.

The covariant Laplacian comes in two forms. The "adjoint" form is the exact
M-weighted adjoint of the staggered covariant gradient: its energy matrix is
symmetric positive definite on sections vanishing at the boundary, which is
what the conjugate-gradient Green solve and the Ritz bounds rely on. The
"pointwise" form composes collocated node stencils exactly as the continuum
formula reads; it is the form used for boundary evaluations. Both are second
order in the interior and agree to O(h^2) on smooth data.

The adjoint form, the staggered gradient d_A_cell and the energy matrix are
built from one per-axis pair: the covariant gradient at an axis's midpoints
(`_grad_mid`) and its transpose weighted by the energy-form coefficients
(`_add_div_mid`). The chart owns those coefficients (`Chart.cell_c`); a
connection holds only its perturbation and its midpoint average.

The Green solve is preconditioned conjugate gradient with one stopping rule,
||S u - M g|| <= tol ||M g||. With a flat connection on a chart whose metric
depends on the normal coordinate only (`Chart.is_tangentially_uniform`, true
for every built-in chart) the energy matrix is separable, and the
preconditioner is its direct solve: an FFT along the periodic axes and one
cached tridiagonal sweep per mode along the normal axis, so CG stops after
one iteration. Solves under a connection, and flat solves on other charts,
use the Jacobi diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM, coeff_bracket
from .errors import (
    BadGeometry,
    DbcViolation,
    NoConvergence,
    NotTypeB,
    RankMismatch,
)
from .fields import (
    DBC_TOL,
    MidOneForm,
    OneForm,
    ScalarField,
    Section,
    ThreeForm,
    TwoForm,
    check_dbc,
    flat_d,
    l2_inner,
)
from .geometry import mean_curvature, require_same_chart


class Connection:
    """Base connection plus an optional Dirichlet perturbation one-form."""

    def __init__(self, chart, eta=None):
        self.chart = chart
        if eta is not None:
            if not isinstance(eta, OneForm):
                raise RankMismatch("connection perturbations are one-forms")
            require_same_chart(chart, eta.chart)
            ok, worst = check_dbc(eta)
            if not ok:
                raise DbcViolation(
                    f"perturbation tangential trace {worst:.3e} exceeds {DBC_TOL:.1e}"
                )
        self.eta = eta
        self._mid = None

    @classmethod
    def flat(cls, chart):
        return cls(chart)

    @property
    def is_flat(self):
        return self.eta is None

    def perturbation(self):
        return self.eta if self.eta is not None else OneForm.zeros(self.chart)

    def _mid_A(self, ax):
        """Connection component along ax averaged to that axis's midpoints."""
        if self.is_flat:
            return None
        if self._mid is None:
            self._mid = MidOneForm.of(self.eta)
        return self._mid.axis_data(ax)


def _conn(chart, A):
    if A is None:
        return Connection.flat(chart)
    require_same_chart(chart, A.chart)
    return A


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def d_A(f, A=None):
    """Covariant derivative of a section, collocated at nodes."""
    if not isinstance(f, Section):
        raise RankMismatch("d_A expects a Section")
    A = _conn(f.chart, A)
    out = flat_d(f)
    if not A.is_flat:
        out.data = out.data + coeff_bracket(A.eta.data, f.data[..., None, :])
    return out


def _grad_mid(A, x, ax):
    """Staggered covariant gradient of node values x along ax, sampled at
    that axis's midpoints."""
    ch = A.chart
    t = st.deriv_mid(x, ax, ch.h[ax], ch.periodic[ax])
    Am = A._mid_A(ax)
    if Am is not None:
        t = t + coeff_bracket(Am, st.avg_mid(x, ax, ch.periodic[ax]))
    return t


def _add_div_mid(out, A, mid, ax):
    """Add to the node array `out` the transpose of _grad_mid along ax
    applied to the midpoint values `mid` weighted by `Chart.cell_c`."""
    ch = A.chart
    per = ch.periodic[ax]
    m = ch.cell_c[ax][..., None] * mid
    out += st.deriv_mid_t(m, ax, ch.h[ax], per)
    Am = A._mid_A(ax)
    if Am is not None:
        out -= st.avg_mid_t(coeff_bracket(Am, m), ax, per)


def d_A_cell(f, A=None):
    """Covariant derivative sampled natively at cell midpoints (staggered)."""
    if not isinstance(f, Section):
        raise RankMismatch("d_A_cell expects a Section")
    A = _conn(f.chart, A)
    return MidOneForm(f.chart, [_grad_mid(A, f.data, ax) for ax in range(f.chart.n)])


def bracket_dot(alpha, beta):
    """Metric-contracted bracket of two one-forms: sum_ij g^ij [alpha_i, beta_j]."""
    require_same_chart(alpha.chart, beta.chart)
    if not isinstance(alpha, OneForm) or not isinstance(beta, OneForm):
        raise RankMismatch("bracket_dot expects two OneForms")
    ch = alpha.chart
    raised = np.einsum("...ij,...ja->...ia", ch.ginv, beta.data)
    return Section(ch, coeff_bracket(alpha.data, raised).sum(axis=-2))


def wedge_bracket(alpha, beta):
    """Bracket-valued wedge of two one-forms: [a ^ b]_ij = [a_i, b_j] - [a_j, b_i]."""
    require_same_chart(alpha.chart, beta.chart)
    ch = alpha.chart
    out = TwoForm.zeros(ch)
    for p, (i, j) in enumerate(out.pairs):
        out.data[..., p, :] = coeff_bracket(
            alpha.data[..., i, :], beta.data[..., j, :]
        ) - coeff_bracket(alpha.data[..., j, :], beta.data[..., i, :])
    return out


def exterior_d_A(omega, A=None):
    """Covariant exterior derivative of a one-form."""
    from .fields import exterior_d

    A = _conn(omega.chart, A)
    out = exterior_d(omega)
    if not A.is_flat:
        out = out + wedge_bracket(A.eta, omega)
    return out


# ---------------------------------------------------------------------------
# codifferential and Laplacian
# ---------------------------------------------------------------------------

def _codiff_pointwise_data(omega, A):
    ch = omega.chart
    flux = np.einsum("...ij,...ja->...ia", ch.ginv, omega.data) * ch.vol[..., None, None]
    acc = np.zeros(ch.shape + (ALGEBRA_DIM,))
    for ax in range(ch.n):
        acc += st.deriv_node(flux[..., ax, :], ax, ch.h[ax], ch.periodic[ax])
    out = -acc / ch.vol[..., None]
    if not A.is_flat:
        out = out - bracket_dot(A.eta, omega).data
    return out


def _energy_apply(A, x):
    """Energy matrix of the covariant Dirichlet form applied to node values."""
    out = np.zeros_like(x)
    for ax in range(A.chart.n):
        # t stays bound until the next axis: freeing it inside the call
        # changes the heap layout under CG enough to double its page faults
        t = _grad_mid(A, x, ax)
        _add_div_mid(out, A, t, ax)
    return out


def _mid_to_node(omega):
    """Node one-form from midpoint samples by adjacent averaging (the face
    nodes copy the single neighboring midpoint)."""
    ch = omega.chart
    data = np.zeros(ch.shape + (ch.n, ALGEBRA_DIM))
    for ax in range(ch.n):
        arr = omega.axis_data(ax)
        if ch.periodic[ax]:
            data[..., ax, :] = 0.5 * (arr + np.roll(arr, 1, axis=ax))
        else:
            sl = [slice(None)] * ch.n
            lo, hi, core = sl.copy(), sl.copy(), sl.copy()
            lo[ax], hi[ax], core[ax] = 0, -1, slice(1, -1)
            up, dn = sl.copy(), sl.copy()
            up[ax], dn[ax] = slice(1, None), slice(None, -1)
            data[(*core, ax)] = 0.5 * (arr[tuple(up)] + arr[tuple(dn)])
            data[(*lo, ax)] = arr[tuple(lo)]
            data[(*hi, ax)] = arr[tuple(hi)]
    return OneForm(ch, data)


def codiff_A(omega, A=None, form="adjoint"):
    """Covariant codifferential of a one-form.

    form="adjoint": exact adjoint of the staggered covariant gradient under
    the cell quadrature (interior rows; the two boundary layers are filled
    from the pointwise form, which any Dirichlet pairing never sees).
    Accepts midpoint-sampled one-forms natively. form="pointwise":
    -(1/a) d_i(a g^ij w_j) - [A . w] with node stencils.
    """
    if not isinstance(omega, (OneForm, MidOneForm)):
        raise RankMismatch("codiff_A expects a one-form")
    A = _conn(omega.chart, A)
    ch = omega.chart
    if form == "pointwise":
        if isinstance(omega, MidOneForm):
            omega = _mid_to_node(omega)
        return Section(ch, _codiff_pointwise_data(omega, A))
    if form != "adjoint":
        raise ValueError("form must be 'adjoint' or 'pointwise'")
    mid = MidOneForm.of(omega)
    acc = np.zeros(ch.shape + (ALGEBRA_DIM,))
    for ax in range(ch.n):
        _add_div_mid(acc, A, mid.axis_data(ax), ax)
    out = acc / (ch.quad_w * ch.vol)[..., None]
    node_omega = _mid_to_node(omega) if isinstance(omega, MidOneForm) else omega
    pt = _codiff_pointwise_data(node_omega, A)
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        out[sl] = pt[sl]
    return Section(ch, out)


def laplacian_A(f, A=None, form="adjoint"):
    """Covariant Laplacian of a section (positive convention, d* d).

    The adjoint form reproduces the SPD energy matrix on the interior and
    fills the boundary layers from the pointwise composition; the pointwise
    form is the plain composition codiff(d f) everywhere.
    """
    if not isinstance(f, Section):
        raise RankMismatch("laplacian_A expects a Section")
    A = _conn(f.chart, A)
    ch = f.chart
    if form == "pointwise":
        return Section(ch, _codiff_pointwise_data(d_A(f, A), A))
    if form != "adjoint":
        raise ValueError("form must be 'adjoint' or 'pointwise'")
    out = _energy_apply(A, f.data) / (ch.quad_w * ch.vol)[..., None]
    pt = _codiff_pointwise_data(d_A(f, A), A)
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        out[sl] = pt[sl]
    return Section(ch, out)


# ---------------------------------------------------------------------------
# Green solve
# ---------------------------------------------------------------------------

@dataclass
class SolveInfo:
    """Iteration record for the last conjugate-gradient solve."""

    iterations: int = 0
    residual: float = 0.0
    converged: bool = False


def _separable_solver(ch):
    """Direct solve of the flat energy matrix on a tangentially uniform chart.

    There S = sum_t L_t (x) diag(c_t) + I (x) K_n, with L_t the circulant
    deriv_mid^T deriv_mid along tangential axis t and c_t, c_n the normal
    profiles of the cell coefficients. A real FFT over the tangential axes
    leaves one SPD tridiagonal system sum_t lam_t(k) c_t + K_n per mode, with
    lam_t(k) = 4 sin^2(pi k / N_t) / h_t^2, on the interior normal nodes;
    a batched Thomas sweep solves them. The pivots are cached on the chart.
    """
    n = ch.n
    tang = tuple(range(n - 1))
    if ch._separable is None:
        c = ch.cell_c
        t0 = (0,) * (n - 1)
        col = (-1,) + (1,) * (n - 1)
        cn = c[n - 1][t0] / ch.h[-1] ** 2
        off = -cn[1:-1]
        # diagonal per (interior normal node, mode...), normal axis first;
        # the last tangential axis carries the rfft's half spectrum
        diag = (cn[:-1] + cn[1:]).reshape(col)
        for t in tang:
            nt = ch.shape[t]
            k = np.arange(nt // 2 + 1 if t == n - 2 else nt)
            lam = 4.0 * np.sin(np.pi * k / nt) ** 2 / ch.h[t] ** 2
            mode = (1,) + tuple(-1 if a == t else 1 for a in tang)
            diag = diag + c[t][t0][1:-1].reshape(col) * lam.reshape(mode)
        inv = np.empty_like(diag)
        mult = np.zeros_like(diag)
        inv[0] = 1.0 / diag[0]
        for j in range(1, diag.shape[0]):
            mult[j] = off[j - 1] * inv[j - 1]
            inv[j] = 1.0 / (diag[j] - mult[j] * off[j - 1])
        ch._separable = (off, mult[..., None], inv[..., None])
    off, mult, inv = ch._separable

    def solve(r):
        y = np.moveaxis(np.fft.rfftn(r, axes=tang), n - 1, 0).copy()
        for j in range(1, y.shape[0]):
            y[j] -= mult[j] * y[j - 1]
        y[-1] *= inv[-1]
        for j in range(y.shape[0] - 2, -1, -1):
            y[j] = (y[j] - off[j] * y[j + 1]) * inv[j]
        return np.fft.irfftn(np.moveaxis(y, 0, n - 1), s=ch.shape[:-1], axes=tang)

    return solve


def green_A(g, A=None, tol=1e-10, maxiter=None, info=None):
    """Solve laplacian_A u = g with zero Dirichlet data (preconditioned CG).

    A flat connection on a tangentially uniform chart is preconditioned by
    the exact separable solve of its energy matrix, so CG stops after one
    iteration; any other solve is preconditioned by the Jacobi diagonal.
    Either way the residual criterion is ||S u - M g||_2 <= tol * ||M g||_2
    on the interior unknowns; the cap is 200 sqrt(#nodes) iterations.
    """
    if not isinstance(g, Section):
        raise RankMismatch("green_A expects a Section right-hand side")
    A = _conn(g.chart, A)
    ch = g.chart
    ii = ch.interior_slice()
    m_full = (ch.quad_w * ch.vol)[..., None]
    b = (m_full * g.data)[ii]
    sol = Section.zeros(ch)
    bnorm = float(np.sqrt(np.sum(b * b)))
    if info is None:
        info = SolveInfo()
    if bnorm == 0.0:
        info.iterations, info.residual, info.converged = 0, 0.0, True
        return sol
    if maxiter is None:
        maxiter = int(200 * np.sqrt(float(np.prod(ch.shape))))
    if A.is_flat and ch.is_tangentially_uniform:
        pre = _separable_solver(ch)
    else:
        # inverse diagonal of the derivative part of the energy matrix
        dinv = 1.0 / sum(
            st.avg_mid_t(c, ax, ch.periodic[ax]) * 2.0 / ch.h[ax] ** 2
            for ax, c in enumerate(ch.cell_c)
        )[ii][..., None]
        pre = lambda v: dinv * v
    work = np.zeros(ch.shape + (ALGEBRA_DIM,))

    def apply(v):
        work[...] = 0.0
        work[ii] = v
        return _energy_apply(A, work)[ii]

    x = np.zeros_like(b)
    r = b.copy()
    z = pre(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    res = bnorm
    for k in range(1, maxiter + 1):
        ap = apply(p)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        res = float(np.sqrt(np.sum(r * r)))
        if res <= tol * bnorm:
            info.iterations, info.residual, info.converged = k, res / bnorm, True
            sol.data[ii] = x
            return sol
        z = pre(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    info.iterations, info.residual, info.converged = maxiter, res / bnorm, False
    raise NoConvergence(
        f"conjugate gradient at relative residual {res / bnorm:.3e} "
        f"after {maxiter} iterations",
        iterations=maxiter,
        residual=res / bnorm,
    )


def _anchor_face_rows(grad, f, ch, depth=8):
    """Re-evaluate the flat normal derivative inside `grad` on the first and
    last `depth` node layers with the one-sided 5-point rule anchored at
    every layer.

    The default derivative switches stencil type between the face node and
    its neighbors, which leaves a jump in the truncation constant; boundary
    evaluations that differentiate across those layers would lose an order.
    Anchoring keeps the error constant smooth and fourth-order through the
    face vicinity, pushing the family seam well inside the domain.
    """
    ax = ch.n - 1
    if ch.periodic[ax]:
        return grad
    N = ch.shape[-1]
    depth = max(0, min(depth, N - 4))
    h = ch.h[-1]
    plain = st.deriv_node(f.data, ax, h, False)
    comp = grad.data[..., ax, :]
    for side, rows in ((0, slice(0, depth)), (1, slice(N - depth, N))):
        sl = (slice(None),) * ax + (rows,)
        anch = st.face_layer_deriv(f.data, ax, h, side, depth, order=4)
        comp[sl] += anch - plain[sl]
    return grad


def horizontal_project(eta, A=None, tol=1e-10):
    """Project a one-form onto the discrete horizontal space.

    Subtracts d_A gamma with gamma the Galerkin solution of the vertical
    problem, so the result is cell-orthogonal to the vertical space up to the
    solver tolerance; the adjoint codifferential of the output is O(h^2).
    Dirichlet traces of eta are preserved exactly. The normal derivative of
    gamma is anchored through the face layers so boundary evaluations of the
    projected form keep their full order.
    """
    A = _conn(eta.chart, A)
    gamma = green_A(codiff_A(eta, A, form="adjoint"), A, tol=tol)
    grad = _anchor_face_rows(d_A(gamma, A), gamma, eta.chart)
    return eta - grad


# ---------------------------------------------------------------------------
# Hodge star and the two-form codifferential
# ---------------------------------------------------------------------------

def _two_full(w):
    ch = w.chart
    full = np.zeros(ch.shape + (ch.n, ch.n, ALGEBRA_DIM))
    for p, (i, j) in enumerate(w.pairs):
        full[..., i, j, :] = w.data[..., p, :]
        full[..., j, i, :] = -w.data[..., p, :]
    return full


def hodge_star(field):
    """Metric Hodge star on any degree (2d and 3d charts)."""
    ch = field.chart
    a = ch.vol
    if isinstance(field, Section):
        if ch.n == 2:
            return TwoForm(ch, (a[..., None] * field.data)[..., None, :])
        return ThreeForm(ch, (a[..., None] * field.data)[..., None, :])
    if isinstance(field, OneForm):
        up = np.einsum("...ij,...ja->...ia", ch.ginv, field.data)
        if ch.n == 2:
            out = np.empty_like(field.data)
            out[..., 0, :] = -a[..., None] * up[..., 1, :]
            out[..., 1, :] = a[..., None] * up[..., 0, :]
            return OneForm(ch, out)
        out = np.empty(ch.shape + (3, ALGEBRA_DIM))
        out[..., 0, :] = a[..., None] * up[..., 2, :]   # pair (0,1)
        out[..., 1, :] = -a[..., None] * up[..., 1, :]  # pair (0,2)
        out[..., 2, :] = a[..., None] * up[..., 0, :]   # pair (1,2)
        return TwoForm(ch, out)
    if isinstance(field, TwoForm):
        if ch.n == 2:
            return Section(ch, field.data[..., 0, :] / a[..., None])
        full = _two_full(field)
        up = np.einsum("...ik,...jl,...kla->...ija", ch.ginv, ch.ginv, full)
        out = np.empty(ch.shape + (3, ALGEBRA_DIM))
        out[..., 0, :] = a[..., None] * up[..., 1, 2, :]
        out[..., 1, :] = -a[..., None] * up[..., 0, 2, :]
        out[..., 2, :] = a[..., None] * up[..., 0, 1, :]
        return OneForm(ch, out)
    if isinstance(field, ThreeForm):
        return Section(ch, field.data[..., 0, :] / a[..., None])
    raise RankMismatch("hodge_star expects a Section, OneForm, TwoForm, or ThreeForm")


def codiff_2form(omega, A=None):
    """Covariant codifferential of a two-form via the star route.

    d*_A = sign * (star d_A star) with sign -1 in 2d and +1 in 3d.
    """
    if not isinstance(omega, TwoForm):
        raise RankMismatch("codiff_2form expects a TwoForm")
    A = _conn(omega.chart, A)
    ch = omega.chart
    if ch.n == 2:
        s = hodge_star(omega)           # section
        ds = d_A(s, A)                  # one-form
        return -1.0 * hodge_star(ds)
    mu = hodge_star(omega)              # one-form
    dmu = exterior_d_A(mu, A)           # two-form
    return hodge_star(dmu)


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------

def boundary_operator_T0(f):
    """Flat boundary operator: df(nu) + 2(n-1) H f on each face."""
    from .geometry import BoundaryField

    if not isinstance(f, (Section, ScalarField)):
        raise RankMismatch("boundary_operator_T0 expects a Section or ScalarField")
    ch = f.chart
    H = mean_curvature(ch)
    comps = f.data.ndim > ch.n
    values = {}
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        d = st.one_sided_deriv_at_face(f.data, ch.n - 1, ch.h[-1], fc.side)
        gnn = ch.g[sl][..., -1, -1]
        hface = H.values[fc.side]
        if comps:
            gnn = gnn[..., None]
            hface = hface[..., None]
        values[fc.side] = fc.inward_sign * d / np.sqrt(gnn) + 2.0 * (ch.n - 1) * hface * f.data[sl]
    return BoundaryField(ch, values)


def boundary_operator_T(f, A=None, split=False):
    """Obstruction operator: d_A(Lap_A f)(nu) + 2(n-1) H Lap_A f per face.

    Every normal derivative in the chain uses the same inward-anchored
    stencil on layers counted from the face, keeping the composition second
    order; tangential derivatives are the periodic centered stencils.
    With split=True the derivative and curvature terms come back separately.
    """
    from .geometry import BoundaryField

    if not isinstance(f, Section):
        raise RankMismatch("boundary_operator_T expects a Section")
    A = _conn(f.chart, A)
    ch = f.chart
    if not ch.is_type_b:
        raise NotTypeB("the obstruction operator needs faces orthogonal to the normal axis")
    if ch.shape[-1] < 8:
        raise BadGeometry("the obstruction operator needs at least 8 normal layers")
    n = ch.n
    ax = n - 1
    hn = ch.h[-1]
    H = mean_curvature(ch)
    cfull = ch.vol[..., None, None] * ch.ginv
    first = lambda arr, k: arr[(slice(None),) * ax + (slice(0, k),)]
    dvals = {}
    hvals = {}
    for fc in ch.faces:
        sgn = fc.inward_sign
        # slabs of face layers whose normal axis counts inward from the face
        layers = lambda arr, k: first(arr if fc.side == 0 else np.flip(arr, ax), k)
        dn = lambda v, depth: sgn * st.face_layer_deriv(v, ax, hn, 0, depth)
        fl = layers(f.data, 7)
        f5 = first(fl, 5)
        cl = layers(cfull, 5)
        Al = None if A.is_flat else layers(A.eta.data, 5)
        om = []  # covariant derivative on layers 0..4, one array per axis
        for t in range(n - 1):
            c = st.deriv_node(f5, t, ch.h[t], True)
            if Al is not None:
                c = c + coeff_bracket(Al[..., t, :], f5)
            om.append(c)
        cn = dn(fl, 5)
        if Al is not None:
            cn = cn + coeff_bracket(Al[..., ax, :], f5)
        om.append(cn)
        div = dn(cl[..., ax, ax, None] * om[ax], 3)  # layers 0..2
        c3 = first(cl, 3)
        om3 = [first(c, 3) for c in om]
        for t in range(n - 1):
            ft = sum(c3[..., t, tt, None] * om3[tt] for tt in range(n - 1))
            div += st.deriv_node(ft, t, ch.h[t], True)
        lap = -div / layers(ch.vol, 3)[..., None]
        if Al is not None:
            g3 = layers(ch.ginv, 3)
            a3 = first(Al, 3)
            for i in range(n):
                raised = sum(g3[..., i, k, None] * om3[k] for k in range(n))
                lap = lap - coeff_bracket(a3[..., i, :], raised)
        lap0 = np.take(lap, 0, axis=ax)
        dlap = np.take(dn(lap, 1), 0, axis=ax)
        if Al is not None:
            dlap = dlap + coeff_bracket(np.take(Al, 0, axis=ax)[..., ax, :], lap0)
        gnn = ch.g[ch.face_slice(fc)][..., -1, -1]
        dvals[fc.side] = fc.inward_sign * dlap / np.sqrt(gnn)[..., None]
        hvals[fc.side] = 2.0 * (n - 1) * H.values[fc.side][..., None] * lap0
    d_part = BoundaryField(ch, dvals)
    h_part = BoundaryField(ch, hvals)
    if split:
        return d_part, h_part
    return d_part + h_part


# ---------------------------------------------------------------------------
# spectral bounds
# ---------------------------------------------------------------------------

def ritz_smallest(A, tol=1e-9, maxiter=200, seed=0, solve_tol=1e-10):
    """Smallest Dirichlet eigenvalue of the covariant Laplacian.

    Inverse power iteration through the Green solve; the Rayleigh quotient
    is evaluated in the volume-weighted node product.
    """
    ch = A.chart
    rng = np.random.default_rng(seed)
    x = Section(ch, rng.standard_normal(ch.shape + (ALGEBRA_DIM,)))
    for fc in ch.faces:
        x.data[ch.face_slice(fc)] = 0.0
    x = x * (1.0 / np.sqrt(l2_inner(x, x)))
    lam = None
    for _ in range(maxiter):
        y = green_A(x, A, tol=solve_tol)
        yy = l2_inner(y, y)
        lam_new = l2_inner(y, x) / yy
        x = y * (1.0 / np.sqrt(yy))
        if lam is not None and abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new, x
        lam = lam_new
    return lam, x
