"""Covariant differential operators and the Dirichlet Green solve.

The covariant Laplacian comes in two forms. The "adjoint" form is the exact
M-weighted adjoint of the staggered covariant gradient: its energy matrix is
symmetric positive definite on sections vanishing at the boundary, which is
what the conjugate-gradient Green solve and the Ritz bounds rely on. The
"pointwise" form composes collocated node stencils exactly as the continuum
formula reads; it is the form used for boundary evaluations. Both are second
order in the interior and agree to O(h^2) on smooth data. The adjoint
codifferential, and the adjoint Laplacian composed from it and d_A_cell, are
the Dirichlet operators: they are defined on the interior rows, and their
face layers are zero.

The adjoint form, the staggered gradient d_A_cell and the energy matrix are
built from one per-axis pair: the covariant gradient at an axis's midpoints
(`_grad_mid`) and its transpose weighted by the energy-form coefficients
(`_add_div_mid`). The chart owns those coefficients (`Chart.cell_c`); a
connection holds only its perturbation and its midpoint average.

The pair works on component-first arrays, shape (3, *chart.shape), so that
each su(2) component is contiguous and the bracket multiplies whole
components. Fields keep their node-major layout (*chart.shape, 3);
d_A_cell and the adjoint codiff_A convert at their edges. The
pair writes into buffers its caller passes in: three midpoint arrays shared
by all axes and one single-component array for the bracket (`_scratch`).

The Green solve is preconditioned conjugate gradient with one stopping rule,
||S u - M g|| <= tol ||M g||. With a flat connection on a chart whose metric
depends on the normal coordinate only (`Chart.is_tangentially_uniform`, true
for every built-in chart) the energy matrix is separable, and the
preconditioner is its direct solve: an FFT along the periodic axes and one
cached tridiagonal sweep per mode along the normal axis, so CG stops after
one iteration. Solves under a connection, and flat solves on other charts,
use the Jacobi diagonal. Each solve allocates its work buffers once and
reuses them in every iteration: the search direction is the interior of a
zero-padded array, S p the interior of the energy output, and the CG
updates go through `out=`; temporaries made afresh every iteration would
come from fresh, zeroed pages (about 430 minor page faults per iteration at
128^2). The buffers belong to the call, not to the chart or the module,
because `RunConfig.jobs` runs suites on threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM, STRUCTURE_C, coeff_bracket
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
    exterior_d,
    flat_d,
    l2_inner,
)
from .geometry import BoundaryField, mean_curvature, require_same_chart


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
        """Connection component along ax averaged to that axis's midpoints,
        component first: shape (3, *midpoint shape)."""
        if self.is_flat:
            return None
        if self._mid is None:
            ch = self.chart
            self._mid = [
                st.avg_mid(
                    _comps(self.eta.data[..., a, :]), a + 1, ch.periodic[a],
                    out=np.empty((ALGEBRA_DIM,) + _mid_shape(ch, a)),
                )
                for a in range(ch.n)
            ]
        return self._mid[ax]


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


def _comps(data):
    """Component-first view of node-major field data."""
    return np.moveaxis(data, -1, 0)


def _nodes(data):
    """Node-major copy of component-first data."""
    return np.moveaxis(data, 0, -1).copy()


def _mid_shape(ch, ax):
    """Node shape with axis ax moved to its midpoints (N-1 when bounded)."""
    return tuple(
        n - (a == ax and not ch.periodic[a]) for a, n in enumerate(ch.shape)
    )


def _scratch(A):
    """Work buffers of one energy-form evaluation under the connection A, as
    per-axis views (gradient, average, bracket, one component, node).

    Three midpoint arrays and one single-component array are shared by all
    axes; a bounded axis views the leading N-1 slices of each. The node view
    is the whole average buffer, free again once the gradient is formed. A
    flat connection has no bracket: its bracket and component views are None.
    """
    ch = A.chart
    lead = [(ALGEBRA_DIM,)] * 2 + ([] if A.is_flat else [(ALGEBRA_DIM,), ()])
    bufs = [np.empty(int(np.prod(d + ch.shape))) for d in lead]
    node = bufs[1].reshape((ALGEBRA_DIM,) + ch.shape)
    views = []
    for ax in range(ch.n):
        shape = _mid_shape(ch, ax)
        v = [b[: int(np.prod(d + shape))].reshape(d + shape) for b, d in zip(bufs, lead)]
        views.append(tuple(v + [None] * (4 - len(v))) + (node,))
    return views


def _bracket(u, v, out, tmp):
    """Bracket [u, v] of component-first arrays, written into `out` and
    rounded as `algebra.coeff_bracket` rounds; `tmp` is one component of
    scratch."""
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[i], v[j], out=out[k])
        np.subtract(out[k], np.multiply(u[j], v[i], out=tmp), out=out[k])
    out *= STRUCTURE_C
    return out


def _grad_mid(A, x, ax, out, avg, br, tmp):
    """Staggered covariant gradient of the component-first node values x
    along ax, written into `out` at that axis's midpoints; `avg`, `br` (the
    shape of `out`) and `tmp` (one component) are scratch."""
    ch = A.chart
    st.deriv_mid(x, ax + 1, ch.h[ax], ch.periodic[ax], out=out)
    Am = A._mid_A(ax)
    if Am is not None:
        st.avg_mid(x, ax + 1, ch.periodic[ax], out=avg)
        out += _bracket(Am, avg, br, tmp)
    return out


def _add_div_mid(out, A, mid, ax, node, br, tmp):
    """Add to the component-first node array `out` the transpose of
    _grad_mid along ax applied to the midpoint values `mid` weighted by
    `Chart.cell_c`. `mid` is overwritten; `node` (the shape of `out`), `br`
    (the shape of `mid`) and `tmp` (one component) are scratch."""
    ch = A.chart
    per = ch.periodic[ax]
    mid *= ch.cell_c[ax]
    Am = A._mid_A(ax)
    if Am is not None:
        _bracket(Am, mid, br, tmp)
    out += st.deriv_mid_t(mid, ax + 1, ch.h[ax], per, out=node)
    if Am is not None:
        out -= st.avg_mid_t(br, ax + 1, per, out=node)
    return out


def d_A_cell(f, A=None):
    """Covariant derivative sampled natively at cell midpoints (staggered)."""
    if not isinstance(f, Section):
        raise RankMismatch("d_A_cell expects a Section")
    A = _conn(f.chart, A)
    x = _comps(f.data)
    return MidOneForm(f.chart, [
        _nodes(_grad_mid(A, x, ax, *bufs[:4])) for ax, bufs in enumerate(_scratch(A))
    ])


def bracket_dot(alpha, beta):
    """Metric-contracted bracket of two one-forms: sum_ij g^ij [alpha_i, beta_j]."""
    require_same_chart(alpha.chart, beta.chart)
    if not isinstance(alpha, OneForm) or not isinstance(beta, OneForm):
        raise RankMismatch("bracket_dot expects two OneForms")
    ch = alpha.chart
    raised = np.matmul(ch.ginv, beta.data)
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
    A = _conn(omega.chart, A)
    out = exterior_d(omega)
    if not A.is_flat:
        out = out + wedge_bracket(A.eta, omega)
    return out


# ---------------------------------------------------------------------------
# codifferential and Laplacian
# ---------------------------------------------------------------------------

def _div_mid(A, mid):
    """Node-major sum over the axes of _add_div_mid applied to a MidOneForm.
    Its scratch is freed on return, before the caller's next temporaries."""
    acc = np.zeros((ALGEBRA_DIM,) + A.chart.shape)
    for ax, (t, _, br, tmp, node) in enumerate(_scratch(A)):
        t[...] = _comps(mid.axis_data(ax))
        _add_div_mid(acc, A, t, ax, node, br, tmp)
    return _nodes(acc)


def _energy_apply(A, x, out=None, scratch=None):
    """Energy matrix of the covariant Dirichlet form applied to the
    component-first node values x. The result goes to `out`, and `scratch`
    is a `_scratch` set; both are allocated when not given."""
    if out is None:
        out = np.empty(x.shape)
    if scratch is None:
        scratch = _scratch(A)
    out.fill(0.0)
    for ax, (t, avg, br, tmp, node) in enumerate(scratch):
        _grad_mid(A, x, ax, t, avg, br, tmp)
        _add_div_mid(out, A, t, ax, node, br, tmp)
    return out


def codiff_A(omega, A=None, form="adjoint"):
    """Covariant codifferential of a one-form.

    form="adjoint": exact adjoint of the staggered covariant gradient under
    the cell quadrature, on the interior rows; the two face layers are zero.
    Under Dirichlet conditions a one-form is horizontal when it is orthogonal
    to d_A f for every f vanishing on the boundary, so only the interior rows
    carry the codifferential. Accepts midpoint-sampled one-forms natively.
    form="pointwise": -(1/a) d_i(a g^ij w_j) - [A . w] with node stencils on
    every node, of a node OneForm.
    """
    if not isinstance(omega, (OneForm, MidOneForm)):
        raise RankMismatch("codiff_A expects a one-form")
    A = _conn(omega.chart, A)
    ch = omega.chart
    if form == "pointwise":
        if not isinstance(omega, OneForm):
            raise RankMismatch("the pointwise codiff_A expects a node OneForm")
        flux = np.matmul(ch.ginv, omega.data) * ch.vol[..., None, None]
        acc = np.zeros(ch.shape + (ALGEBRA_DIM,))
        for ax in range(ch.n):
            acc += st.deriv_node(flux[..., ax, :], ax, ch.h[ax], ch.periodic[ax])
        out = -acc / ch.vol[..., None]
        if not A.is_flat:
            out = out - bracket_dot(A.eta, omega).data
        return Section(ch, out)
    if form != "adjoint":
        raise ValueError("form must be 'adjoint' or 'pointwise'")
    out = _div_mid(A, MidOneForm.of(omega))
    out /= (ch.quad_w * ch.vol)[..., None]
    for fc in ch.faces:
        out[ch.face_slice(fc)] = 0.0
    return Section(ch, out)


def laplacian_A(f, A=None, form="adjoint"):
    """Covariant Laplacian of a section (positive convention, d* d).

    The adjoint form is the adjoint codifferential of the staggered gradient:
    the SPD energy matrix divided by the node weights on the interior rows,
    zero on the face layers. The pointwise form is the pointwise
    codifferential of the node gradient on every node.
    """
    if not isinstance(f, Section):
        raise RankMismatch("laplacian_A expects a Section")
    if form == "pointwise":
        return codiff_A(d_A(f, A), A, form="pointwise")
    if form != "adjoint":
        raise ValueError("form must be 'adjoint' or 'pointwise'")
    return codiff_A(d_A_cell(f, A), A)


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
    tang = tuple(range(n - 1))  # chart axes
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
        ch._separable = (off, mult[:, None], inv[:, None])
    off, mult, inv = ch._separable
    axes = tuple(t + 1 for t in tang)  # behind the component axis

    def solve(r, out):
        y = np.moveaxis(np.fft.rfftn(r, axes=axes), n, 0).copy()
        for j in range(1, y.shape[0]):
            y[j] -= mult[j] * y[j - 1]
        y[-1] *= inv[-1]
        for j in range(y.shape[0] - 2, -1, -1):
            y[j] = (y[j] - off[j] * y[j + 1]) * inv[j]
        out[...] = np.fft.irfftn(np.moveaxis(y, 0, n), s=ch.shape[:-1], axes=axes)

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
    ic = (slice(None),) + ii  # the interior rows, component first
    m = (ch.quad_w * ch.vol)[ii]
    # the right-hand side M g, which CG turns into its residual in place
    r = np.multiply(m, _comps(g.data)[ic], out=np.empty((ALGEBRA_DIM,) + m.shape))
    # products are summed in node-major order, so every inner product, and
    # with it the whole iteration, rounds exactly as on node-major fields
    prod = np.empty(m.shape + (ALGEBRA_DIM,))

    def dot(u, v):
        np.multiply(u, v, out=_comps(prod))
        return float(prod.sum())

    bnorm = float(np.sqrt(dot(r, r)))
    if info is None:
        info = SolveInfo()
    if bnorm == 0.0:
        info.iterations, info.residual, info.converged = 0, 0.0, True
        return Section.zeros(ch)
    if maxiter is None:
        maxiter = int(200 * np.sqrt(float(np.prod(ch.shape))))
    if A.is_flat and ch.is_tangentially_uniform:
        pre = _separable_solver(ch)
    else:
        # inverse diagonal of the derivative part of the energy matrix
        dinv = 1.0 / sum(
            st.avg_mid_t(c, ax, ch.periodic[ax]) * 2.0 / ch.h[ax] ** 2
            for ax, c in enumerate(ch.cell_c)
        )[ii]
        pre = lambda v, out: np.multiply(dinv, v, out=out)
    # One set of work buffers per solve, reused by every iteration. The
    # search direction p is the interior of a zero-padded array (the
    # Dirichlet rows stay zero) and S p the interior of the energy output.
    pad = np.zeros((ALGEBRA_DIM,) + ch.shape)
    spad = np.empty_like(pad)
    p, ap = pad[ic], spad[ic]
    scratch = _scratch(A)
    x = np.zeros_like(r)
    z = np.empty_like(r)
    tmp = np.empty_like(r)
    pre(r, z)
    p[...] = z
    rz = dot(r, z)
    res = bnorm
    for k in range(1, maxiter + 1):
        _energy_apply(A, pad, spad, scratch)
        alpha = rz / dot(p, ap)
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(ap, alpha, out=tmp)
        res = float(np.sqrt(dot(r, r)))
        if res <= tol * bnorm:
            info.iterations, info.residual, info.converged = k, res / bnorm, True
            sol = Section.zeros(ch)
            sol.data[ii] = np.moveaxis(x, 0, -1)
            return sol
        pre(r, z)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
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
        up = np.matmul(ch.ginv, field.data)
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
