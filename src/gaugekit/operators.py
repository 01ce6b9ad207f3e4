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
d_A_cell and the adjoint codiff_A convert at their edges. The pair writes
into node-shaped buffers its caller passes in (`_scratch`), so that every
stencil is one flat shifted op; the 1/2 of its averages is folded into the
bracket, which rounds identically. The pair and its stencils either run
each ufunc call at once (d_A_cell, the codifferential) or, given a list,
record it there with the views it reads and writes (`_stencils.emit`).
`_energy_apply` records one evaluation of the energy form so: 51 calls in
2-d and 77 in 3-d under a connection (16 and 24 flat), over views of its
input, its output, the scratch buffers, the cell coefficients and the
connection's midpoint average. It keeps the list on the scratch set and
replays it whenever it is called again with the same connection, input and
output arrays, and records a new list for any other.

The adjoint codifferential (`_codiff_adjoint_c`) and the node inner product
(`fields._node_inner`) each have one raw-array core that broadcasts over a
trailing component axis: any number of components when the connection is
flat, 3 under a connection. codiff_A, l2_inner and horizontality_ratio call
them with the 3 su(2) components; the window inverses, whose pairs have
rank one, call them with 1. A component of a 3-component call equals the
1-component call on it bit for bit. The
codifferential averages a node one-form to one axis's midpoints at a time,
in its scratch.

The Green solve is preconditioned conjugate gradient with one stopping rule,
||S u - M g|| <= tol ||M g||. With a flat connection on a chart whose metric
depends on the normal coordinate only (`Chart.is_tangentially_uniform`, true
for every built-in chart) the energy matrix is separable, and the
preconditioner is its direct solve: an FFT along the periodic axes and one
cached tridiagonal sweep per mode along the normal axis, so CG stops after
one iteration. The sweep runs on the spectrum's float view, with the real
pivots doubled, and writes its products through one row buffer. A source
that depends on the normal coordinate alone has only the zero mode, so its
potential is one tridiagonal solve on the normal axis with the zero mode's
pivots (`_normal_profile_solve`), with no transform and no CG. Solves
under a connection, and flat solves on other charts, use the Jacobi
diagonal, which the chart caches as a normal profile. Each solve
allocates its work buffers once and reuses them in every iteration:
four CG arrays (the preconditioned residual and the product A p share one)
and three of energy-form scratch (two when the connection is flat). The
scratch buffers are views of one block, which also holds the separable
solve's spectrum: they are dead from the end of one energy apply until the
next inner product, which is when the preconditioner runs. So a warm flat
solve allocates nothing field-sized beyond its work arrays. The one
condition is that the scratch stays finite (`_scratch`); the spectrum is
finite whenever the residual is, and the solve checks the residual before
each preconditioner step. The CG state is whole component-first
node arrays whose Dirichlet face rows stay zero, so its updates are
contiguous loops; the inner products multiply the interior rows, viewed
once per solve, into a node-major buffer and sum there, in the order of a
node-major field. The energy form's calls are recorded in the first
iteration and replayed in every later one. The buffers and the recorded
calls belong to the call, not to the chart or the module, because the two
projections of a horizontal pair solve at once on two threads in the
harness; what a chart or a connection caches is published only once it is
complete, and the pair builds it before its worker starts
(`_build_solve_caches`).

The boundary operators share one face map r_A(u) = d_A u(nu) + 2(n-1) H u
(`_face_map`), the one place the mean curvature H enters: T0 is the flat
face map, T_A = r_A Lap_A the face map of the face-layer Laplacian, and the
boundary identity of `coulomb` the face map of the bracket product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM, STRUCTURE_C, coeff_bracket
from .errors import (
    BadGeometry,
    DbcViolation,
    NoConvergence,
    RankMismatch,
)
from .fields import (
    DBC_TOL,
    MidOneForm,
    OneForm,
    ScalarField,
    Section,
    _node_d,
    check_dbc,
    l2_inner,
)
from .geometry import (
    BoundaryField,
    _profile,
    along_normal,
    mean_curvature,
    normal_derivative,
    require_same_chart,
)


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
        component first and node-shaped, with a zero pad (see `_scratch`)."""
        if self.is_flat:
            return None
        ch = self.chart
        if self._mid is None:
            mids = [np.zeros((ALGEBRA_DIM,) + ch.shape) for _ in range(ch.n)]
            for a, m in enumerate(mids):
                st.avg_mid(_comps(self.eta.data[..., a, :]), a + 1, ch.periodic[a],
                           out=_mids(ch, a, m))
            # published only when complete: a projection on another thread
            # reads it as soon as it is set
            self._mid = mids
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
    return OneForm(f.chart, _d_A_data(A, f.data))


def _d_A_data(A, data):
    """d_A of raw node section data (*shape, K); K = 3 under a connection,
    any K when A is flat."""
    out = _node_d(A.chart, data)
    if not A.is_flat:
        # one axis at a time: the bracket's temporary is one section
        for ax in range(A.chart.n):
            out[..., ax, :] += coeff_bracket(A.eta.data[..., ax, :], data)
    return out


def _comps(data):
    """Component-first view of node-major field data."""
    return np.moveaxis(data, -1, 0)


def _nodes(data):
    """Node-major copy of component-first data."""
    return np.moveaxis(data, 0, -1).copy()


def _mids(ch, ax, a):
    """The midpoints along ax of a node-shaped array: all but a bounded pad."""
    return a if ch.periodic[ax] else a[..., :-1]


class _Scratch(tuple):
    """The (gradient, sum, bracket) buffers of `_scratch`. `plan` is
    (A, x, out, calls): the calls of the last `_energy_apply` made with
    these buffers, and the connection and arrays they were recorded for.
    `spectrum` is the separable solve's complex spectrum, over the same
    memory."""

    plan = None


def _scratch(A, ncomp=ALGEBRA_DIM):
    """Work buffers of one energy-form evaluation under the connection A:
    (gradient, sum, bracket), shared by all axes, for ncomp components (3
    under a connection; no bracket buffer when A is flat).

    They are node-shaped and contiguous: on the bounded axis the N-1
    midpoints lead and the last slot is a pad, which the zero pad of
    `Chart.padded_cell_c` clears. So the buffers must hold finite values
    between evaluations: a NaN pad would not clear. They start as zeros.
    The sum buffer is also the transposes' node output.

    The buffers are consecutive views of one block, which also holds the
    separable solve's spectrum from its start (`_Scratch.spectrum`); the
    block is sized so that the spectrum always fits.
    """
    ch = A.chart
    shape = (ncomp,) + ch.shape
    size = math.prod(shape)
    nbuf = 2 if A.is_flat else 3
    # the spectrum: the interior normal nodes first, then the components and
    # the tangential modes, the last axis the rfft's half spectrum
    *tang, nn = ch.shape
    spec = (nn - 2, ncomp, *tang[:-1], tang[-1] // 2 + 1)
    block = np.zeros(max(nbuf * size, 2 * math.prod(spec)))
    bufs = [block[k * size:(k + 1) * size].reshape(shape) for k in range(nbuf)]
    out = _Scratch(bufs + [None] * (3 - nbuf))
    out.spectrum = block[:2 * math.prod(spec)].view(complex).reshape(spec)
    return out


def _half_bracket(u, v, out, tmp, calls=None):
    """[u, v] / 2 of component-first arrays, written into `out`; `tmp` (the
    shape of `out`) is scratch. Halving is exact, so [u, 2 w] / 2 rounds as
    `algebra.coeff_bracket(u, w)` bit for bit (barring subnormals).

    Component k is u_i v_j - u_j v_i over the cyclic (k, i, j); the rows
    (u_2, u_0) are one view of u with a stride of -2 rows, so each product
    is formed for two components at once. With `calls` the ops are recorded
    there (`_stencils.emit`), like those of `_grad_mid` and `_add_div_mid`."""
    u20 = u[2::-2]
    st.emit(calls, np.multiply, u[1], v[2], out=out[0])
    st.emit(calls, np.multiply, u20, v[:2], out=out[1:])
    st.emit(calls, np.multiply, u20, v[1:], out=tmp[:2])
    st.emit(calls, np.multiply, u[1], v[0], out=tmp[2])
    st.emit(calls, np.subtract, out, tmp, out=out)
    return st.emit(calls, np.multiply, out, 0.5 * STRUCTURE_C, out=out)


def _grad_mid(A, x, ax, out, avg, br, calls=None):
    """Staggered covariant gradient of the component-first node values x
    along ax, written into the node-shaped `out` (see `_scratch`); `avg` and
    `br` (the shape of `out`) are scratch. The bracket takes avg_mid without
    its 1/2, which `_half_bracket` supplies; it is formed first, with `out`
    as its scratch."""
    ch = A.chart
    Am = A._mid_A(ax)
    if Am is not None:
        st._pair(x, ax + 1, ch.periodic[ax], np.add, avg, calls)
        _half_bracket(Am, avg, br, out, calls)
    st.deriv_mid(x, ax + 1, ch.h[ax], ch.periodic[ax], out=out, calls=calls)
    if Am is not None:
        st.emit(calls, np.add, out, br, out=out)
    return out


def _add_div_mid(out, A, mid, ax, node, br, calls=None):
    """Add to the component-first node array `out` the transpose of
    _grad_mid along ax applied to the node-shaped midpoint values `mid`
    weighted by `Chart.cell_c`. `mid` is overwritten; `node` and `br` (the
    shape of `out`) are scratch."""
    ch = A.chart
    per = ch.periodic[ax]
    st.emit(calls, np.multiply, mid, ch.padded_cell_c[ax], out=mid)
    Am = A._mid_A(ax)
    if Am is not None:
        _half_bracket(Am, mid, br, node, calls)
    st.deriv_mid_t(mid, ax + 1, ch.h[ax], per, out=node, calls=calls)
    st.emit(calls, np.add, out, node, out=out)
    if Am is not None:
        st._pair_t(br, ax + 1, per, np.add, node, calls)
        st.emit(calls, np.subtract, out, node, out=out)
    return out


def d_A_cell(f, A=None):
    """Covariant derivative sampled natively at cell midpoints (staggered)."""
    if not isinstance(f, Section):
        raise RankMismatch("d_A_cell expects a Section")
    A = _conn(f.chart, A)
    ch = f.chart
    x = _comps(f.data)
    bufs = _scratch(A)
    return MidOneForm(ch, [
        _nodes(_mids(ch, ax, _grad_mid(A, x, ax, *bufs))) for ax in range(ch.n)
    ])


def bracket_dot(alpha, beta):
    """Metric-contracted bracket of two one-forms: sum_i g^ii [alpha_i, beta_i]."""
    require_same_chart(alpha.chart, beta.chart)
    if not isinstance(alpha, OneForm) or not isinstance(beta, OneForm):
        raise RankMismatch("bracket_dot expects two OneForms")
    return Section(alpha.chart, _bracket_contract(alpha.data, beta.data, alpha.chart.ginv))


#: nodes per block of `_bracket_contract`
_CONTRACT_BLOCK = 8192


def _bracket_contract(a, b, ginv, product=None):
    """sum_i g^ii [a_i, b_i] of node-major one-form data, with `ginv` the
    inverse metric diagonal on the same nodes. With product=np.multiply it
    is the metric contraction sum_i g^ii a_i b_i of rank-one coefficients,
    componentwise: [a e_a . b e_b] is that contraction times [e_a, e_b],
    bit for bit. The bracket is looked up at call time, where layer
    tracing sees it."""
    product = coeff_bracket if product is None else product
    out = np.empty(a.shape[:-2] + a.shape[-1:])
    # blocks of rows along the first grid axis, about _CONTRACT_BLOCK nodes
    # each, bound the temporaries whatever the grid
    step = max(1, _CONTRACT_BLOCK // math.prod(a.shape[1:-2]))
    for lo in range(0, a.shape[0], step):
        rows = slice(lo, lo + step)
        ar, br, gr = a[rows], b[rows], ginv[rows]
        o = out[rows]
        # one axis at a time, added into the first axis's term in axis
        # order: that rounds as the reduce over the strided axis of the
        # full bracket does
        o[...] = product(ar[..., 0, :], gr[..., 0, None] * br[..., 0, :])
        for i in range(1, a.shape[-2]):
            o += product(ar[..., i, :], gr[..., i, None] * br[..., i, :])
    return out


# ---------------------------------------------------------------------------
# codifferential and Laplacian
# ---------------------------------------------------------------------------

def _codiff_adjoint_c(A, src):
    """The adjoint codifferential as component-first (K, *shape) data:
    the sum over the axes of _add_div_mid applied to midpoint samples,
    divided by the node weights, face layers zero; K = 3 under a connection.

    `src` is node one-form data (*shape, n, K), averaged to one axis's
    midpoints at a time, or a MidOneForm's list of per-axis (*mid_shape, K)
    samples. Each component is that of a one-component call, bit for bit.
    """
    ch = A.chart
    ncomp = src[0].shape[-1] if isinstance(src, list) else src.shape[-1]
    acc = np.zeros((ncomp,) + ch.shape)
    t, node, br = _scratch(A, ncomp)
    for ax in range(ch.n):
        if isinstance(src, list):
            _mids(ch, ax, t)[...] = _comps(src[ax])
        else:
            st.avg_mid(_comps(src[..., ax, :]), ax + 1, ch.periodic[ax], out=_mids(ch, ax, t))
        _add_div_mid(acc, A, t, ax, node, br)
    del t, node, br  # before the weights' temporary
    acc /= ch.quad_w * ch.vol
    for fc in ch.faces:
        acc[(slice(None),) + ch.face_slice(fc)] = 0.0
    return acc


def _codiff_adjoint(A, src):
    """`_codiff_adjoint_c` as node-major (*shape, K) data."""
    return _nodes(_codiff_adjoint_c(A, src))


def _energy_apply(A, x, out=None, scratch=None):
    """Energy matrix of the covariant Dirichlet form applied to the
    component-first node values x. The result goes to `out`, and `scratch`
    is a `_scratch` set; both are allocated when not given.

    The evaluation is a list of ufunc calls over views of x, `out`, the
    scratch buffers and the connection's coefficients, recorded by
    `_grad_mid` and `_add_div_mid` (`_stencils.emit`) and then replayed.
    The list is kept on the scratch set (`_Scratch.plan`) and replayed by
    every later call with the same A, x and `out`, whose values may change
    in place in between; other arrays rebuild it. So the Green solve builds
    its list in its first iteration and replays it in every later one."""
    # an x that is not float64 is converted afresh, and its calls rebuilt,
    # on every call: recorded views of a converted copy would go stale
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    if scratch is None:
        scratch = _scratch(A)
    plan = scratch.plan
    if plan is None or plan[0] is not A or plan[1] is not x or plan[2] is not out:
        t, avg, br = scratch
        calls = []
        st.emit(calls, np.positive, 0.0, out=out)  # out.fill(0.0)
        for ax in range(A.chart.n):
            _grad_mid(A, x, ax, t, avg, br, calls)
            _add_div_mid(out, A, t, ax, avg, br, calls)
        plan = scratch.plan = (A, x, out, calls)
    st.replay(plan[3])
    return out


def codiff_A(omega, A=None, form="adjoint"):
    """Covariant codifferential of a one-form.

    form="adjoint": exact adjoint of the staggered covariant gradient under
    the cell quadrature, on the interior rows; the two face layers are zero.
    Under Dirichlet conditions a one-form is horizontal when it is orthogonal
    to d_A f for every f vanishing on the boundary, so only the interior rows
    carry the codifferential. Accepts midpoint-sampled one-forms natively.
    form="pointwise": -(1/a) d_i(a g^ii w_i) - [A . w] with node stencils on
    every node, of a node OneForm.
    """
    if not isinstance(omega, (OneForm, MidOneForm)):
        raise RankMismatch("codiff_A expects a one-form")
    A = _conn(omega.chart, A)
    ch = omega.chart
    if form == "pointwise":
        if not isinstance(omega, OneForm):
            raise RankMismatch("the pointwise codiff_A expects a node OneForm")
        return Section(ch, _pointwise_codiff(omega, A))
    if form != "adjoint":
        raise ValueError("form must be 'adjoint' or 'pointwise'")
    src = omega.arrays if isinstance(omega, MidOneForm) else omega.data
    return Section(ch, _codiff_adjoint(A, src))


def _pointwise_codiff(omega, A, rows=(...,)):
    """-(1/a) d_i(a g^ii w_i) - [A . w] of the node OneForm w = omega on the
    normal layers `rows` alone (a `Chart.face_rows` index; every node by
    default), as node-major data on those rows.

    The normal derivative is deriv_node's over those rows. A window of
    `st.END_ROW_FOOTPRINT` rows at a face is the footprint of its one-sided
    end row, so the window's face row is the whole grid's face row bit for
    bit: every other step is pointwise or along a periodic axis.

    Each axis's flux (g^ii w_i) a is formed alone, as a contiguous section,
    and the sum is negated and divided in place: every element sees the
    operations of the whole (..., n, 3) flux in the same order.
    """
    ch = omega.chart
    w, ginv, vol = omega.data[rows], ch.ginv[rows], ch.vol[rows]
    acc = np.zeros(w.shape[:-2] + (ALGEBRA_DIM,))
    for ax in range(ch.n):
        flux = ginv[..., ax, None] * w[..., ax, :]
        flux *= vol[..., None]
        acc += st.deriv_node(flux, ax, ch.h[ax], ch.periodic[ax])
    np.negative(acc, out=acc)
    acc /= vol[..., None]
    if not A.is_flat:
        acc -= _bracket_contract(A.eta.data[rows], w, ginv)
    return acc


def _codiff_at_faces(omega, A=None):
    """The face rows of codiff_A(omega, A, form="pointwise"), bit for bit,
    evaluated on the `st.END_ROW_FOOTPRINT` normal layers at each face."""
    if not isinstance(omega, OneForm):
        raise RankMismatch("the face-row codifferential expects a node OneForm")
    A = _conn(omega.chart, A)
    ch = omega.chart
    return BoundaryField(ch, {
        fc.side: _pointwise_codiff(omega, A, ch.face_rows(fc, st.END_ROW_FOOTPRINT))[
            ch.face_slice(fc)]
        for fc in ch.faces
    })


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


def _separable_pivots(ch):
    """Thomas pivots (off, mult, inv) of the flat energy matrix on a
    tangentially uniform chart (see `_separable_solver`), cached on the
    chart: lists with one entry per interior normal node. off is the
    node's coupling to the next one, a number; mult and inv hold one pivot
    per mode, each doubled, so that they scale the real and imaginary parts
    of the spectrum's float view alike, and broadcast over its components."""
    if ch._separable is None:
        n = ch.n
        tang = tuple(range(n - 1))  # chart axes
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
        doubled = lambda a: list(np.repeat(a, 2, axis=-1))
        ch._separable = (list(off), doubled(mult), doubled(inv))
    return ch._separable


def _separable_solver(ch, spectrum):
    """Direct solve of the flat energy matrix on a tangentially uniform chart.

    There S = sum_t L_t (x) diag(c_t) + I (x) K_n, with L_t the circulant
    deriv_mid^T deriv_mid along tangential axis t and c_t, c_n the normal
    profiles of the cell coefficients. A real FFT over the tangential axes
    leaves one SPD tridiagonal system sum_t lam_t(k) c_t + K_n per mode, with
    lam_t(k) = 4 sin^2(pi k / N_t) / h_t^2, on the interior normal nodes;
    a batched Thomas sweep solves them. The pivots are cached on the chart
    (`_separable_pivots`).

    `solve(r, out)` reads the interior rows r of a component-first residual
    and writes the interior rows `out` of the result. The spectrum lives in
    `spectrum` (a `_Scratch.spectrum`), normal axis first, so that the sweep
    runs over contiguous rows. The transforms run one axis at a time, in
    place, with out=: rfft along the last tangential axis, then fft along
    the others, and the reverse for the inverse. That is the order of rfftn
    and irfftn, and the same numbers bit for bit. The sweep runs on the
    spectrum's float view, whose real and imaginary parts the doubled real
    pivots scale alike: the ops and their order are those of the complex
    sweep, and so are the bits. Its products go through one row buffer with
    out=. So a solve allocates nothing field-sized, and the sweep nothing
    at all. The spectrum is finite whenever r is, which keeps the scratch
    pads finite.
    """
    off, mult, inv = _separable_pivots(ch)
    last = ch.n - 1  # the last tangential axis, behind the component axis
    nt = ch.shape[last - 1]
    modes = np.moveaxis(spectrum, 0, ch.n)  # the spectrum in the layout of r
    y = list(spectrum.view(float))  # its rows, normal axis first
    row = np.empty_like(y[0])

    def solve(r, out):
        np.fft.rfft(r, axis=last, out=modes)
        for t in range(last - 1, 0, -1):
            np.fft.fft(modes, axis=t, out=modes)
        for j in range(1, len(y)):
            np.multiply(mult[j], y[j - 1], out=row)
            np.subtract(y[j], row, out=y[j])
        np.multiply(y[-1], inv[-1], out=y[-1])
        for j in range(len(y) - 2, -1, -1):
            np.multiply(off[j], y[j + 1], out=row)
            np.subtract(y[j], row, out=y[j])
            np.multiply(y[j], inv[j], out=y[j])
        for t in range(1, last):
            np.fft.ifft(modes, axis=t, out=modes)
        np.fft.irfft(modes, n=nt, axis=last, out=out)

    return solve


def _normal_profile_solve(ch, f):
    """Flat Dirichlet Green potential of a source f that depends on the
    normal coordinate alone, on a tangentially uniform chart, as a normal
    profile (the face entries zero); f is a normal profile too.

    Such a source has only the zero mode of `_separable_solver`, so this is
    that solver's sweep for lam = 0: one Thomas sweep on the interior normal
    nodes, with the real slot of the zero mode's cached pivots, of the
    right-hand side M f that green_A forms."""
    off, mult, inv = _separable_pivots(ch)
    t0 = (0,) * (ch.n - 1)
    col = (ch.quad_w[t0] * ch.vol[t0]) * f
    col[0] = col[-1] = 0.0
    y = col[1:-1]
    for j in range(1, len(y)):
        y[j] -= mult[j].flat[0] * y[j - 1]
    y[-1] *= inv[-1].flat[0]
    for j in range(len(y) - 2, -1, -1):
        y[j] = (y[j] - off[j] * y[j + 1]) * inv[j].flat[0]
    return col


def green_A(g, A=None, tol=1e-10, maxiter=None, info=None):
    """Solve laplacian_A u = g with zero Dirichlet data (preconditioned CG).

    A flat connection on a tangentially uniform chart is preconditioned by
    the exact separable solve of its energy matrix, so CG stops after one
    iteration; any other solve is preconditioned by the Jacobi diagonal.
    Either way the residual criterion is ||S u - M g||_2 <= tol * ||M g||_2
    on the interior unknowns; the cap is 200 sqrt(#nodes) iterations. A
    right-hand side or a residual that is not finite raises NoConvergence at
    once, with residual NaN.

    Each iteration makes one `_energy_apply` call on the solve's own search
    direction, product and scratch arrays: the first records the energy
    form's ufunc calls on the scratch set, and every later one replays them.
    The list lives as long as the solve. The separable solve keeps its
    spectrum in that scratch, which the residual check before each
    preconditioner step keeps finite; so a warm flat solve allocates nothing
    field-sized beyond its work arrays and its result.
    """
    if not isinstance(g, Section):
        raise RankMismatch("green_A expects a Section right-hand side")
    A = _conn(g.chart, A)
    ch = g.chart
    ii = ch.interior_slice()
    ic = (slice(None),) + ii  # the interior rows, component first
    shape = (ALGEBRA_DIM,) + ch.shape
    # The CG state is whole node arrays with zero face rows (see the module
    # docstring); r starts as the right-hand side M g. The solve holds no
    # reference to g after this, so a temporary right-hand side is freed.
    r = np.zeros(shape)
    r_i = r[ic]  # interior views are built once per solve
    np.multiply((ch.quad_w * ch.vol)[ii], _comps(g.data)[ic], out=r_i)
    del g
    scratch = _scratch(A)
    # Interior products summed in node-major order round as on node-major
    # fields; they live in the sum buffer, which only the energy apply uses.
    prod = scratch[1].reshape(-1)[: r_i.size].reshape(r_i.shape[1:] + (ALGEBRA_DIM,))
    cprod = _comps(prod)

    def dot(u, v):  # of interior views
        np.multiply(u, v, out=cprod)
        return float(prod.sum())

    bnorm = float(np.sqrt(dot(r_i, r_i)))
    if info is None:
        info = SolveInfo()
    if bnorm == 0.0:
        info.iterations, info.residual, info.converged = 0, 0.0, True
        return Section.zeros(ch)
    if not math.isfinite(bnorm):
        raise _no_convergence(info, 0, math.nan, "met a non-finite right-hand side")
    if maxiter is None:
        maxiter = int(200 * np.sqrt(float(np.prod(ch.shape))))
    if _is_separable(A):
        solve = _separable_solver(ch, scratch.spectrum)
        pre = lambda v, out: solve(v[ic], out[ic])
    else:
        dinv = _jacobi_inverse(ch)
        pre = lambda v, out: np.multiply(dinv, v, out=out)
    # w holds the preconditioned residual z and the product A p in turn
    x, p, w = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    p_i, w_i = p[ic], w[ic]
    pre(r, w)
    p[...] = w
    rz = dot(r_i, w_i)
    res = bnorm
    for k in range(1, maxiter + 1):
        _energy_apply(A, p, w, scratch)
        w[..., 0] = w[..., -1] = 0.0  # the Dirichlet face rows
        alpha = rz / dot(p_i, w_i)
        # A p is spent once r is updated; w is then the temporary of x's
        r -= np.multiply(w, alpha, out=w)
        x += np.multiply(p, alpha, out=w)
        res = float(np.sqrt(dot(r_i, r_i)))
        if res <= tol * bnorm:
            break
        if not math.isfinite(res):
            raise _no_convergence(info, k, math.nan, "met a non-finite residual")
        pre(r, w)
        rz_new = dot(r_i, w_i)
        p *= rz_new / rz
        p += w
        rz = rz_new
    else:
        raise _no_convergence(info, maxiter, res / bnorm, f"at relative residual {res / bnorm:.3e}")
    info.iterations, info.residual, info.converged = k, res / bnorm, True
    del r, p, w, r_i, p_i, w_i, scratch, prod, cprod  # the solution is built from x alone
    sol = Section.zeros(ch)
    sol.data[ii] = np.moveaxis(x[ic], 0, -1)
    return sol


def _is_separable(A):
    """Whether a Green solve under A is preconditioned by the separable
    solve; otherwise it takes the Jacobi diagonal."""
    return A.is_flat and A.chart.is_tangentially_uniform


def _build_solve_caches(A):
    """Build what a projection under A caches: the connection's midpoint
    averages, and the chart's separable pivots or Jacobi profile, whichever
    its Green solve reads. `harness._project_pair` calls it before its
    worker thread starts, so that the pair's two projections never both
    build one of them."""
    A._mid_A(0)  # every axis's average, or nothing when A is flat
    if _is_separable(A):
        _separable_pivots(A.chart)
    else:
        _jacobi_inverse(A.chart)


def _jacobi_inverse(ch):
    """Inverse diagonal of the derivative part of the energy matrix, cached
    on the chart as a normal profile whenever it repeats tangentially."""
    if ch._jacobi is None:
        ch._jacobi = _profile(1.0 / sum(
            st.avg_mid_t(c, ax, ch.periodic[ax]) * 2.0 / ch.h[ax] ** 2
            for ax, c in enumerate(ch.cell_c)
        ), ch.n)
    return ch._jacobi


def _no_convergence(info, iterations, residual, why):
    """Record a failed solve in `info` and return its NoConvergence."""
    info.iterations, info.residual, info.converged = iterations, residual, False
    return NoConvergence(
        f"conjugate gradient {why} after {iterations} iterations",
        iterations=iterations,
        residual=residual,
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
    depth = min(depth, ch.shape[-1] - 4)
    if depth <= 0:
        return grad
    h = ch.h[-1]
    comp = grad.data[..., ax, :]
    for fc in ch.faces:
        rows = ch.face_rows(fc, depth)
        # deriv_node on the anchored layers and one halo layer (at least its
        # end row's footprint) is the whole grid's on those layers, bit for bit
        slab = f.data[ch.face_rows(fc, max(depth + 1, st.END_ROW_FOOTPRINT))]
        plain = st.deriv_node(slab, ax, h, False)[rows]
        comp[rows] += st.face_layer_deriv(f.data, ax, h, fc.side, depth, order=4) - plain
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
    if not isinstance(eta, OneForm):
        raise RankMismatch("horizontal_project expects a OneForm")
    A = _conn(eta.chart, A)
    ch = eta.chart
    # the codifferential goes to the solve as a node-major view of its
    # component-first data, which the solve frees once it has its residual
    gamma = green_A(Section(ch, np.moveaxis(_codiff_adjoint_c(A, eta.data), 0, -1)), A, tol=tol)
    grad = _anchor_face_rows(d_A(gamma, A), gamma, ch)
    np.subtract(eta.data, grad.data, out=grad.data)
    return grad


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------

def _face_map(ch, layers, A, order=2):
    """The face map r_A(u) = d_A u(nu) + 2(n-1) H u as (derivative part,
    curvature part). `layers(face)` is u on the normal layers at that face,
    in array order; d_A u(nu) is `normal_derivative` of the given order plus
    [A(nu), u]."""
    H = mean_curvature(ch)
    d_vals, h_vals = {}, {}
    for fc in ch.faces:
        u = layers(fc)
        u0 = u[ch.face_slice(fc)]
        d = normal_derivative(ch, u, fc, order)
        if not A.is_flat:
            a_nu = along_normal(ch, fc, A.eta.data[ch.face_slice(fc)][..., -1, :])
            d = d + coeff_bracket(a_nu, u0)
        d_vals[fc.side] = d
        # H broadcast over a section's component axis
        hface = np.expand_dims(H.values[fc.side], tuple(range(ch.n - 1, u0.ndim)))
        h_vals[fc.side] = 2.0 * (ch.n - 1) * hface * u0
    return BoundaryField(ch, d_vals), BoundaryField(ch, h_vals)


def boundary_operator_T0(f):
    """Flat boundary operator: df(nu) + 2(n-1) H f on each face."""
    if not isinstance(f, (Section, ScalarField)):
        raise RankMismatch("boundary_operator_T0 expects a Section or ScalarField")
    d_part, h_part = _face_map(f.chart, lambda fc: f.data, _conn(f.chart, None))
    return d_part + h_part


def _face_layer_laplacian(f, A, fc):
    """Lap_A f (pointwise form) on the 3 normal layers at the face fc, in
    array order. Each normal derivative is the 3-point one-sided rule
    re-anchored at its layer, keeping the composition second order;
    tangential ones are the periodic centered stencils."""
    ch = f.chart
    ax = ch.n - 1
    rows = lambda k: ch.face_rows(fc, k)
    dn = lambda v, depth: st.face_layer_deriv(v, ax, ch.h[-1], fc.side, depth)
    f5 = f.data[rows(5)]
    # the covariant derivative on the 5 layers, one array per axis
    om = [st.deriv_node(f5, t, ch.h[t], True) for t in range(ax)] + [dn(f.data[rows(7)], 5)]
    Al = None if A.is_flat else A.eta.data[rows(5)]
    if Al is not None:
        om = [c + coeff_bracket(Al[..., i, :], f5) for i, c in enumerate(om)]
    cl = ch.vol[rows(5)][..., None] * ch.ginv[rows(5)]  # vol g^ii
    div = dn(cl[..., ax, None] * om[ax], 3)
    c3 = cl[rows(3)]
    om3 = [c[rows(3)] for c in om]
    for t in range(ax):
        div += st.deriv_node(c3[..., t, None] * om3[t], t, ch.h[t], True)
    lap = -div / ch.vol[rows(3)][..., None]
    if Al is not None:
        g3, a3 = ch.ginv[rows(3)], Al[rows(3)]
        for i in range(ax + 1):
            lap = lap - coeff_bracket(a3[..., i, :], g3[..., i, None] * om3[i])
    return lap


def boundary_operator_T(f, A=None, split=False):
    """Obstruction operator T_A = r_A Lap_A: d_A(Lap_A f)(nu) + 2(n-1) H Lap_A f,
    the face map of the face-layer Laplacian. With split=True the derivative
    and curvature terms come back separately."""
    if not isinstance(f, Section):
        raise RankMismatch("boundary_operator_T expects a Section")
    A = _conn(f.chart, A)
    ch = f.chart
    if ch.shape[-1] < 8:
        raise BadGeometry("the obstruction operator needs at least 8 normal layers")
    d_part, h_part = _face_map(ch, lambda fc: _face_layer_laplacian(f, A, fc), A)
    return (d_part, h_part) if split else d_part + h_part


def _cancellation_ratio(f, A):
    """(|T_d + T_h| / (|T_d| + |T_h|), |T_d + T_h|) for the derivative and
    curvature terms of boundary_operator_T, sup norms over the faces; (0, 0)
    when both terms vanish."""
    d_part, h_part = boundary_operator_T(f, A, split=True)
    total = d_part + h_part
    denom = d_part.sup() + h_part.sup()
    if denom == 0.0:
        return 0.0, 0.0
    return total.sup() / denom, total.sup()


# ---------------------------------------------------------------------------
# spectral bounds
# ---------------------------------------------------------------------------

def ritz_smallest(A, tol=1e-9, solve_tol=1e-10):
    """Smallest Dirichlet eigenvalue of the covariant Laplacian.

    Inverse power iteration through the Green solve from a seed-0 random
    start, at most 200 steps; the Rayleigh quotient is evaluated in the
    volume-weighted node product.
    """
    ch = A.chart
    rng = np.random.default_rng(0)
    x = Section(ch, rng.standard_normal(ch.shape + (ALGEBRA_DIM,)))
    for fc in ch.faces:
        x.data[ch.face_slice(fc)] = 0.0
    x = x * (1.0 / np.sqrt(l2_inner(x, x)))
    lam = None
    for _ in range(200):
        y = green_A(x, A, tol=solve_tol)
        yy = l2_inner(y, y)
        lam_new = l2_inner(y, x) / yy
        x = y * (1.0 / np.sqrt(yy))
        if lam is not None and abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new, x
        lam = lam_new
    return lam, x
