"""Gauge action, curvature of the Dirichlet connection, and boundary checks.

A gauge transformation stores its group values as a component-first
(4, *shape) quaternion grid together with its own logarithmic derivative
(Maurer-Cartan one-form), computed once at construction. Composition
multiplies values pointwise and transports the stored derivative by the
cocycle rule, so acting twice and acting by the product agree to rounding
rather than to discretization error.

The holonomy loop transport runs component-first, on (4, *shape) quaternions
and (3, *shape) connection components, through algebra's
qmul/qexp/qnormalize. It exponentiates each loop axis's links once and
composes loops from straight runs of links built by doubling. Loop sizes
stream in ascending order, and each loop is reduced to its probe numbers
as soon as it exists. The general boundary identity reads the pointwise
codifferential on the face layers only (`operators._codiff_at_faces`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import (
    ALGEBRA_DIM,
    coeff_bracket,
    quat_conj,
    quat_identity,
    quat_log,
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
    _node_inner,
    _root,
    l2_norm,
    normal_component,
    random_smooth_field,
    require_dbc,
)
from .geometry import require_same_chart
from .operators import (
    Connection,
    _anchor_face_rows,
    _cancellation_ratio,
    _codiff_adjoint,
    _codiff_at_faces,
    _conn,
    _face_map,
    bracket_dot,
    green_A,
    ritz_smallest,
)


class GaugeTransformation:
    """Pointwise SU(2) field with its stored Maurer-Cartan one-form.

    `quat` holds the group values as component-first quaternions
    (4, *shape); `mu` is the one-form array (*shape, n, 3) of U^-1 dU.
    """

    def __init__(self, chart, quat, mu):
        self.chart = chart
        self.quat = np.asarray(quat, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        if self.quat.shape != (4,) + chart.shape:
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
        """Exponentiate a Dirichlet section.

        On the faces each coefficient of f is at most DBC_TOL (1e-12, by
        `require_dbc`), so a face value is the identity up to |f| / sqrt(2)
        <= 1.3e-12 in its vector part and its scalar part rounds to 1. It is
        exactly the identity only where f is exactly zero.
        """
        if not isinstance(f, Section):
            raise RankMismatch("from_section expects a Section")
        require_dbc(f)
        ch = f.chart
        q = qexp(np.moveaxis(f.data, -1, 0), np.empty((4,) + ch.shape))
        mu = np.empty(ch.shape + (ch.n, ALGEBRA_DIM))
        qc = quat_conj(q)
        for ax in range(ch.n):
            dq = st.deriv_node(q, ax + 1, ch.h[ax], ch.periodic[ax])
            if ax == ch.n - 1:
                _anchor_normal_layers(dq, q, ch)
            # vector part of U^-1 dU; coefficients carry the sqrt(2) of the basis
            mu[..., ax, :] = np.moveaxis(np.sqrt(2.0) * qmul(qc, dq)[1:], 0, -1)
        return cls(ch, q, mu)

    def compose(self, other):
        """Pointwise product self * other with the cocycle derivative rule."""
        require_same_chart(self.chart, other.chart)
        quat = qmul(self.quat, other.quat)
        qnormalize(quat, quat)
        mu = _adjoint(quat_rotate_inv, other.quat, self.mu) + other.mu
        return GaugeTransformation(self.chart, quat, mu)

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self):
        quat = quat_conj(self.quat)
        mu = -_adjoint(quat_rotate, self.quat, self.mu)
        return GaugeTransformation(self.chart, quat, mu)


#: the most face layers anchored, the default depth of `_anchor_face_rows`
_ANCHOR_DEPTH = _anchor_face_rows.__defaults__[0]


def _anchor_normal_layers(dq, q, ch):
    """Overwrite the normal derivative dq of q (4, *shape) on the face layers
    of `_anchor_face_rows` with its anchored 5-point rule: the node rule's
    seam at the face row would enter g^-1 dg, and T differentiates across it."""
    depth = min(_ANCHOR_DEPTH, ch.shape[-1] - 4)
    for fc in ch.faces if depth > 0 else ():
        dq[(slice(None),) + ch.face_rows(fc, depth)] = st.face_layer_deriv(
            q, ch.n, ch.h[-1], fc.side, depth, order=4)


def _adjoint(rotate, q, form):
    """quat_rotate or quat_rotate_inv by the gauge values q (4, *shape) of
    the one-form array `form` (*shape, n, 3), in the form's layout. The
    result is C-ordered, as every other one-form array is, so reductions
    over it add in the same order."""
    rotated = rotate(q[..., None], np.moveaxis(form, -1, 0))
    return np.ascontiguousarray(np.moveaxis(rotated, 0, -1))


def gauge_act(A, g):
    """Transformed connection Ad(g^-1) A + g^-1 dg."""
    require_same_chart(A.chart, g.chart)
    new = g.mu.copy()
    if not A.is_flat:
        new += _adjoint(quat_rotate_inv, g.quat, A.eta.data)
    return Connection(A.chart, OneForm(A.chart, new))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def horizontality_ratio(omega, A=None):
    """Scale-free size of the codifferential relative to the form itself.

    The codifferential is the adjoint one, with interior rows only (its face
    layers are zero), so the ratio measures Dirichlet horizontality.
    """
    if not isinstance(omega, OneForm):
        raise RankMismatch("horizontality_ratio expects a OneForm")
    return _horizontality(_conn(omega.chart, A), omega.data)


def _horizontality(A, data):
    """horizontality_ratio of raw one-form data (*shape, n, K); K = 3 under
    a connection, any K when A is flat."""
    ch = A.chart
    den = _root(_node_inner(ch, data, data))
    if den == 0.0:
        return 0.0
    span = float(ch.coords[-1][-1] - ch.coords[-1][0])
    cod = _codiff_adjoint(A, data)
    return _root(_node_inner(ch, cod, cod)) * span / den


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
        """residual / scale; 0 for a zero scale, NaN when either is NaN."""
        if math.isnan(self.residual) or math.isnan(self.scale):
            return math.nan
        return self.residual / self.scale if self.scale > 0 else 0.0


def boundary_identity_residual(alpha, beta, A=None, general=False):
    """Residual of the boundary identity for the bracket product.

    Horizontal form: the face map r_A([a.b]) = d_A[a.b](nu) + 2(n-1) H [a.b]
    = 0 (`operators._face_map`, fourth order). The general form keeps the
    codifferential source terms -[d*_A a, b(nu)] - [a(nu), d*_A b]
    on the right-hand side, with the pointwise codifferential evaluated on
    the normal layers its face rows read. Returns sup residual together with
    the sup norm of the bracket product, which serves as the relative scale.
    """
    require_same_chart(alpha.chart, beta.chart)
    A = _conn(alpha.chart, A)
    ch = alpha.chart
    s = bracket_dot(alpha, beta)
    d_part, h_part = _face_map(ch, lambda fc: s.data, A, order=4)
    res = (d_part + h_part).values
    if general:
        ca, cb = _codiff_at_faces(alpha, A), _codiff_at_faces(beta, A)
        anu, bnu = normal_component(alpha).values, normal_component(beta).values
        for side, lhs in res.items():
            res[side] = lhs - (-coeff_bracket(ca.values[side], bnu[side])
                               - coeff_bracket(anu[side], cb.values[side]))
    # np.max keeps a NaN face; the builtin max would drop it
    residual = float(np.max([0.0, *(np.max(np.abs(v)) for v in res.values())]))
    return IdentityReport(residual, s.sup())


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


def _loop_transports(A, ks):
    """Yield (k, U) for each loop size k in ks, ascending: U is the
    quaternion holonomy of the k-cell loop in the (0, normal) coordinate
    plane at each node, component-first (4, *shape) with the normal axis cut
    to its first N - k nodes, the ones whose loop fits in the chart.

    Each loop axis gets its forward link once, L(x) = exp(-h A(midpoint)).
    Straight runs of k links, R_k(x) = L(x + (k-1) e) ... L(x), are built by
    splitting off the largest power of two m < k: R_k(x) = R_{k-m}(x + m e)
    R_m(x). A loop is then conj(Up_k(x)) conj(R_k(x + k e_j)) Up_k(x + k e_i)
    R_k(x), with R the run along the tangential axis i and Up the run along
    the normal axis j: the inverse of a unit quaternion is its conjugate, an
    exact sign flip, made in place on the run for its product and undone
    after it (`_qprod_conj`). Each product is normalized in its own buffer.

    Every shift is a slice. The tangential axis is extended periodically by
    the largest k, and each array keeps only the nodes where its value is
    defined: a run of k links ends k nodes short, along i in the extension.
    Runs that no remaining size reads are dropped before each loop is
    formed; the caller should drop each loop before asking for the next.
    """
    ch = A.chart
    i, j = 0, ch.n - 1
    ks = sorted(set(ks))
    eta = np.moveaxis(A.eta.data, (-2, -1), (0, 1))  # (n, 3, *shape)
    runs = {ax: {1: _links(ch, eta[ax], ax, ch.shape[i] + ks[-1])} for ax in (i, j)}
    for k in ks:
        for ax in (i, j):
            _straight_run(runs[ax], k, ax)
            for m in runs[ax].keys() - _run_lengths(runs[ax], [kk for kk in ks if kk >= k]):
                del runs[ax][m]
        yield k, _loop(runs[i][k], runs[j][k], k, ch)


def _links(ch, comps, ax, width):
    """Forward links along chart axis `ax` from the connection components
    (3, *shape) along it, on the tangential axis extended periodically to
    `width` nodes."""
    ext = np.take(comps, range(width), axis=1, mode="wrap")
    mid = ext[_cut(ax, 0, -1)] + ext[_cut(ax, 1, None)]
    del ext
    mid *= 0.5
    mid *= -ch.h[ax]
    return qexp(mid, np.empty((4,) + mid.shape[1:]))


def _loop(R, Up, k, ch):
    """conj(Up(x)) conj(R(x + k e_j)) Up(x + k e_i) R(x) on the chart's
    tangential nodes x whose loop fits."""
    i, j = 0, ch.n - 1
    cols = _cut(i, 0, ch.shape[i])
    R = R[cols]
    U = _qprod(Up[_cut(i, k, k + ch.shape[i])], R[_cut(j, 0, -k)])
    U = _qprod_conj(R[_cut(j, k, None)], U)
    return _qprod_conj(Up[cols], U)


def _cut(ax, start, stop):
    """Index of a component-first array that slices chart axis `ax`."""
    return (slice(None),) * (ax + 1) + (slice(start, stop),)


def _qprod(p, q):
    """The normalized product of two component-first quaternion arrays, in
    a new buffer."""
    out = qmul(p, q, np.empty((4,) + q[0].shape))
    return qnormalize(out, out)


def _qprod_conj(p, q):
    """_qprod(conj(p), q) with no negated copy of p: p's vector part is
    negated in place for the product and restored after it. A sign flip is
    exact, so p (a view of a run, which later runs read) comes back bit for
    bit."""
    vec = p[1:]
    np.negative(vec, out=vec)
    try:
        return _qprod(p, q)
    finally:
        np.negative(vec, out=vec)


def _straight_run(runs, k, ax):
    """R_k = R_{k-m}(x + m e) R_m(x) along chart axis `ax`, from the runs
    already in `runs` (keyed by length, the links at 1), where it also
    stores every run it builds. It is a module function because a recursive
    closure would keep the runs in a reference cycle until the cyclic
    garbage collector ran."""
    if k not in runs:
        m = _split_length(k)
        later, first = _straight_run(runs, k - m, ax), _straight_run(runs, m, ax)
        n = later.shape[ax + 1] - m  # R_k is defined where R_{k-m} is, less m
        runs[k] = _qprod(later[_cut(ax, m, None)], first[_cut(ax, 0, n)])
    return runs[k]


def _split_length(k):
    """The largest power of two below k, the run that R_k splits off."""
    return 1 << ((k - 1).bit_length() - 1)


def _run_lengths(runs, ks):
    """The run lengths that building R_k for each k in ks reads, from the
    runs already in `runs`, the R_k themselves included."""
    need = set()
    todo = list(ks)
    while todo:
        k = todo.pop()
        if k not in need:
            need.add(k)
            if k not in runs:
                m = _split_length(k)
                todo += [k - m, m]
    return need


def _exterior_d_at(omega, i, j, nodes):
    """d_i omega_j - d_j omega_i of the one-form omega, with node derivatives,
    at each node of `nodes`, bit for bit as on the whole grid. deriv_node
    treats every grid line along its axis on its own, so it is taken on the
    lines through the nodes alone, all nodes' lines in one call per axis."""
    ch = omega.chart

    def deriv(ax, comp):
        lines = np.stack([omega.data[at[:ax] + (slice(None),) + at[ax + 1:] + (comp,)]
                          for at in nodes], axis=1)
        d = st.deriv_node(lines, 0, ch.h[ax], ch.periodic[ax])
        return [d[at[ax], p] for p, at in enumerate(nodes)]

    return [di - dj for di, dj in zip(deriv(i, j), deriv(j, i))]


def small_loop_holonomy(A, k=(2, 4)):
    """Holonomy defects of loops with sides k and 2k cells in the plane of
    the first tangential axis and the normal axis, for each size in the
    sequence k.

    Returns a list of probes, one per size in the order given: the sup
    defects, their ratio (near 4 for a curvature-dominated defect), and the
    alignment of the defect direction with the curvature two-form at the
    loop center. The overall sign is reported, not judged. Every loop is
    transported once, from straight runs of links shared by all sizes
    (`_loop_transports`): k = (2, 4) takes 2 exponentials and 15 products.
    Each size must be an even integer of at least 2.
    """
    if A.is_flat:
        raise BadGeometry("holonomy probes need a non-flat connection")
    ch = A.chart
    i, j = 0, ch.n - 1
    if not isinstance(k, (list, tuple)):
        raise BadGeometry(f"loop sizes must be a list or tuple, not {k!r}")
    ks = tuple(k)
    if not ks:
        raise BadGeometry("at least one loop size is needed")
    for kk in ks:
        if (isinstance(kk, bool) or not isinstance(kk, (int, np.integer))
                or kk < 2 or kk % 2):
            raise BadGeometry(f"loop size must be an even integer of at least 2, not {kk!r}")
        if ch.shape[-1] < 2 * kk + 6:
            raise BadGeometry("normal axis too short for the requested loop")
    ks = tuple(int(kk) for kk in ks)

    # Each loop is reduced as soon as it exists. The probe of size k reads
    # both of its loops on the rows 2 .. N-2-2k, away from the faces; the
    # loop of size L is the smaller loop of probe L (its largest defect,
    # where it lies, and the defect there) and the larger loop of probe L/2
    # (its largest defect, on rows 2 .. N-2-L).
    n_j = ch.shape[-1]
    small, large = {}, {}
    for size, U in _loop_transports(A, {*ks, *(2 * kk for kk in ks)}):
        rows = n_j - 3 - (size if size // 2 in ks else 2 * size)
        g = quat_log(U[_cut(j, 2, 2 + rows)])
        del U
        norms = np.sqrt(np.sum(g * g, axis=0))
        if size // 2 in ks:
            large[size // 2] = float(np.max(norms))
        if size in ks:
            near = norms[..., : n_j - 3 - 2 * size]
            idx = np.unravel_index(int(np.argmax(near)), near.shape)
            small[size] = (float(np.max(near)), idx, g[(slice(None),) + idx].copy())
        del g, norms

    # curvature two-form component along the loop plane, read at the center
    # of each probe's smaller loop
    centers = []
    for k in ks:
        at = list(small[k][1])
        at[i] = (at[i] + k // 2) % ch.shape[i]
        at[j] += 2 + k // 2
        centers.append(tuple(at))
    F = _exterior_d_at(A.eta, i, j, centers)

    probes = []
    for k, at, dF in zip(ks, centers, F):
        d1, _, gpt = small[k]
        d2 = large[k]
        eta = A.eta.data[at]
        fpt = dF + coeff_bracket(eta[i], eta[j])
        dot = float(np.dot(gpt, fpt))
        denom = float(np.sqrt(np.dot(gpt, gpt)) * np.sqrt(np.dot(fpt, fpt)))
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
    return probes
