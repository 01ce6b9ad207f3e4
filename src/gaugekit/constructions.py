"""Constructive realizability: window inverses, generators, decompositions.

The forward statements (boundary identity, obstruction) say what the
curvature image cannot reach; this module builds the reaching side. Window
inverses produce horizontal one-form pairs whose bracket product equals a
prescribed profile exactly; the generator realizes prescribed boundary data
through commutators of Green potentials; the kernel stage localizes what is
left over a collar partition. All constructions live on 2d charts whose
diagonal metric does not vary along the tangential axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM, STRUCTURE_C, coeff_bracket
from .coulomb import IdentityReport, horizontality_ratio
from .errors import (
    BadCover,
    BadGeometry,
    HopfViolation,
    KernelConditionViolated,
    NotTypeA,
    SupportTouchesBoundary,
    WindowTooSmall,
)
from .fields import OneForm, ScalarField, Section, TwoForm, l2_norm
from .geometry import BoundaryField, mean_curvature
from .operators import (
    _conn,
    boundary_operator_T,
    bracket_dot,
    codiff_2form,
    d_A,
    green_A,
    laplacian_A,
)

#: depth fractions of the construction ladder: eta band, plateau rise,
#: profile band, plateau fall.
LADDER = (0.15, 0.25, 0.35, 0.45, 0.75, 0.9)

_TINY = 1e-30


class BumpKit:
    """Smooth compactly supported profile ingredients (exact zeros outside)."""

    @staticmethod
    def expbump(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 1e-8
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    @staticmethod
    def smoothstep(t):
        """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
        t = np.asarray(t, dtype=float)
        a = BumpKit.expbump(t)
        b = BumpKit.expbump(1.0 - t)
        out = np.where(t >= 1.0, 1.0, 0.0)
        mid = (t > 0.0) & (t < 1.0)
        out = np.where(mid, a / np.where(mid, a + b, 1.0), out)
        return out

    @staticmethod
    def bump01(u):
        """C-infinity bump supported exactly on (0, 1), peak value 1."""
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        mid = (u > 1e-8) & (u < 1.0 - 1e-8)
        w = u[mid] * (1.0 - u[mid])
        out[mid] = np.exp(4.0 - 1.0 / w)
        return out


def _check_construction_chart(ch):
    if ch.n != 2:
        raise BadGeometry("window constructions are implemented on 2d charts")
    if not ch.is_diagonal:
        raise BadGeometry("window constructions need a diagonal metric")
    rolled = np.roll(ch.g, 1, axis=0)
    if float(np.max(np.abs(ch.g - rolled))) > 1e-12:
        raise BadGeometry(
            "window constructions need a metric constant along the tangential axis"
        )


def _unit(k):
    v = np.zeros(ALGEBRA_DIM)
    v[k] = 1.0
    return v


def band_profile(chart, side=None, interval=None, depth=None, t_center=None,
                 t_width=None, scale=1.0):
    """Profile supported in the ladder's band, windowed tangentially.

    Use side= for a boundary collar (depth measured inward from that face)
    or interval=(s0, s1) for an interior band on the normal coordinate.
    """
    _check_construction_chart(chart)
    t, _, _ = _band_coordinates(chart, side, interval, depth)
    f4, f5 = LADDER[3], LADDER[4]
    normal = BumpKit.bump01((t - f4) / (f5 - f4))
    theta = chart.coords[0]
    span = chart.shape[0] * chart.h[0]
    if t_center is None:
        t_center = theta[0] + 0.5 * span
    if t_width is None:
        t_width = 0.3 * span
    delta = np.mod(theta - t_center + 0.5 * span, span) - 0.5 * span
    tang = BumpKit.bump01(delta / t_width + 0.5)
    data = tang[:, None] * normal[None, :]
    peak = float(np.max(np.abs(data)))
    if peak == 0.0:
        raise WindowTooSmall("band profile vanished on this grid")
    return ScalarField(chart, data * (scale / peak))


def _band_coordinates(chart, side, interval, depth):
    """Normalized inward band coordinate t, its orientation, and the depth."""
    xn = chart.coords[-1]
    lo, hi = xn[0], xn[-1]
    if (side is None) == (interval is None):
        raise BadGeometry("give exactly one of side= or interval=")
    if side is not None:
        if depth is None:
            depth = 0.8 * (hi - lo)
        if not 0 < depth <= hi - lo:
            raise WindowTooSmall("collar depth must fit inside the domain")
        s = (xn - lo) if side == 0 else (hi - xn)
        sgn = 1.0 if side == 0 else -1.0
    else:
        s0, s1 = interval
        hgrid = chart.h[-1]
        if s0 < lo + 2 * hgrid or s1 > hi - 2 * hgrid or s1 <= s0:
            raise SupportTouchesBoundary(
                "interior band must stay two cells away from both faces"
            )
        depth = s1 - s0
        s = xn - s0
        sgn = 1.0
    return s / depth, sgn, depth


@dataclass
class InverseResult:
    """Window-inverse pair and its verification numbers."""

    alpha: OneForm
    beta: OneForm
    alpha_star: OneForm
    omega: TwoForm
    target: Section
    product_residual: float
    route_difference: float
    horizontality_alpha: float
    horizontality_beta: float


def _window_inverse(psi, side, interval, depth, pair):
    ch = psi.chart
    _check_construction_chart(ch)
    ia, ib = pair
    if ia == ib or not (0 <= ia < ALGEBRA_DIM and 0 <= ib < ALGEBRA_DIM):
        raise BadGeometry("pair must name two distinct basis directions")
    t, sgn, depth = _band_coordinates(ch, side, interval, depth)
    f1, f2, f3, f4, f5, f6 = LADDER
    hn = ch.h[-1]

    if float(np.max(np.abs(psi.data))) == 0.0:
        zero1 = OneForm(ch, np.zeros(ch.shape + (2, ALGEBRA_DIM)))
        return InverseResult(
            alpha=zero1,
            beta=OneForm(ch, np.zeros(ch.shape + (2, ALGEBRA_DIM))),
            alpha_star=zero1,
            omega=TwoForm(ch, np.zeros(ch.shape + (1, ALGEBRA_DIM))),
            target=Section(ch, np.zeros(ch.shape + (ALGEBRA_DIM,))),
            product_residual=0.0,
            route_difference=0.0,
            horizontality_alpha=0.0,
            horizontality_beta=0.0,
        )

    in_eta = (t > f2) & (t < f3)
    in_psi = (t > f4) & (t < f5)
    for name, band in (("eta", in_eta), ("profile", in_psi)):
        if int(np.count_nonzero(band)) < 3:
            raise WindowTooSmall(f"{name} band holds fewer than 3 grid layers")
    outside = ~in_psi
    if float(np.max(np.abs(psi.data[:, outside]))) > 0.0:
        raise WindowTooSmall("profile must be supported inside the ladder band")

    g11 = ch.g[..., 0, 0]
    g22 = ch.g[..., 1, 1]
    b = ch.vol

    # eta: unit discrete integral inside its band, so the running integral of
    # phi returns exactly to zero past the profile band
    eta = BumpKit.bump01((t - f2) / (f3 - f2))
    wn = st.quad_weights_1d(ch.shape[-1], hn, False)
    eta = eta / float(np.sum(wn * eta))

    src = g11 * psi.data
    I_t = np.sum(wn[None, :] * src, axis=-1)
    phi = -I_t[:, None] * eta[None, :] + src

    if side == 1:
        F = np.flip(st.cumulative_trapezoid(np.flip(phi, -1), 1, hn), -1)
    else:
        F = st.cumulative_trapezoid(phi, 1, hn)
    F_t = st.deriv_node(F, 0, ch.h[0], True)

    vec_a = _unit(ia)
    vec_b = _unit(ib)
    a1 = (g11 / b) * sgn * phi
    a2 = -(g22 / b) * F_t
    alpha = OneForm(ch, np.stack([a1[..., None] * vec_a, a2[..., None] * vec_a], axis=2))

    plateau = BumpKit.smoothstep((t - f3) / (f4 - f3)) * (
        1.0 - BumpKit.smoothstep((t - f5) / (f6 - f5))
    )
    b1 = sgn * (g22 / b) * plateau
    beta_data = np.zeros(ch.shape + (2, ALGEBRA_DIM))
    beta_data[..., 0, :] = b1[..., None] * vec_b
    beta = OneForm(ch, beta_data)

    omega = TwoForm(ch, (b * F)[..., None, None] * vec_a[None, None, None, :])
    alpha_star = codiff_2form(omega)

    target = Section(ch, psi.data[..., None] * coeff_bracket(vec_a, vec_b))
    prod = bracket_dot(alpha, beta)
    tscale = max(target.sup(), _TINY)
    product_residual = float(np.max(np.abs(prod.data - target.data))) / tscale
    route_difference = float(np.max(np.abs(alpha.data - alpha_star.data))) / max(
        alpha.sup(), _TINY
    )
    return InverseResult(
        alpha=alpha,
        beta=beta,
        alpha_star=alpha_star,
        omega=omega,
        target=target,
        product_residual=product_residual,
        route_difference=route_difference,
        horizontality_alpha=horizontality_ratio(alpha),
        horizontality_beta=horizontality_ratio(beta),
    )


def boundary_chart_inverse(psi, side=0, depth=None, pair=(0, 1)):
    """Horizontal pair (alpha, beta) with bracket product psi [e_a, e_b].

    The pair is built in a collar at the chosen face: a running-integral
    potential makes alpha an exact codifferential (hence horizontal), the
    eta correction pins its support inside the collar, and beta is a plateau
    that sees only the profile band, so the product identity is exact.
    """
    return _window_inverse(psi, side, None, depth, pair)


def interior_inverse(psi, interval, pair=(0, 1)):
    """Window inverse for a band in the interior of the normal axis."""
    return _window_inverse(psi, None, interval, None, pair)


# ---------------------------------------------------------------------------
# collar partitions
# ---------------------------------------------------------------------------

def make_partition_of_unity(chart, side, pieces=8, depth=None):
    """Collar partition: tangential bumps times a face plateau.

    The pieces sum exactly to the collar plateau (1 near the face), each is
    nonnegative, and each has exactly vanishing normal derivative at the
    face because the plateau is constant on the first layers.
    """
    _check_construction_chart(chart)
    if pieces < 2:
        raise BadCover("need at least 2 pieces")
    xn = chart.coords[-1]
    lo, hi = xn[0], xn[-1]
    if depth is None:
        depth = 0.4 * (hi - lo)
    s = (xn - lo) if side == 0 else (hi - xn)
    t = s / depth
    if 2 * chart.h[-1] >= 0.6 * depth:
        raise BadCover("collar too shallow: plateau must cover 3 node layers")
    chi = 1.0 - BumpKit.smoothstep((t - 0.6) / 0.3)

    theta = chart.coords[0]
    span = chart.shape[0] * chart.h[0]
    width = 2.0 * span / pieces
    raw = []
    for k in range(pieces):
        center = theta[0] + (k + 0.5) * span / pieces
        delta = np.mod(theta - center + 0.5 * span, span) - 0.5 * span
        raw.append(BumpKit.bump01(delta / width + 0.5))
    total = np.sum(raw, axis=0)
    if float(np.min(total)) <= 0.0:
        raise BadCover("tangential bumps leave a gap")
    return [ScalarField(chart, (r / total)[:, None] * chi[None, :]) for r in raw]


# ---------------------------------------------------------------------------
# generator for prescribed boundary data
# ---------------------------------------------------------------------------

@dataclass
class GeneratorResult:
    pairs: list
    u: Section
    realized: BoundaryField
    residual: float
    hopf_min: float


def _hopf_potential(ch, A, solve_tol):
    """Green potential of an interior bump; Hopf gives a strictly positive
    inward normal derivative on each face."""
    xn = ch.coords[-1]
    lo, hi = xn[0], xn[-1]
    t = (xn - lo) / (hi - lo)
    prof = BumpKit.bump01((t - 0.35) / 0.3)
    src = np.zeros(ch.shape + (ALGEBRA_DIM,))
    src[..., 0] = prof[None, :]
    w = green_A(Section(ch, src), A, tol=solve_tol)
    return w.data[..., 0], prof


def generator_for_boundary_data(target, side=0, pieces=8, depth=None, A=None,
                                solve_tol=1e-10, _shared=None):
    """Commutator pairs whose obstruction trace realizes the target data.

    Each algebra direction d uses the double bracket [[e_{d+2}, e_d], e_{d+2}]
    = c^2 e_d: one Green potential with a collar source scaled by the Hopf
    normal derivative, one fixed Hopf potential. The boundary expansion of
    the bracket identity turns the pair's obstruction trace into exactly the
    prescribed face data, up to discretization.
    """
    ch = target.chart
    _check_construction_chart(ch)
    if not ch.is_type_a:
        raise NotTypeA("the collar extension needs a unit-speed normal coordinate")
    A = _conn(ch, A)
    if not A.is_flat:
        raise BadGeometry("the generator is built at the flat base point")
    xn = ch.coords[-1]
    lo, hi = xn[0], xn[-1]
    if depth is None:
        depth = 0.4 * (hi - lo)

    if _shared is None:
        wvals, _ = _hopf_potential(ch, A, solve_tol)
    else:
        wvals = _shared
    fc = ch.faces[side]
    dW = st.one_sided_deriv_at_face(wvals, ch.n - 1, ch.h[-1], side)
    bprime = fc.inward_sign * dW
    hopf_min = float(np.min(bprime))
    if hopf_min <= 0.0:
        raise HopfViolation("Hopf derivative is not strictly positive on the face")

    lam = make_partition_of_unity(ch, side, pieces=pieces, depth=depth)
    H = mean_curvature(ch).values[side]
    s = (xn - lo) if side == 0 else (hi - xn)
    t = s / depth
    plateau = 1.0 - BumpKit.smoothstep((t - 0.5) / 0.4)
    if 2 * ch.h[-1] >= 0.5 * depth:
        raise BadCover("collar too shallow for the extension plateau")
    ext = np.exp(-2.0 * (ch.n - 1) * H[:, None] * s[None, :])
    c2 = STRUCTURE_C**2

    fvals = target.values[side]
    pairs = []
    u = Section.zeros(ch)
    for d in range(ALGEBRA_DIM):
        fd = fvals[..., d]
        if float(np.max(np.abs(fd))) == 0.0:
            continue
        face_coef = fd / (3.0 * bprime * c2)
        profile = face_coef[:, None] * plateau[None, :] * ext
        src_scalar = profile * sum(lk.data for lk in lam)
        e = _unit((d + 2) % 3)
        br = coeff_bracket(e, _unit(d))
        g_d = green_A(Section(ch, src_scalar[..., None] * br), A, tol=solve_tol)
        h_d = Section(ch, wvals[..., None] * e)
        u = u + Section(ch, coeff_bracket(g_d.data, h_d.data))
        pairs.append((g_d, h_d))

    realized = boundary_operator_T(u, A)
    scale = max(target.sup(), _TINY)
    residual = (realized - target).sup() / scale
    return GeneratorResult(
        pairs=pairs,
        u=u,
        realized=realized,
        residual=residual,
        hopf_min=hopf_min,
    )


# ---------------------------------------------------------------------------
# kernel stage and the full decomposition
# ---------------------------------------------------------------------------

@dataclass
class KernelDecomposition:
    pieces: list
    reconstruction: Section
    residual: float
    gate_ratio: float


def kernel_decompose(v, pieces=8, depth=None, gate=1e-8, A=None, solve_tol=1e-10):
    """Split a section in the obstruction kernel into localized sources.

    Gates on the relative obstruction trace of v, then masks the pointwise
    Laplacian over collar partitions at both faces plus the interior
    remainder; the certificate solves the summed sources back.
    """
    ch = v.chart
    _check_construction_chart(ch)
    A = _conn(ch, A)
    d_part, h_part = boundary_operator_T(v, A, split=True)
    denom = d_part.sup() + h_part.sup()
    ratio = (d_part + h_part).sup() / denom if denom > 0 else 0.0
    if ratio > gate:
        raise KernelConditionViolated(
            f"obstruction trace ratio {ratio:.3e} exceeds the gate {gate:.1e}"
        )
    q = laplacian_A(v, A, form="pointwise")
    xn = ch.coords[-1]
    if depth is None:
        depth = 0.4 * (xn[-1] - xn[0])
    masks = []
    for side in (0, 1):
        masks.extend(make_partition_of_unity(ch, side, pieces=pieces, depth=depth))
    interior = np.ones(ch.shape)
    for m in masks:
        interior = interior - m.data
    masks.append(ScalarField(ch, interior))
    piece_sections = [Section(ch, m.data[..., None] * q.data) for m in masks]
    reconstruction = green_A(q, A, tol=solve_tol)
    vn = l2_norm(v)
    residual = l2_norm(reconstruction - v) / max(vn, _TINY)
    return KernelDecomposition(
        pieces=list(zip(masks, piece_sections)),
        reconstruction=reconstruction,
        residual=residual,
        gate_ratio=ratio,
    )


@dataclass
class DecompositionCertificate:
    residual: float
    generator_residual: float
    kernel_residual: float
    kernel_gate_ratio: float
    u_commutator: Section
    u_kernel: Section
    n_pairs: int
    n_kernel_pieces: int


def full_decompose(u, pieces=8, depth=None, kernel_gate=0.25, A=None,
                   solve_tol=1e-10):
    """Decompose a Dirichlet section into generator pairs plus kernel pieces.

    Stage one realizes the obstruction trace of u through commutator pairs
    at both faces; stage two localizes the remainder, which passes the
    (loosened) kernel gate because stage one already matched the trace.
    """
    ch = u.chart
    A = _conn(ch, A)
    trace = boundary_operator_T(u, A)
    wvals, _ = _hopf_potential(ch, A, solve_tol)
    u_comm = Section.zeros(ch)
    gen_res = 0.0
    n_pairs = 0
    for side in (0, 1):
        if float(np.max(np.abs(trace.values[side]))) == 0.0:
            continue
        gen = generator_for_boundary_data(
            trace, side=side, pieces=pieces, depth=depth, A=A,
            solve_tol=solve_tol, _shared=wvals,
        )
        u_comm = u_comm + gen.u
        # each call targets one face; the other face's trace is left to the
        # call that targets it
        face = trace.values[side]
        miss = float(np.max(np.abs(gen.realized.values[side] - face)))
        gen_res = max(gen_res, miss / max(float(np.max(np.abs(face))), _TINY))
        n_pairs += len(gen.pairs)
    v = u - u_comm
    kd = kernel_decompose(
        v, pieces=pieces, depth=depth, gate=kernel_gate, A=A, solve_tol=solve_tol
    )
    recombined = u_comm + kd.reconstruction
    residual = l2_norm(recombined - u) / max(l2_norm(u), _TINY)
    return DecompositionCertificate(
        residual=residual,
        generator_residual=gen_res,
        kernel_residual=kd.residual,
        kernel_gate_ratio=kd.gate_ratio,
        u_commutator=u_comm,
        u_kernel=kd.reconstruction,
        n_pairs=n_pairs,
        n_kernel_pieces=len(kd.pieces),
    )


# ---------------------------------------------------------------------------
# bracket identity
# ---------------------------------------------------------------------------

def bracket_identity_check(g1, g2, A=None):
    """Residual of Lap[g1,g2] = [Lap g1, g2] + [g1, Lap g2] - 2 [dg1 . dg2].

    Measured on the rows where the adjoint-form Laplacian is the consistent
    conservative operator (all nodes except the two face layers).
    """
    ch = g1.chart
    A = _conn(ch, A)
    prod = Section(ch, coeff_bracket(g1.data, g2.data))
    lhs = laplacian_A(prod, A, form="adjoint")
    l1 = laplacian_A(g1, A, form="adjoint")
    l2 = laplacian_A(g2, A, form="adjoint")
    cross = bracket_dot(d_A(g1, A), d_A(g2, A))
    rhs = Section(
        ch,
        coeff_bracket(l1.data, g2.data)
        + coeff_bracket(g1.data, l2.data)
        - 2.0 * cross.data,
    )
    ii = ch.interior_slice()
    residual = float(np.max(np.abs(lhs.data[ii] - rhs.data[ii])))
    scale = max(
        float(np.max(np.abs(lhs.data[ii]))),
        float(np.max(np.abs(rhs.data[ii]))),
        _TINY,
    )
    return IdentityReport(residual, scale)


def kernel_class_potential(chart, seed, depth=None, solve_tol=1e-10):
    """Dirichlet potential whose Laplacian obeys the flux-kernel trace
    relation on both faces; returns the potential and that Laplacian.

    The source combines, per face, a seeded random tangential profile times
    a collar plateau times the exponential that cancels the curvature term
    of the trace operator — so df(nu) + 2(n-1) H f = 0 holds analytically on
    the face — plus an interior band bump that vanishes identically near
    both faces. The potential is the flat Dirichlet Green preimage of the
    source.
    """
    _check_construction_chart(chart)
    if not chart.is_type_a:
        raise NotTypeA("the collar extension needs a unit-speed normal coordinate")
    rng = np.random.default_rng(seed)
    xn = chart.coords[-1]
    lo, hi = xn[0], xn[-1]
    if depth is None:
        depth = 0.35 * (hi - lo)
    theta = chart.coords[0]
    span = chart.shape[0] * chart.h[0]
    Hb = mean_curvature(chart)

    def rand_profile():
        prof = np.zeros_like(theta)
        for m in range(3):
            a, b = rng.standard_normal(2) / (m + 1.0) ** 2
            w = 2.0 * np.pi * m / span
            prof += a * np.cos(w * theta) + b * np.sin(w * theta)
        return prof

    data = np.zeros(chart.shape + (ALGEBRA_DIM,))
    for side in (0, 1):
        H = Hb.values[side]
        s = (xn - lo) if side == 0 else (hi - xn)
        t = s / depth
        plateau = 1.0 - BumpKit.smoothstep((t - 0.5) / 0.4)
        ext = np.exp(-2.0 * (chart.n - 1) * H[:, None] * s[None, :])
        for d in range(ALGEBRA_DIM):
            data[..., d] += rand_profile()[:, None] * plateau[None, :] * ext
    mid = BumpKit.bump01(((xn - lo) / (hi - lo) - 0.3) / 0.4)
    for d in range(ALGEBRA_DIM):
        data[..., d] += rand_profile()[:, None] * mid[None, :]
    f = Section(chart, data)
    g = green_A(f, None, tol=solve_tol)
    return g, f


def bracket_boundary_identity_check(g1, f1, g2, f2):
    """Boundary trace of the bracket's flux against its two cross terms.

    For Dirichlet potentials whose Laplacians f_i obey the flux-kernel trace
    relation, the trace operator applied to [g1, g2] reduces to
    3 [f1, dg2(nu)] + 3 [dg1(nu), f2] on each face.
    """
    ch = g1.chart
    u = Section(ch, coeff_bracket(g1.data, g2.data))
    lhs = boundary_operator_T(u, None)
    residual = 0.0
    scale = _TINY
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        root = np.sqrt(ch.g[sl][..., -1, -1])[..., None]
        dg1 = fc.inward_sign * st.one_sided_deriv_at_face(
            g1.data, ch.n - 1, ch.h[-1], fc.side, order=4) / root
        dg2 = fc.inward_sign * st.one_sided_deriv_at_face(
            g2.data, ch.n - 1, ch.h[-1], fc.side, order=4) / root
        rhs = 3.0 * coeff_bracket(f1.data[sl], dg2) + 3.0 * coeff_bracket(dg1, f2.data[sl])
        res = lhs.values[fc.side] - rhs
        residual = max(residual, float(np.max(np.abs(res))))
        scale = max(
            scale,
            float(np.max(np.abs(lhs.values[fc.side]))),
            float(np.max(np.abs(rhs))),
        )
    return IdentityReport(residual, scale)
