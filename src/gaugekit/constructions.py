"""Constructive realizability: window inverses, generators, decompositions.

The forward statements (boundary identity, obstruction) say what the
curvature image cannot reach; this module builds the reaching side. Window
inverses produce horizontal one-form pairs whose bracket product equals a
prescribed profile exactly; the generator realizes prescribed data on both
faces through rank-one commutators, one per algebra direction, of Green
potentials whose collar sources are solved at once; the kernel stage solves
what is left back from its pointwise Laplacian once its obstruction trace
passes a gate. All constructions live on 2d charts whose diagonal metric
does not vary along the tangential axis.

A window-inverse pair has rank one in the algebra: alpha = a (x) e_a and
beta = b (x) e_b, so [alpha . beta] = (sum_i g^ii a_i b_i) [e_a, e_b]. Its
verification numbers are computed on the scalar coefficients
(`_window_coefficients`), the star route on the potential (`_star_route`)
and the rest through the operators' component-agnostic cores, with one
component; the three-component fields are built only for the result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM, STRUCTURE_C, coeff_bracket
from .coulomb import IdentityReport, _horizontality
from .errors import (
    BadCover,
    BadGeometry,
    HopfViolation,
    KernelConditionViolated,
    NotTypeA,
    RankMismatch,
    SupportTouchesBoundary,
    WindowTooSmall,
)
from .fields import OneForm, ScalarField, Section, l2_norm
from .geometry import BoundaryField, mean_curvature, normal_derivative
from .operators import (
    _bracket_contract,
    _cancellation_ratio,
    _conn,
    _normal_profile_solve,
    boundary_operator_T,
    bracket_dot,
    d_A,
    green_A,
    laplacian_A,
)

#: depth fractions of the construction ladder: eta band, plateau rise,
#: profile band, plateau fall.
LADDER = (0.15, 0.25, 0.35, 0.45, 0.75, 0.9)

#: collar depths as fractions of the normal extent: the generator's source
#: collar and the collar of the kernel-class potential's source
_GENERATOR_DEPTH = 0.4
_KERNEL_CLASS_DEPTH = 0.35

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
    if not ch.is_tangentially_uniform:
        raise BadGeometry(
            "window constructions need a metric constant along the tangential axis"
        )


def _check_side(side):
    if isinstance(side, bool) or side not in (0, 1):
        raise BadGeometry(f"side must be 0 or 1, not {side!r}")


def _finite_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


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
        _check_side(side)
        if depth is None:
            depth = 0.8 * (hi - lo)
        elif not _finite_real(depth):
            raise BadGeometry(f"depth must be a finite real number, not {depth!r}")
        if not 0 < depth <= hi - lo:
            raise WindowTooSmall("collar depth must fit inside the domain")
        s = (xn - lo) if side == 0 else (hi - xn)
        sgn = 1.0 if side == 0 else -1.0
    else:
        try:
            s0, s1 = interval
        except (TypeError, ValueError):
            raise BadGeometry(f"interval must be two numbers, not {interval!r}") from None
        if not (_finite_real(s0) and _finite_real(s1)):
            raise BadGeometry(f"interval must be two finite real numbers, not {interval!r}")
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
    """Window-inverse pair and its verification numbers.

    The pair has rank one in the algebra: alpha = a (x) e_a, beta = b (x) e_b,
    with a the star route of a potential F (`_star_route`). The product and
    horizontality are computed on a and b through the same component-agnostic
    cores as `bracket_dot` and `horizontality_ratio`, so they equal what those
    give on the fields here.
    """

    alpha: OneForm
    beta: OneForm
    product_residual: float
    route_difference: float
    horizontality_alpha: float
    horizontality_beta: float


def _check_pair(pair):
    try:
        ia, ib = pair
    except (TypeError, ValueError):
        raise BadGeometry(f"pair must be two basis indices, not {pair!r}") from None
    ok = all(
        isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < ALGEBRA_DIM
        for k in (ia, ib)
    )
    if not ok or ia == ib:
        raise BadGeometry(
            f"pair must name two distinct basis directions in {{0, 1, 2}}, not {pair!r}"
        )
    return int(ia), int(ib)


def _window_coefficients(psi, t, sgn):
    """Coefficients (a, b, F) of the window pair for the profile psi on the
    band coordinate t (see `_band_coordinates`): alpha = a (x) e_a and
    beta = b (x) e_b, with a and b shaped (*shape, 2), and the potential F:
    a is its star route (`_star_route`)."""
    ch = psi.chart
    f1, f2, f3, f4, f5, f6 = LADDER
    hn = ch.h[-1]
    g11 = ch.g[..., 0]
    g22 = ch.g[..., 1]
    vol = ch.vol

    # eta: unit discrete integral inside its band, so the running integral of
    # phi returns exactly to zero past the profile band
    eta = BumpKit.bump01((t - f2) / (f3 - f2))
    wn = st.quad_weights_1d(ch.shape[-1], hn, False)
    eta = eta / float(np.sum(wn * eta))

    src = g11 * psi.data
    I_t = np.sum(wn[None, :] * src, axis=-1)
    phi = -I_t[:, None] * eta[None, :] + src

    if sgn < 0:
        F = np.flip(st.cumulative_trapezoid(np.flip(phi, -1), 1, hn), -1)
    else:
        F = st.cumulative_trapezoid(phi, 1, hn)
    F_t = st.deriv_node(F, 0, ch.h[0], True)
    a = np.stack([(g11 / vol) * sgn * phi, -(g22 / vol) * F_t], axis=-1)

    plateau = BumpKit.smoothstep((t - f3) / (f4 - f3)) * (
        1.0 - BumpKit.smoothstep((t - f5) / (f6 - f5))
    )
    b = np.zeros(ch.shape + (2,))
    b[..., 0] = sgn * (g22 / vol) * plateau
    return a, b, F


def _star_route(ch, F):
    """The flat star route -(star d star) of the two-form (vol F) dx^0 ^ dx^1
    on a 2d chart, with node derivatives: the one-form coefficients
    (vol g^11 d_1 F, -vol g^00 d_0 F), shaped (*shape, 2)."""
    d0, d1 = (st.deriv_node(F, ax, ch.h[ax], ch.periodic[ax]) for ax in range(2))
    ginv = ch.ginv
    return np.stack([ch.vol * (ginv[..., 1] * d1), -(ch.vol * (ginv[..., 0] * d0))], axis=-1)


def _along(coeffs, vec):
    """coeffs[..., None] * vec, one whole-array product per component
    (a broadcast over a trailing axis of 3 is several times slower)."""
    out = np.empty(coeffs.shape + vec.shape)
    for k, v in enumerate(vec):
        np.multiply(coeffs, v, out=out[..., k])
    return out


def _window_inverse(psi, side, interval, depth, pair):
    if not isinstance(psi, ScalarField):
        raise RankMismatch("a window inverse takes its profile as a ScalarField")
    ch = psi.chart
    _check_construction_chart(ch)
    ia, ib = _check_pair(pair)
    t, sgn, depth = _band_coordinates(ch, side, interval, depth)
    f1, f2, f3, f4, f5, f6 = LADDER

    if float(np.max(np.abs(psi.data))) == 0.0:
        return InverseResult(OneForm.zeros(ch), OneForm.zeros(ch), 0.0, 0.0, 0.0, 0.0)

    in_eta = (t > f2) & (t < f3)
    in_psi = (t > f4) & (t < f5)
    for name, band in (("eta", in_eta), ("profile", in_psi)):
        if int(np.count_nonzero(band)) < 3:
            raise WindowTooSmall(f"{name} band holds fewer than 3 grid layers")
    outside = ~in_psi
    if float(np.max(np.abs(psi.data[:, outside]))) > 0.0:
        raise WindowTooSmall("profile must be supported inside the ladder band")

    a, b, F = _window_coefficients(psi, t, sgn)
    flat = _conn(ch, None)
    vec_a, vec_b = _unit(ia), _unit(ib)
    # [e_a, e_b] = c e_k with k the third index
    c = float(coeff_bracket(vec_a, vec_b)[3 - ia - ib])
    product_residual = _relative_sup(
        _bracket_contract(a[..., None], b[..., None], ch.ginv, np.multiply)[..., 0] * c,
        psi.data * c,
    )
    route_difference = _relative_sup(_star_route(ch, F), a)
    # every number before the 3-component fields, so that no temporary of
    # the checks overlaps them
    h_alpha, h_beta = (_horizontality(flat, x[..., None]) for x in (a, b))
    return InverseResult(
        alpha=OneForm(ch, _along(a, vec_a)),
        beta=OneForm(ch, _along(b, vec_b)),
        product_residual=product_residual,
        route_difference=route_difference,
        horizontality_alpha=h_alpha,
        horizontality_beta=h_beta,
    )


def _relative_sup(x, ref):
    """sup |x - ref| / sup |ref|, with a floor under the denominator."""
    return float(np.max(np.abs(x - ref))) / max(float(np.max(np.abs(ref))), _TINY)


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
# generator for prescribed boundary data
# ---------------------------------------------------------------------------

@dataclass
class GeneratorResult:
    """u = sum_d [g_d, h_d] over the sorted `directions` d in which the
    target is nonzero on some face. Each pair has rank one: g_d = g_{d+1}
    e_{d+1}, component d+1 of the flat solve, and h_d = w e_{d+2}, w the
    Hopf potential, so [g_d, h_d] = c g_{d+1} w e_d; only u is kept.
    `hopf_min` is over the faces that carry data (+inf if none does)."""

    directions: list
    u: Section
    realized: BoundaryField
    residual: float
    hopf_min: float


def _hopf_potential(ch):
    """Flat Green potential of an interior bump; Hopf gives a strictly
    positive inward normal derivative on each face.

    The bump depends on the normal coordinate alone and the chart is
    tangentially uniform (`_check_construction_chart`), so the potential is
    a normal profile: one tridiagonal solve on the normal axis
    (`_normal_profile_solve`). It depends on the chart alone, so it is
    solved once per chart and kept on it as a read-only view of the chart's
    shape."""
    if ch._hopf is None:
        xn = ch.coords[-1]
        lo, hi = xn[0], xn[-1]
        t = (xn - lo) / (hi - lo)
        prof = BumpKit.bump01((t - 0.35) / 0.3)
        ch._hopf = np.broadcast_to(_normal_profile_solve(ch, prof), ch.shape)
    return ch._hopf


def _collar_extension(ch, side, depth):
    """Collar coordinate t = s / depth at one face (s the normal distance
    from it), the collar plateau, and the factor exp(-2(n-1) H s) that
    cancels the curvature term of the trace operator on that face."""
    xn = ch.coords[-1]
    s = (xn - xn[0]) if side == 0 else (xn[-1] - xn)
    t = s / depth
    plateau = 1.0 - BumpKit.smoothstep((t - 0.5) / 0.4)
    H = mean_curvature(ch).values[side]
    ext = np.exp(-2.0 * (ch.n - 1) * H[:, None] * s[None, :])
    return t, plateau, ext


def generator_for_boundary_data(target, solve_tol=1e-10):
    """Commutator pairs whose obstruction trace realizes the target data on
    every face, at the flat base point.

    Each algebra direction d uses the double bracket [[e_{d+2}, e_d], e_{d+2}]
    = c^2 e_d: one Green potential with a collar source scaled by the Hopf
    normal derivative, one fixed Hopf potential. The boundary expansion of
    the bracket identity turns the pair's obstruction trace into exactly the
    prescribed face data, up to discretization.

    Direction d's collar sources, at each face with data in d, lie wholly on
    [e_{d+2}, e_d] = c e_{d+1}, so the directions fill distinct components
    and one componentwise flat Green solve of the summed sources, at
    `solve_tol`, gives every potential (see `GeneratorResult`). The Hopf
    potential is a normal profile, solved directly once per chart
    (`_hopf_potential`). Without face data nothing is solved.
    """
    ch = target.chart
    _check_construction_chart(ch)
    if not ch.is_type_a:
        raise NotTypeA("the collar extension needs a unit-speed normal coordinate")
    xn = ch.coords[-1]
    depth = _GENERATOR_DEPTH * (xn[-1] - xn[0])
    if 2 * ch.h[-1] >= 0.5 * depth:
        raise BadCover("collar too shallow for the extension plateau")

    faces = [fc for fc in ch.faces if float(np.max(np.abs(target.values[fc.side]))) != 0.0]
    wvals = _hopf_potential(ch) if faces else None
    c2 = STRUCTURE_C**2
    hopf_min = math.inf
    directions = set()
    src = np.zeros(ch.shape + (ALGEBRA_DIM,))
    for fc in faces:
        bprime = normal_derivative(ch, wvals, fc)
        hopf_min = min(hopf_min, float(np.min(bprime)))
        if hopf_min <= 0.0:
            raise HopfViolation("Hopf derivative is not strictly positive on the face")
        t, plateau, ext = _collar_extension(ch, fc.side, depth)
        # the collar cutoff: 1 on the first node layers, so the source's
        # normal derivative vanishes at the face
        chi = 1.0 - BumpKit.smoothstep((t - 0.6) / 0.3)
        fvals = target.values[fc.side]
        for d in range(ALGEBRA_DIM):
            if float(np.max(np.abs(fvals[..., d]))) == 0.0:
                continue
            face_coef = fvals[..., d] / (3.0 * bprime * c2)
            profile = face_coef[:, None] * plateau[None, :] * ext
            src[..., (d + 1) % 3] += profile * chi[None, :] * STRUCTURE_C
            directions.add(d)
    g = green_A(Section(ch, src), tol=solve_tol) if faces else None
    del src
    u = Section.zeros(ch)
    for d in directions:
        # rounds as [g_d, h_d]: (g_{d+1} w) c
        u.data[..., d] = g.data[..., (d + 1) % 3] * wvals * STRUCTURE_C
    del g

    realized = boundary_operator_T(u)
    scale = max(target.sup(), _TINY)
    residual = (realized - target).sup() / scale
    return GeneratorResult(
        directions=sorted(directions),
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
    reconstruction: Section
    residual: float
    gate_ratio: float


def kernel_decompose(v, gate=1e-8, solve_tol=1e-10):
    """Solve a section in the flat obstruction kernel back from its Laplacian.

    Gates on the relative obstruction trace of v, then solves the pointwise
    Laplacian of v through the Dirichlet Green operator; the certificate is
    the relative distance of that reconstruction from v.
    """
    ch = v.chart
    _check_construction_chart(ch)
    ratio, _ = _cancellation_ratio(v, None)
    if ratio > gate:
        raise KernelConditionViolated(
            f"obstruction trace ratio {ratio:.3e} exceeds the gate {gate:.1e}"
        )
    q = laplacian_A(v, form="pointwise")
    reconstruction = green_A(q, tol=solve_tol)
    vn = l2_norm(v)
    residual = l2_norm(reconstruction - v) / max(vn, _TINY)
    return KernelDecomposition(
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


def full_decompose(u, kernel_gate=0.25, solve_tol=1e-10):
    """Decompose a Dirichlet section into generator pairs plus a kernel part,
    at the flat base point.

    Stage one realizes the obstruction trace of u on both faces through one
    generator call (at most one commutator per algebra direction); stage
    two solves the remainder back from its Laplacian, which passes the
    (loosened) kernel gate because stage one already matched the trace.
    The stage-one residual is the worst face's |realized - trace| / |trace|.
    """
    trace = boundary_operator_T(u)
    gen = generator_for_boundary_data(trace, solve_tol=solve_tol)
    gen_res = 0.0
    for side, face in trace.values.items():
        peak = float(np.max(np.abs(face)))
        if peak == 0.0:
            continue
        miss = float(np.max(np.abs(gen.realized.values[side] - face)))
        gen_res = max(gen_res, miss / max(peak, _TINY))
    u_comm = gen.u
    v = u - u_comm
    kd = kernel_decompose(v, gate=kernel_gate, solve_tol=solve_tol)
    recombined = u_comm + kd.reconstruction
    residual = l2_norm(recombined - u) / max(l2_norm(u), _TINY)
    return DecompositionCertificate(
        residual=residual,
        generator_residual=gen_res,
        kernel_residual=kd.residual,
        kernel_gate_ratio=kd.gate_ratio,
        u_commutator=u_comm,
        u_kernel=kd.reconstruction,
        n_pairs=len(gen.directions),
    )


# ---------------------------------------------------------------------------
# bracket identity
# ---------------------------------------------------------------------------

def bracket_identity_check(g1, g2):
    """Residual of Lap[g1,g2] = [Lap g1, g2] + [g1, Lap g2] - 2 [dg1 . dg2]
    at the flat connection.

    Measured on the rows where the adjoint-form Laplacian is the consistent
    conservative operator (all nodes except the two face layers).
    """
    ch = g1.chart
    prod = Section(ch, coeff_bracket(g1.data, g2.data))
    lhs = laplacian_A(prod)
    l1 = laplacian_A(g1)
    l2 = laplacian_A(g2)
    cross = bracket_dot(d_A(g1), d_A(g2))
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


def kernel_class_potential(chart, seed, solve_tol=1e-10):
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
    depth = _KERNEL_CLASS_DEPTH * (hi - lo)
    theta = chart.coords[0]
    span = chart.shape[0] * chart.h[0]

    def rand_profile():
        prof = np.zeros_like(theta)
        for m in range(3):
            a, b = rng.standard_normal(2) / (m + 1.0) ** 2
            w = 2.0 * np.pi * m / span
            prof += a * np.cos(w * theta) + b * np.sin(w * theta)
        return prof

    data = np.zeros(chart.shape + (ALGEBRA_DIM,))
    for side in (0, 1):
        _, plateau, ext = _collar_extension(chart, side, depth)
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
    lhs = boundary_operator_T(u)
    residuals, scales = [0.0], [_TINY]
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        dg1 = normal_derivative(ch, g1.data, fc, order=4)
        dg2 = normal_derivative(ch, g2.data, fc, order=4)
        rhs = 3.0 * coeff_bracket(f1.data[sl], dg2) + 3.0 * coeff_bracket(dg1, f2.data[sl])
        residuals.append(np.max(np.abs(lhs.values[fc.side] - rhs)))
        scales += [np.max(np.abs(lhs.values[fc.side])), np.max(np.abs(rhs))]
    # np.max keeps a NaN wherever it stands; the builtin max drops it
    return IdentityReport(float(np.max(residuals)), float(np.max(scales)))
