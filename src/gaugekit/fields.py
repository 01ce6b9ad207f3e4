"""Grid fields: algebra-valued forms, inner products, and flat derivatives.

Sections and one-forms carry su(2) coefficients in their trailing axis;
there is no two-form type (see `constructions._star_route`). ScalarField
holds plain real samples for cut-offs and profiles. Derivatives
are collocated at the nodes: centered second order inside, one-sided 3-point
second order at the two boundary layers, periodic wrap tangentially.

The cell quadrature of one-forms weights each axis's midpoint samples by the
coefficients of the staggered energy form, which the chart owns
(`Chart.cell_c`); `MidOneForm.of` carries node one-forms to the midpoints.
"""

from __future__ import annotations

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM
from .errors import DbcViolation, RankMismatch
from .geometry import BoundaryField, along_normal, require_same_chart


class _Field:
    """Shared arithmetic for all grid-field types."""

    rank = None

    def __init__(self, chart, data):
        self.chart = chart
        self.data = np.asarray(data, dtype=float)
        expected = chart.shape + self.value_shape(chart)
        if self.data.shape != expected:
            raise RankMismatch(
                f"{type(self).__name__} expects data shaped {expected}, got {self.data.shape}"
            )

    @classmethod
    def zeros(cls, chart):
        return cls(chart, np.zeros(chart.shape + cls.value_shape(chart)))

    def _like(self, data):
        return type(self)(self.chart, data)

    def __add__(self, other):
        self._check(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return self._like(self.data - other.data)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            require_same_chart(self.chart, other.chart)
            extra = (1,) * (self.data.ndim - other.data.ndim)
            return self._like(self.data * other.data.reshape(other.data.shape + extra))
        return self._like(self.data * float(other))

    __rmul__ = __mul__

    def _check(self, other):
        if type(other) is not type(self):
            raise RankMismatch(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        require_same_chart(self.chart, other.chart)

    def sup(self):
        return _sup(self.data)


def _sup(x):
    """max |x| over an array, 0 when it is empty, with no |x| temporary."""
    if not x.size:
        return 0.0
    # abs only clears the sign of a zero maximum
    return abs(float(max(x.max(), -x.min())))


class ScalarField(_Field):
    rank = "scalar"

    @staticmethod
    def value_shape(chart):
        return ()


class Section(_Field):
    """Algebra-valued 0-form."""

    rank = "section"

    @staticmethod
    def value_shape(chart):
        return (ALGEBRA_DIM,)


class OneForm(_Field):
    """Algebra-valued 1-form; component axis indexes the coordinate axes."""

    rank = "oneform"

    @staticmethod
    def value_shape(chart):
        return (chart.n, ALGEBRA_DIM)


_RANKS = {cls.rank: cls for cls in (ScalarField, Section, OneForm)}


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _node_d(ch, data):
    """Node derivatives of raw 0-form data (*shape, ...) along every axis,
    stacked behind the chart axes: (*shape, n, ...)."""
    comps = [
        st.deriv_node(data, ax, ch.h[ax], ch.periodic[ax]) for ax in range(ch.n)
    ]
    return np.stack(comps, axis=ch.n)


# ---------------------------------------------------------------------------
# boundary restrictions
# ---------------------------------------------------------------------------

def normal_component(omega):
    """Pair a one-form with the inward unit normal on each face."""
    if not isinstance(omega, OneForm):
        raise RankMismatch("normal_component expects a OneForm")
    ch = omega.chart
    values = {}
    for fc in ch.faces:
        values[fc.side] = along_normal(ch, fc, omega.data[ch.face_slice(fc)][..., -1, :])
    return BoundaryField(ch, values)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

class MidOneForm:
    """One-form sampled natively at cell midpoints, one array per axis.

    Produced by the staggered covariant gradient; pairs exactly with the
    adjoint codifferential under the cell quadrature.
    """

    rank = "oneform"

    def __init__(self, chart, arrays):
        self.chart = chart
        self.arrays = list(arrays)

    @classmethod
    def of(cls, omega):
        """Midpoint samples of a one-form: each node component averaged to
        its axis's midpoints; a MidOneForm comes back as it is."""
        if isinstance(omega, MidOneForm):
            return omega
        return cls(omega.chart, _mid_samples(omega.chart, omega.data))


def _mid_samples(ch, data):
    """Raw one-form data (*shape, n, K) averaged to each axis's midpoints:
    one (*mid_shape, K) array per axis."""
    return [st.avg_mid(data[..., ax, :], ax, ch.periodic[ax]) for ax in range(ch.n)]


def l2_inner(u, v, quadrature="node"):
    """L2 inner product of two scalars, sections or one-forms of equal rank
    on one chart.

    quadrature="node" is the trapezoid/periodic node rule contracted with the
    (diagonal) inverse metric. quadrature="cell" (one-forms only) integrates
    per-axis components at cell midpoints against `Chart.cell_c`; it is the
    pairing against which the adjoint codifferential is exactly adjoint.
    """
    require_same_chart(u.chart, v.chart)
    if u.rank != v.rank:
        raise RankMismatch(f"rank mismatch: {u.rank} vs {v.rank}")
    ch = u.chart
    if quadrature == "cell":
        if u.rank != "oneform":
            raise RankMismatch("cell quadrature is defined for one-forms")
        c = ch.cell_c
        um, vm = MidOneForm.of(u), MidOneForm.of(v)
        total = 0.0
        for ax in range(ch.n):
            total += float(np.sum(c[ax][..., None] * um.arrays[ax] * vm.arrays[ax]))
        return total
    if quadrature != "node":
        raise ValueError("quadrature must be 'node' or 'cell'")
    if not isinstance(u, (ScalarField, Section, OneForm)):
        raise RankMismatch(f"unsupported rank for l2_inner: {u.rank}")
    return _node_inner(ch, u.data, v.data)


def _node_inner(ch, u, v):
    """Node-quadrature inner product of raw scalar (*shape), section
    (*shape, K) or one-form (*shape, n, K) data, told apart by their number
    of axes. Any number K of trailing components: data with one nonzero
    component gives the value of that component alone, bit for bit."""
    if u.ndim == ch.n + 2:
        density = np.einsum("...i,...ik,...ik->...", ch.ginv, u, v)
    else:
        density = u * v
        if u.ndim > ch.n:
            density = density.sum(axis=-1)
    return float(np.sum(ch.quad_w * ch.vol * density))


def l2_norm(u, quadrature="node"):
    return _root(l2_inner(u, u, quadrature=quadrature))


def _root(square):
    """A norm from its square, which roundoff may leave slightly negative."""
    return float(np.sqrt(max(square, 0.0)))


# ---------------------------------------------------------------------------
# Dirichlet boundary checks
# ---------------------------------------------------------------------------

#: sup tolerance of the Dirichlet checks on sections and connection one-forms
DBC_TOL = 1e-12


def check_dbc(field):
    """Return (ok, worst violation) for the field's Dirichlet condition; ok
    when the violation is at most DBC_TOL.

    Sections and scalars must vanish on the boundary node set; one-forms must
    have vanishing tangential components there (the normal slot is free).
    """
    ch = field.chart
    worst = 0.0
    for fc in ch.faces:
        sl = ch.face_slice(fc)
        if isinstance(field, (Section, ScalarField)):
            vals = field.data[sl]
        elif isinstance(field, OneForm):
            vals = field.data[sl][..., : ch.n - 1, :]
        else:
            raise RankMismatch("check_dbc expects a Section, ScalarField, or OneForm")
        if vals.size:
            worst = max(worst, float(np.max(np.abs(vals))))
    return worst <= DBC_TOL, worst


def require_dbc(field):
    ok, worst = check_dbc(field)
    if not ok:
        raise DbcViolation(f"boundary violation {worst:.3e} exceeds {DBC_TOL:.1e}")


# ---------------------------------------------------------------------------
# seeded smooth fields
# ---------------------------------------------------------------------------

def _smooth_slots(ch, rng, slots, modes, degree, terms=4):
    """Yield `slots` smooth scalars on the chart's grid, one after another,
    each in the same buffer.

    Each slot is a sum of `terms` products of random tangential cosines, a
    random polynomial in the normal coordinate and a random amplitude. The
    rng is read slot after slot and term after term, before the first slot
    is evaluated. A term's factors live on 1-D coordinates (a sparse mesh),
    so its product is the one other full-grid buffer.
    """
    tang = ch.n - 1
    k = np.empty((terms, slots, tang))
    phase = np.empty((terms, slots, tang))
    coeffs = np.empty((terms, degree + 1, slots))
    amp = np.empty((terms, slots))
    for s in range(slots):
        for t in range(terms):
            for ax in range(tang):
                k[t, s, ax] = rng.integers(0, modes + 1)
                phase[t, s, ax] = rng.uniform(0.0, 2.0 * np.pi)
            coeffs[t, :, s] = rng.normal(size=degree + 1)
            amp[t, s] = rng.normal()

    mesh = ch.mesh(sparse=True)
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    t_norm = (mesh[-1] - lo) / (hi - lo)
    acc, prod = np.empty(ch.shape), np.empty(ch.shape)
    for s in range(slots):
        acc.fill(0.0)
        for t in range(terms):
            term = 1.0
            for ax in range(tang):
                span = ch.shape[ax] * ch.h[ax]
                wave = k[t, s, ax] * (2.0 * np.pi / span)
                term = term * np.cos(wave * mesh[ax] + phase[t, s, ax])
            poly = np.polynomial.polynomial.polyval(2.0 * t_norm - 1.0, coeffs[t, :, s])
            acc += np.multiply(amp[t, s] * term, poly, out=prod)
        yield acc


def random_smooth_field(chart, rank, seed, dbc=True, scale=1.0, modes=2, degree=3):
    """Band-limited random field: low tangential Fourier modes times a smooth
    normal profile, normalized to the requested sup norm.

    With dbc=True, constrained slots (section values, tangential one-form
    components) carry a sin(pi t) factor in the normal coordinate so the
    Dirichlet condition holds exactly on the grid. Each slot is evaluated
    in one buffer (`_smooth_slots`) and written into the node-major result,
    which is then scaled in place.
    """
    cls = _RANKS.get(rank) if isinstance(rank, str) else None
    if cls is None:
        raise RankMismatch(f"unsupported rank for random field: {rank}")
    data = np.empty(chart.shape + cls.value_shape(chart))
    slots = data.reshape(chart.shape + (-1,))  # a view: value slots last
    # every slot of a scalar or section is constrained; a one-form's
    # constrained slots, its tangential axes' components, come first
    fixed = ALGEBRA_DIM * (chart.n - 1) if cls is OneForm else slots.shape[-1]
    lo, hi = chart.coords[-1][0], chart.coords[-1][-1]
    vanish = np.sin(np.pi * (chart.mesh(sparse=True)[-1] - lo) / (hi - lo))
    rng = np.random.default_rng(seed)
    for s, acc in enumerate(_smooth_slots(chart, rng, slots.shape[-1], modes, degree)):
        if dbc and s < fixed:
            acc *= vanish
        slots[..., s] = acc
    peak = _sup(data)
    if peak > 0:
        data *= float(scale / peak)
    return cls(chart, data)

