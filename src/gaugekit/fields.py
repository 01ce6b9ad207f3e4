"""Grid fields: algebra-valued forms, inner products, and flat derivatives.

Sections and one-/two-forms carry su(2) coefficients in their trailing axis;
ScalarField holds plain real samples for cut-offs and profiles. Derivatives
are collocated at the nodes: centered second order inside, one-sided 3-point
second order at the two boundary layers, periodic wrap tangentially.

The cell quadrature of one-forms weights each axis's midpoint samples by the
coefficients of the staggered energy form, which the chart owns
(`Chart.cell_c`); `MidOneForm.of` carries node one-forms to the midpoints.
"""

from __future__ import annotations

import io

import numpy as np

from . import _stencils as st
from .algebra import ALGEBRA_DIM
from .errors import BadGeometry, ChartMismatch, DbcViolation, RankMismatch
from .geometry import BoundaryField, build_chart, require_same_chart

_PAIR_TABLE = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


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

    def copy(self):
        return type(self)(self.chart, self.data.copy())

    def _like(self, data):
        return type(self)(self.chart, data)

    def __add__(self, other):
        self._check(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return self._like(self.data - other.data)

    def __neg__(self):
        return self._like(-self.data)

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
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


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


class TwoForm(_Field):
    """Algebra-valued 2-form stored on sorted index pairs."""

    rank = "twoform"

    @staticmethod
    def value_shape(chart):
        return (len(_PAIR_TABLE[chart.n]), ALGEBRA_DIM)

    @property
    def pairs(self):
        return _PAIR_TABLE[self.chart.n]


class ThreeForm(_Field):
    """Algebra-valued top form on 3d charts."""

    rank = "threeform"

    @staticmethod
    def value_shape(chart):
        if chart.n != 3:
            raise RankMismatch("three-forms require a 3d chart")
        return (1, ALGEBRA_DIM)


_RANKS = {cls.rank: cls for cls in (ScalarField, Section, OneForm, TwoForm, ThreeForm)}


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def flat_d(f):
    """Componentwise exterior derivative of a 0-form, collocated at nodes."""
    if not isinstance(f, (Section, ScalarField)):
        raise RankMismatch("flat_d expects a Section or ScalarField")
    ch = f.chart
    comps = [
        st.deriv_node(f.data, ax, ch.h[ax], ch.periodic[ax]) for ax in range(ch.n)
    ]
    data = np.stack(comps, axis=ch.n)
    if isinstance(f, ScalarField):
        return data  # raw (..., n) array; scalar forms stay internal
    return OneForm(ch, data)


def exterior_d(omega):
    """Exterior derivative of a 1- or 2-form (flat, componentwise)."""
    ch = omega.chart
    if isinstance(omega, OneForm):
        pairs = _PAIR_TABLE[ch.n]
        out = np.empty(ch.shape + (len(pairs), ALGEBRA_DIM))
        for p, (i, j) in enumerate(pairs):
            di = st.deriv_node(omega.data[..., j, :], i, ch.h[i], ch.periodic[i])
            dj = st.deriv_node(omega.data[..., i, :], j, ch.h[j], ch.periodic[j])
            out[..., p, :] = di - dj
        return TwoForm(ch, out)
    if isinstance(omega, TwoForm) and ch.n == 3:
        # (d w)_{123} = d1 w_23 - d2 w_13 + d3 w_12
        d1 = st.deriv_node(omega.data[..., 2, :], 0, ch.h[0], ch.periodic[0])
        d2 = st.deriv_node(omega.data[..., 1, :], 1, ch.h[1], ch.periodic[1])
        d3 = st.deriv_node(omega.data[..., 0, :], 2, ch.h[2], ch.periodic[2])
        return ThreeForm(ch, (d1 - d2 + d3)[..., None, :])
    raise RankMismatch("exterior_d expects a OneForm, or a TwoForm on a 3d chart")


# ---------------------------------------------------------------------------
# boundary restrictions
# ---------------------------------------------------------------------------

def trace_boundary(f):
    """Restrict a Section (or ScalarField) to the boundary node set."""
    if not isinstance(f, (Section, ScalarField)):
        raise RankMismatch("trace_boundary expects a Section or ScalarField")
    ch = f.chart
    return BoundaryField(ch, {fc.side: f.data[ch.face_slice(fc)] for fc in ch.faces})


def normal_component(omega):
    """Pair a one-form with the inward unit normal on each face."""
    if not isinstance(omega, OneForm):
        raise RankMismatch("normal_component expects a OneForm")
    ch = omega.chart
    values = {}
    for fc in ch.faces:
        gnn = ch.g[ch.face_slice(fc)][..., -1, -1]
        comp = omega.data[ch.face_slice(fc)][..., -1, :]
        values[fc.side] = fc.inward_sign * comp / np.sqrt(gnn)[..., None]
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
        ch = omega.chart
        return cls(ch, [
            st.avg_mid(omega.data[..., ax, :], ax, ch.periodic[ax])
            for ax in range(ch.n)
        ])

    def axis_data(self, ax):
        return self.arrays[ax]


def l2_inner(u, v, quadrature="node"):
    """L2 inner product of two fields of equal rank on one chart.

    quadrature="node" is the trapezoid/periodic node rule contracted with the
    metric. quadrature="cell" (one-forms only, diagonal metrics) integrates
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
            total += float(np.sum(c[ax][..., None] * um.axis_data(ax) * vm.axis_data(ax)))
        return total
    if quadrature != "node":
        raise ValueError("quadrature must be 'node' or 'cell'")
    w = ch.quad_w * ch.vol
    if isinstance(u, (Section, ScalarField)):
        prod = u.data * v.data
        if isinstance(u, Section):
            prod = prod.sum(axis=-1)
        return float(np.sum(w * prod))
    if isinstance(u, OneForm):
        contracted = np.einsum("...ij,...ik,...jk->...", ch.ginv, u.data, v.data)
        return float(np.sum(w * contracted))
    if isinstance(u, TwoForm):
        pairs = u.pairs
        total = np.zeros(ch.shape)
        for p, (i, j) in enumerate(pairs):
            for q, (k, l) in enumerate(pairs):
                coeff = (
                    ch.ginv[..., i, k] * ch.ginv[..., j, l]
                    - ch.ginv[..., i, l] * ch.ginv[..., j, k]
                )
                total += coeff * np.sum(u.data[..., p, :] * v.data[..., q, :], axis=-1)
        return float(np.sum(w * total))
    raise RankMismatch(f"unsupported rank for l2_inner: {u.rank}")


def l2_norm(u, quadrature="node"):
    return float(np.sqrt(max(l2_inner(u, u, quadrature=quadrature), 0.0)))


# ---------------------------------------------------------------------------
# Dirichlet boundary checks
# ---------------------------------------------------------------------------

#: sup tolerance of the Dirichlet checks on sections and connection one-forms
DBC_TOL = 1e-12


def check_dbc(field, tol=DBC_TOL):
    """Return (ok, worst violation) for the field's Dirichlet condition.

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
    return worst <= tol, worst


def require_dbc(field, tol=DBC_TOL):
    ok, worst = check_dbc(field, tol)
    if not ok:
        raise DbcViolation(f"boundary violation {worst:.3e} exceeds {tol:.1e}")


# ---------------------------------------------------------------------------
# seeded smooth fields
# ---------------------------------------------------------------------------

def _smooth_scalar(ch, rng, modes, degree, terms=4):
    # every factor is evaluated on 1-D coordinates and broadcast in the sum
    mesh = ch.mesh(sparse=True)
    out = np.zeros(ch.shape)
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    t = (mesh[-1] - lo) / (hi - lo)
    for _ in range(terms):
        term = 1.0
        for ax in range(ch.n - 1):
            k = int(rng.integers(0, modes + 1))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            span = ch.shape[ax] * ch.h[ax]
            term = term * np.cos(k * (2.0 * np.pi / span) * mesh[ax] + phase)
        coeffs = rng.normal(size=degree + 1)
        poly = np.polynomial.polynomial.polyval(2.0 * t - 1.0, coeffs)
        out += rng.normal() * term * poly
    return out


def random_smooth_field(chart, rank, seed, dbc=True, scale=1.0, modes=2, degree=3):
    """Band-limited random field: low tangential Fourier modes times a smooth
    normal profile, normalized to the requested sup norm.

    With dbc=True, constrained slots (section values, tangential one-form
    components) carry a sin(pi t) factor in the normal coordinate so the
    Dirichlet condition holds exactly on the grid.
    """
    rng = np.random.default_rng(seed)
    mesh = chart.mesh(sparse=True)
    lo, hi = chart.coords[-1][0], chart.coords[-1][-1]
    vanish = np.sin(np.pi * (mesh[-1] - lo) / (hi - lo))
    if rank == "scalar":
        data = _smooth_scalar(chart, rng, modes, degree)
        if dbc:
            data = data * vanish
        field = ScalarField(chart, data)
    elif rank == "section":
        data = np.stack(
            [_smooth_scalar(chart, rng, modes, degree) for _ in range(ALGEBRA_DIM)],
            axis=-1,
        )
        if dbc:
            data = data * vanish[..., None]
        field = Section(chart, data)
    elif rank == "oneform":
        comps = []
        for ax in range(chart.n):
            c = np.stack(
                [_smooth_scalar(chart, rng, modes, degree) for _ in range(ALGEBRA_DIM)],
                axis=-1,
            )
            if dbc and ax < chart.n - 1:
                c = c * vanish[..., None]
            comps.append(c)
        field = OneForm(chart, np.stack(comps, axis=chart.n))
    else:
        raise RankMismatch(f"unsupported rank for random field: {rank}")
    peak = field.sup()
    if peak > 0:
        field = field * (scale / peak)
    return field


# ---------------------------------------------------------------------------
# text dump / reload
# ---------------------------------------------------------------------------

def dump_field(field, path, seed=None):
    """Write a field as a text header plus row-major %.17g records.

    %.17g round-trips float64 exactly, so reload is bit-exact.
    """
    ch = field.chart
    lines = ["gaugekit-field 1", f"kind {ch.kind}", "shape " + " ".join(map(str, ch.shape))]
    for k in sorted(ch.params):
        v = ch.params[k]
        if isinstance(v, (int, float)):
            lines.append(f"param {k} {v!r}")
    lines.append(f"rank {field.rank}")
    lines.append(f"seed {seed if seed is not None else '-'}")
    lines.append(f"values {field.data.size}")
    buf = io.StringIO()
    np.savetxt(buf, field.data.reshape(-1, 1), fmt="%.17g")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(buf.getvalue())


def load_field(path, chart=None):
    """Reload a dumped field; rebuilds built-in charts from the header."""
    with open(path) as fh:
        text = fh.read().splitlines()
    if not text or not text[0].startswith("gaugekit-field"):
        raise BadGeometry("not a field dump")
    header = {}
    params = {}
    idx = 0
    for idx, line in enumerate(text):
        parts = line.split()
        if parts[0] == "param":
            params[parts[1]] = float(parts[2])
        elif parts[0] == "values":
            break
        elif parts[0] != "gaugekit-field":
            header[parts[0]] = parts[1:]
    kind = header["kind"][0]
    shape = tuple(int(s) for s in header["shape"])
    if chart is None:
        if kind == "custom":
            raise BadGeometry("custom charts must be supplied to load_field")
        chart = build_chart(kind, shape, **params)
    elif chart.kind != kind or chart.shape != shape:
        raise ChartMismatch("dump header does not match the supplied chart")
    rank = header["rank"][0]
    cls = _RANKS[rank]
    flat = np.array([float(x) for x in text[idx + 1 :] if x.strip()])
    data = flat.reshape(chart.shape + cls.value_shape(chart))
    return cls(chart, data)
