"""Charts on logically rectangular grids, boundary faces, and mean curvature.

A chart covers a bounded domain with one grid: every axis except the last is
tangential and periodic, the last axis is the normal direction and carries
the two boundary faces at its end nodes. Metric data is sampled from an
analytic generator where available so cell-midpoint values are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _stencils as st
from .errors import BadGeometry, ChartMismatch, NotTypeA, NotTypeB

_TYPE_TOL = 1e-12
_custom_counter = itertools.count()


@dataclass(frozen=True)
class Face:
    """One boundary face: the low (side 0) or high (side 1) end of the normal axis."""

    side: int

    @property
    def inward_sign(self):
        return 1.0 if self.side == 0 else -1.0


class Chart:
    """Grid, coordinates, and metric samples for one domain chart."""

    def __init__(self, kind, shape, coords, periodic, metric_fn, params=None):
        self.kind = kind
        self.shape = tuple(int(s) for s in shape)
        self.n = len(self.shape)
        if self.n not in (2, 3):
            raise BadGeometry("charts support dimension 2 or 3")
        if any(s < 4 for s in self.shape):
            raise BadGeometry("need at least 4 nodes per axis for the stencils")
        self.coords = [np.asarray(c, dtype=float) for c in coords]
        self.periodic = list(periodic)
        if self.periodic[-1] or not all(self.periodic[:-1]):
            raise BadGeometry("tangential axes must be periodic, normal axis bounded")
        for ax, c in enumerate(self.coords):
            if c.shape != (self.shape[ax],):
                raise BadGeometry("coordinate array lengths must match the grid shape")
        self.h = [float(c[1] - c[0]) for c in self.coords]
        for ax, c in enumerate(self.coords):
            if not np.allclose(np.diff(c), self.h[ax], rtol=0, atol=1e-12):
                raise BadGeometry("grids must be uniform per axis")
        self.metric_fn = metric_fn
        self.params = dict(params or {})
        self.faces = (Face(0), Face(1))
        self.key = (self.kind, self.shape, tuple(sorted(
            (k, v) for k, v in self.params.items() if isinstance(v, (int, float))
        )))
        if kind == "custom":
            self.key = self.key + (next(_custom_counter),)

        self.g = self.metric_at(self.coords)
        if self.g.shape != self.shape + (self.n, self.n):
            raise BadGeometry("metric generator returned the wrong shape")
        if not np.allclose(self.g, np.swapaxes(self.g, -1, -2), atol=1e-12):
            raise BadGeometry("metric must be symmetric")
        det = np.linalg.det(self.g)
        if np.any(det <= 0):
            raise BadGeometry("metric must be positive definite")
        self.ginv = np.linalg.inv(self.g)
        self.vol = np.sqrt(det)

        offdiag = np.array(self.g, copy=True)
        for i in range(self.n):
            offdiag[..., i, i] = 0.0
        self.is_diagonal = bool(np.max(np.abs(offdiag)) <= _TYPE_TOL)
        normal_off = np.abs(self.g[..., :-1, -1])
        self.is_type_b = bool(np.max(normal_off) <= _TYPE_TOL)
        gnn_dev = np.max(np.abs(self.g[..., -1, -1] - 1.0))
        bdry_off = max(
            float(np.max(np.abs(self.g[self.face_slice(f)][..., :-1, -1])))
            for f in self.faces
        )
        self.is_type_a = bool(gnn_dev <= _TYPE_TOL and bdry_off <= _TYPE_TOL)

        # node quadrature weights (product trapezoid/periodic rule)
        w = np.ones(self.shape)
        for ax in range(self.n):
            w1 = st.quad_weights_1d(self.shape[ax], self.h[ax], self.periodic[ax])
            w = w * w1.reshape([-1 if a == ax else 1 for a in range(self.n)])
        self.quad_w = w
        # Thomas pivots of the flat separable Green solve (operators.green_A)
        self._separable = None

    # -- construction helpers ------------------------------------------------

    def metric_at(self, axes_coords):
        mesh = np.meshgrid(*axes_coords, indexing="ij")
        return np.asarray(self.metric_fn(mesh), dtype=float)

    def mid_coords(self, axis):
        """Coordinate arrays with one axis moved to cell midpoints."""
        out = []
        for ax in range(self.n):
            c = self.coords[ax]
            if ax == axis:
                if self.periodic[ax]:
                    out.append(c + 0.5 * self.h[ax])
                else:
                    out.append(0.5 * (c[1:] + c[:-1]))
            else:
                out.append(c)
        return out

    def cell_weights(self, axis):
        """Quadrature weights on one axis's midpoint grid (cells along that
        axis, the node rule along the others)."""
        w = None
        n_mid = self.shape[axis] if self.periodic[axis] else self.shape[axis] - 1
        for a in range(self.n):
            cnt = n_mid if a == axis else self.shape[a]
            if a == axis:
                w1 = np.full(cnt, self.h[a])
            else:
                w1 = st.quad_weights_1d(self.shape[a], self.h[a], self.periodic[a])
            shape = [cnt if b == a else 1 for b in range(self.n)]
            w = w1.reshape(shape) if w is None else w * w1.reshape(shape)
        return w

    @cached_property
    def cell_c(self):
        """Coefficients of the staggered Dirichlet energy form, one array per
        axis on that axis's midpoint grid: cell weight x vol x g^aa.

        Every operator paired under the cell quadrature (the energy matrix,
        the adjoint codifferential, the cell inner product, the Green
        preconditioners) reads them from here.
        """
        if not self.is_diagonal:
            raise BadGeometry("the staggered energy form needs a diagonal metric")
        out = []
        for ax in range(self.n):
            g = self.metric_at(self.mid_coords(ax))
            # diagonal metric: g^aa is the reciprocal of g_aa
            out.append(self.cell_weights(ax) * np.sqrt(np.linalg.det(g)) * (1.0 / g[..., ax, ax]))
        return out

    def mesh(self, sparse=False):
        return np.meshgrid(*self.coords, indexing="ij", sparse=sparse)

    @cached_property
    def is_tangentially_uniform(self):
        """True when g is constant along every tangential axis, at the nodes
        and at the midpoints of every axis.

        The flat energy matrix is then separable: circulant along the
        tangential axes with coefficients that depend on the normal node only.
        """
        t0 = (0,) * (self.n - 1)
        samples = itertools.chain(
            [self.g], (self.metric_at(self.mid_coords(ax)) for ax in range(self.n))
        )
        return all(float(np.max(np.abs(g - g[t0]))) <= _TYPE_TOL for g in samples)

    # -- boundary helpers ----------------------------------------------------

    def face_slice(self, face):
        sl = [slice(None)] * self.n
        sl[-1] = 0 if face.side == 0 else -1
        return tuple(sl)

    @property
    def tangential_shape(self):
        return self.shape[:-1]

    def interior_slice(self):
        sl = [slice(None)] * self.n
        sl[-1] = slice(1, -1)
        return tuple(sl)

    def __repr__(self):
        return f"Chart({self.kind}, shape={self.shape})"


def same_chart(a, b):
    if a is b:
        return True
    return getattr(a, "key", None) == getattr(b, "key", None)


def require_same_chart(a, b):
    if not same_chart(a, b):
        raise ChartMismatch(f"fields live on different charts: {a} vs {b}")


# ---------------------------------------------------------------------------
# boundary fields
# ---------------------------------------------------------------------------

class BoundaryField:
    """Values attached to the boundary node set, stored per face."""

    def __init__(self, chart, values):
        self.chart = chart
        self.values = {int(side): np.asarray(v, dtype=float) for side, v in values.items()}
        for v in self.values.values():
            if v.shape[: chart.n - 1] != chart.tangential_shape:
                raise BadGeometry("boundary values must match the face grid")

    @classmethod
    def zeros(cls, chart, depth=()):
        return cls(chart, {f.side: np.zeros(chart.tangential_shape + depth) for f in chart.faces})

    def sup(self):
        return max(float(np.max(np.abs(v))) if v.size else 0.0 for v in self.values.values())

    def map(self, fn):
        return BoundaryField(self.chart, {s: fn(v) for s, v in self.values.items()})

    def _binary(self, other, fn):
        if isinstance(other, BoundaryField):
            require_same_chart(self.chart, other.chart)
            return BoundaryField(
                self.chart, {s: fn(v, other.values[s]) for s, v in self.values.items()}
            )
        return BoundaryField(self.chart, {s: fn(v, other) for s, v in self.values.items()})

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------

def _metric_annulus(mesh):
    theta, r = mesh
    shape = np.broadcast(theta, r).shape
    g = np.zeros(shape + (2, 2))
    g[..., 0, 0] = r**2
    g[..., 1, 1] = 1.0
    return g


def _metric_annulus_log(r0):
    def fn(mesh):
        theta, s = mesh
        r = r0 * np.exp(s)
        shape = np.broadcast(theta, s).shape
        g = np.zeros(shape + (2, 2))
        g[..., 0, 0] = r**2
        g[..., 1, 1] = r**2
        return g

    return fn


def _metric_identity(n):
    def fn(mesh):
        shape = np.broadcast(*mesh).shape if n > 1 else mesh[0].shape
        g = np.zeros(shape + (n, n))
        for i in range(n):
            g[..., i, i] = 1.0
        return g

    return fn


def _metric_shell(mesh):
    theta, z, r = mesh
    shape = np.broadcast(theta, z, r).shape
    g = np.zeros(shape + (3, 3))
    g[..., 0, 0] = r**2
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = 1.0
    return g


#: chart kinds `build_chart` constructs, and the short names it accepts
CHART_KINDS = ("annulus", "annulus_log", "periodic_slab", "cylindrical_shell", "custom")
CHART_ALIASES = {"slab": "periodic_slab", "shell": "cylindrical_shell"}


def build_chart(kind, shape, **params):
    """Construct a built-in or custom chart.

    Built-ins: "annulus" (r0, r1), "periodic_slab" (length, height),
    "cylindrical_shell" (r0, r1, length), "annulus_log" (r0, r1; same
    geometry as the annulus with normal coordinate s, r = r0*exp(s)).
    "custom" takes metric=callable(mesh)->(..., n, n), extents, periodic.
    """
    kind = CHART_ALIASES.get(kind, kind)
    shape = tuple(shape)
    n = len(shape)
    if kind == "annulus":
        r0 = float(params.get("r0", 0.5))
        r1 = float(params.get("r1", 1.0))
        if n != 2 or not (0 < r0 < r1):
            raise BadGeometry("annulus needs a 2d grid and 0 < r0 < r1")
        coords = [
            np.arange(shape[0]) * (2.0 * np.pi / shape[0]),
            np.linspace(r0, r1, shape[1]),
        ]
        return Chart(kind, shape, coords, [True, False], _metric_annulus,
                     {"r0": r0, "r1": r1})
    if kind == "annulus_log":
        r0 = float(params.get("r0", 0.5))
        r1 = float(params.get("r1", 1.0))
        if n != 2 or not (0 < r0 < r1):
            raise BadGeometry("annulus_log needs a 2d grid and 0 < r0 < r1")
        coords = [
            np.arange(shape[0]) * (2.0 * np.pi / shape[0]),
            np.linspace(0.0, np.log(r1 / r0), shape[1]),
        ]
        return Chart(kind, shape, coords, [True, False], _metric_annulus_log(r0),
                     {"r0": r0, "r1": r1})
    if kind == "periodic_slab":
        length = float(params.get("length", 2.0 * np.pi))
        height = float(params.get("height", 1.0))
        coords = [np.arange(shape[ax]) * (length / shape[ax]) for ax in range(n - 1)]
        coords.append(np.linspace(0.0, height, shape[-1]))
        return Chart(kind, shape, coords, [True] * (n - 1) + [False],
                     _metric_identity(n), {"length": length, "height": height})
    if kind == "cylindrical_shell":
        r0 = float(params.get("r0", 0.5))
        r1 = float(params.get("r1", 1.0))
        length = float(params.get("length", 2.0 * np.pi))
        if n != 3 or not (0 < r0 < r1):
            raise BadGeometry("cylindrical_shell needs a 3d grid and 0 < r0 < r1")
        coords = [
            np.arange(shape[0]) * (2.0 * np.pi / shape[0]),
            np.arange(shape[1]) * (length / shape[1]),
            np.linspace(r0, r1, shape[2]),
        ]
        return Chart(kind, shape, coords, [True, True, False], _metric_shell,
                     {"r0": r0, "r1": r1, "length": length})
    if kind == "custom":
        metric = params.get("metric")
        extents = params.get("extents")
        if not callable(metric):
            raise BadGeometry("a custom chart needs metric=callable(mesh)")
        if not isinstance(extents, (list, tuple)) or len(extents) != n or any(
            np.size(e) != 2 for e in extents
        ):
            raise BadGeometry(f"a custom chart needs one (lo, hi) extent per axis ({n})")
        periodic = list(params.get("periodic", [True] * (n - 1) + [False]))
        coords = []
        for ax in range(n):
            lo, hi = extents[ax]
            if periodic[ax]:
                coords.append(lo + np.arange(shape[ax]) * ((hi - lo) / shape[ax]))
            else:
                coords.append(np.linspace(lo, hi, shape[ax]))
        numeric = {k: v for k, v in params.items() if isinstance(v, (int, float))}
        return Chart(kind, shape, coords, periodic, metric, numeric)
    raise BadGeometry(f"unknown chart kind: {kind!r}")


# ---------------------------------------------------------------------------
# mean curvature and normals
# ---------------------------------------------------------------------------

def inward_normal(chart, face):
    """Contravariant components of the inward unit normal on a face."""
    gnn = chart.g[chart.face_slice(face)][..., -1, -1]
    nu = np.zeros(chart.tangential_shape + (chart.n,))
    nu[..., -1] = face.inward_sign / np.sqrt(gnn)
    return nu


def mean_curvature_typeA(chart):
    """Mean curvature per face from H = (1/(n-1)) d(vol)/dx_n / vol.

    Valid on charts whose normal coordinate is unit speed (type A); the
    derivative is taken toward the interior, so the sign flips on the far
    face automatically.
    """
    if not chart.is_type_a:
        raise NotTypeA("chart normal coordinate is not unit speed")
    values = {}
    for f in chart.faces:
        d = st.one_sided_deriv_at_face(chart.vol, chart.n - 1, chart.h[-1], f.side)
        a0 = chart.vol[chart.face_slice(f)]
        values[f.side] = f.inward_sign * d / a0 / (chart.n - 1)
    return BoundaryField(chart, values)


def mean_curvature_typeB(chart):
    """Mean curvature per face for charts with orthogonal normal direction.

    Uses H = (1/(n-1)) [ sqrt(g_nn) d(1/sqrt(g_nn))(nu) + d(vol)(nu)/vol ],
    which collapses to the normal log-derivative of the tangential volume
    factor; on unit-speed charts it agrees with the type A formula.
    """
    if not chart.is_type_b:
        raise NotTypeB("chart normal direction is not orthogonal to the faces")
    gnn = chart.g[..., -1, -1]
    sq = np.sqrt(gnn)
    values = {}
    ax = chart.n - 1
    for f in chart.faces:
        dinv = st.one_sided_deriv_at_face(1.0 / sq, ax, chart.h[-1], f.side)
        dvol = st.one_sided_deriv_at_face(chart.vol, ax, chart.h[-1], f.side)
        fs = chart.face_slice(f)
        sgn = f.inward_sign / sq[fs]
        term1 = sq[fs] * (sgn * dinv)
        term2 = (sgn * dvol) / chart.vol[fs]
        values[f.side] = (term1 + term2) / (chart.n - 1)
    return BoundaryField(chart, values)


def mean_curvature(chart):
    """Mean curvature by whichever formula the chart admits (A preferred)."""
    if chart.is_type_a:
        return mean_curvature_typeA(chart)
    return mean_curvature_typeB(chart)
