"""Charts on logically rectangular grids, boundary faces, and the face layer.

A chart covers a bounded domain with one grid: every axis except the last is
tangential and periodic, the last axis is the normal direction and carries
the two boundary faces at its end nodes. Metric data is sampled from an
analytic generator where available so cell-midpoint values are exact.

The face layer is the geometry every boundary evaluation rests on: the
inward unit normal nu = inward_sign / sqrt(g_nn) d/dx_n of a diagonal
metric, applied to face values by `along_normal` and to a field's one-sided
normal derivative by `normal_derivative`, and the mean curvature H of each
face, one formula on every chart. `Chart.face_rows` indexes a face's layers.

The chart's arrays are read-only. One that repeats exactly along the
tangential axes, as every built-in chart's metric data does, is stored as
its normal profile: one normal row broadcast over the tangential axes (zero
tangential strides), with the full grid's shape.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _stencils as st
from .errors import BadGeometry, ChartMismatch

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
    """Grid, coordinates, and metric samples for one domain chart.

    The metric is diagonal (orthogonal coordinates), and the chart stores
    only its diagonal: `g` holds g_ii at the nodes, shape `shape + (n,)`,
    and `ginv` holds g^ii = 1/g_ii. Metric contractions are broadcasts
    against them; `vol` is sqrt(det g).

    `g`, `ginv`, `vol`, `quad_w` and `padded_cell_c` (so also `cell_c`) are
    read-only views. Each one that repeats exactly along the tangential axes
    holds one normal row of data (`_profile`); a custom metric that varies
    tangentially keeps them dense. Every value is computed on the rows it
    is stored on, elementwise as on the whole grid.
    """

    def __init__(self, kind, shape, coords, periodic, metric_fn, params=None):
        self.kind = kind
        self.shape = _grid_shape(shape)
        self.n = len(self.shape)
        self.coords = [np.asarray(c, dtype=float) for c in coords]
        self.periodic = list(periodic)
        if self.periodic[-1] or not all(self.periodic[:-1]):
            raise BadGeometry("tangential axes must be periodic, normal axis bounded")
        for ax, c in enumerate(self.coords):
            if c.shape != (self.shape[ax],):
                raise BadGeometry("coordinate array lengths must match the grid shape")
        self.h = [float(c[1] - c[0]) for c in self.coords]
        if not all(math.isfinite(h) and h > 0 for h in self.h):
            raise BadGeometry(f"grid steps must be finite and positive, not {self.h}")
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

        full = self.metric_at(self.coords)
        if full.shape != self.shape + (self.n, self.n):
            raise BadGeometry("metric generator returned the wrong shape")
        full = _profile(full, self.n)
        diag = _diagonal_of(full, self.n)
        self.g = self._on_grid(diag.copy())
        self.ginv = self._on_grid(1.0 / diag)
        self.vol = self._on_grid(_sqrt_det(full))
        self.is_type_a = bool(np.max(np.abs(diag[..., -1] - 1.0)) <= _TYPE_TOL)

        # node quadrature weights (product trapezoid/periodic rule)
        w = np.ones(self.shape)
        for ax in range(self.n):
            w1 = st.quad_weights_1d(self.shape[ax], self.h[ax], self.periodic[ax])
            w = w * w1.reshape([-1 if a == ax else 1 for a in range(self.n)])
        self.quad_w = self._on_grid(_profile(w, self.n))
        # Thomas pivots of the flat separable Green solve and the inverse
        # Jacobi diagonal of the others (operators.green_A)
        self._separable = None
        self._jacobi = None

    # -- construction helpers ------------------------------------------------

    def _on_grid(self, a):
        """`a` (a profile or a whole-grid array) as a read-only array with
        the grid's shape in front."""
        return np.broadcast_to(a, self.shape + a.shape[self.n:])

    def metric_at(self, axes_coords):
        mesh = np.meshgrid(*axes_coords, indexing="ij")
        return np.asarray(self.metric_fn(mesh), dtype=float)

    def _mid_metric(self, axis):
        """The metric at one axis's midpoints, checked as at the nodes, as a
        profile (`_profile`), and its largest deviation along the tangential
        axes."""
        full = self.metric_at(self.mid_coords(axis))
        _diagonal_of(full, self.n)
        g = _profile(full, self.n)
        # samples cut to a profile repeat exactly along the tangential axes
        return g, (0.0 if g is not full else _tangential_spread(full, self.n))

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
        preconditioners) reads them from here; the bounded axis's array is a
        view of `padded_cell_c`.
        """
        return [c if p else c[..., :-1] for c, p in zip(self.padded_cell_c, self.periodic)]

    @cached_property
    def padded_cell_c(self):
        """`cell_c` node-shaped: the bounded axis ends in a zero pad, which
        clears the pad of a midpoint buffer (`_stencils._pair`) it scales.

        Sampling each axis's midpoint metric here also records its largest
        deviation along the tangential axes, which `is_tangentially_uniform`
        reads, so the metric is sampled once per axis."""
        out, spreads = [], []
        for ax in range(self.n):
            g, spread = self._mid_metric(ax)
            spreads.append(spread)
            # g^aa is the reciprocal of g_aa
            c = _profile(self.cell_weights(ax) * _sqrt_det(g) * (1.0 / g[..., ax, ax]), self.n)
            pad = [(0, 0)] * (self.n - 1) + [(0, 1 - self.periodic[ax])]
            out.append(self._on_grid(np.pad(c, pad)))
        # set whole, before the coefficients are: another thread may read it
        self._mid_spread = spreads
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
        if _tangential_spread(self.g, self.n) > _TYPE_TOL:
            return False
        self.padded_cell_c  # samples the midpoint metrics, recording _mid_spread
        return all(d <= _TYPE_TOL for d in self._mid_spread)

    # -- boundary helpers ----------------------------------------------------

    def face_slice(self, face):
        sl = [slice(None)] * self.n
        sl[-1] = 0 if face.side == 0 else -1
        return tuple(sl)

    def face_rows(self, face, k):
        """Index of the k >= 1 normal layers nearest `face`, in array order,
        of the whole grid or of a slab of layers at that face."""
        sl = [slice(None)] * self.n
        sl[-1] = slice(0, k) if face.side == 0 else slice(-k, None)
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


def _diagonal_of(full, n):
    """The diagonal (a view) of metric samples (..., n, n) that are finite,
    diagonal within _TYPE_TOL and positive on the diagonal; BadGeometry
    otherwise."""
    if not np.all(np.isfinite(full)):
        raise BadGeometry("metric entries must be finite")
    off = max(float(np.max(np.abs(full[..., i, j])))
              for i in range(n) for j in range(n) if i != j)
    if off > _TYPE_TOL:
        raise BadGeometry(f"metric must be diagonal: off-diagonal entry {off:.3e}")
    diag = np.diagonal(full, axis1=-2, axis2=-1)
    if np.any(diag <= 0):
        raise BadGeometry("metric diagonal entries must be positive")
    return diag


def _tangential_spread(a, n):
    """Largest deviation of `a`, whose first n axes are grid axes with the
    normal one last, from its first tangential row."""
    return float(np.max(np.abs(a - a[(0,) * (n - 1)])))


def _profile(a, n):
    """`a`, whose first n axes are grid axes with the normal one last, cut
    to length 1 along the n - 1 tangential axes when it repeats exactly
    along them (a copy of its first row); `a` itself otherwise."""
    row = a[(slice(0, 1),) * (n - 1)]
    return row.copy() if np.array_equal(a, np.broadcast_to(row, a.shape)) else a


def _sqrt_det(full):
    """sqrt(det g) of metric samples (*shape, n, n), the chart's volume
    factor, by LAPACK's LU determinant.

    It is not the product of the diagonal: the LU determinant differs from
    it by an ulp on a few percent of the nodes, and the Jacobi-CG
    trajectories of connected solves amplify field changes that small into
    reported figures. The chart passes its samples as a profile
    (`_profile`) whenever they repeat along the tangential axes, so the
    determinant is taken once per normal row.
    """
    return np.sqrt(np.linalg.det(full))


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

    def sup(self):
        return max(float(np.max(np.abs(v))) if v.size else 0.0 for v in self.values.values())

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


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------

def _diagonal_metric(mesh, *diag):
    """The (..., n, n) metric on a mesh with the given diagonal entries."""
    g = np.zeros(np.broadcast(*mesh).shape + (len(diag),) * 2)
    for i, d in enumerate(diag):
        g[..., i, i] = d
    return g


def _metric_annulus(mesh):
    return _diagonal_metric(mesh, mesh[1] ** 2, 1.0)


def _metric_annulus_log(r0):
    return lambda mesh: _diagonal_metric(mesh, *[(r0 * np.exp(mesh[1])) ** 2] * 2)


def _metric_identity(n):
    return lambda mesh: _diagonal_metric(mesh, *[1.0] * n)


def _metric_shell(mesh):
    return _diagonal_metric(mesh, mesh[2] ** 2, 1.0, 1.0)


#: the parameters each chart kind reads, with the built-in kinds' defaults
_KIND_PARAMS = {
    "annulus": {"r0": 0.5, "r1": 1.0},
    "annulus_log": {"r0": 0.5, "r1": 1.0},
    "periodic_slab": {"length": 2.0 * np.pi, "height": 1.0},
    "cylindrical_shell": {"r0": 0.5, "r1": 1.0, "length": 2.0 * np.pi},
    "custom": {"metric": None, "extents": None},
}
#: chart kinds `build_chart` constructs, and the short names it accepts
CHART_KINDS = tuple(_KIND_PARAMS)
CHART_ALIASES = {"slab": "periodic_slab", "shell": "cylindrical_shell"}


def _grid_shape(shape):
    """A chart's grid shape as a tuple of 2 or 3 integers >= 4."""
    try:
        shape = tuple(shape)
    except TypeError:
        raise BadGeometry(f"grid shape {shape!r} is not a sequence") from None
    if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in shape):
        raise BadGeometry(f"grid shape {shape!r} must hold integers")
    if len(shape) not in (2, 3):
        raise BadGeometry("charts support dimension 2 or 3")
    if any(s < 4 for s in shape):
        raise BadGeometry("need at least 4 nodes per axis for the stencils")
    return tuple(int(s) for s in shape)


def _number(value, name):
    """A chart parameter as a finite float."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise BadGeometry(f"chart parameter {name}={value!r} must be a finite number")
    return x


def build_chart(kind, shape, **params):
    """Construct a built-in or custom chart.

    Built-ins: "annulus" (r0, r1), "periodic_slab" (length, height),
    "cylindrical_shell" (r0, r1, length), "annulus_log" (r0, r1; same
    geometry as the annulus with normal coordinate s, r = r0*exp(s)).
    "custom" takes metric=callable(mesh)->(..., n, n) and extents (one
    (lo, hi) pair per axis); its tangential axes are periodic and its normal
    axis bounded. The custom metric must be diagonal, with finite entries
    and a positive diagonal, at the nodes and at every axis's midpoints:
    off-diagonal entries above 1e-12 are rejected (the midpoint samples when
    the chart first reads them), and the chart keeps only the diagonal.
    Every numeric parameter must convert to a finite float, and a parameter
    the kind does not read is refused; malformed input raises BadGeometry.
    """
    kind = CHART_ALIASES.get(kind, kind) if isinstance(kind, str) else kind
    shape = _grid_shape(shape)
    n = len(shape)
    if kind not in CHART_KINDS:
        raise BadGeometry(f"unknown chart kind: {kind!r}")
    accepted = _KIND_PARAMS[kind]
    for name in params:
        if name not in accepted:
            raise BadGeometry(
                f"chart parameter {name!r} is not read by {kind}, which takes "
                + ", ".join(accepted)
            )
    if kind == "custom":
        metric, extents = params.get("metric"), params.get("extents")
        periodic = [True] * (n - 1) + [False]
        if not callable(metric):
            raise BadGeometry("a custom chart needs metric=callable(mesh)")
        if not isinstance(extents, (list, tuple)) or len(extents) != n or any(
            np.size(e) != 2 for e in extents
        ):
            raise BadGeometry(f"a custom chart needs one (lo, hi) extent per axis ({n})")
        coords = []
        for ax in range(n):
            lo, hi = (_number(e, f"extents[{ax}]") for e in extents[ax])
            if periodic[ax]:
                coords.append(lo + np.arange(shape[ax]) * ((hi - lo) / shape[ax]))
            else:
                coords.append(np.linspace(lo, hi, shape[ax]))
        return Chart(kind, shape, coords, periodic, metric)
    p = {k: _number(params.get(k, d), k) for k, d in accepted.items()}
    r0, r1, length, height = (p.get(k) for k in ("r0", "r1", "length", "height"))
    if kind in ("annulus", "annulus_log"):
        if n != 2 or not (0 < r0 < r1):
            raise BadGeometry(f"{kind} needs a 2d grid and 0 < r0 < r1")
        normal = (np.linspace(r0, r1, shape[1]) if kind == "annulus"
                  else np.linspace(0.0, np.log(r1 / r0), shape[1]))
        coords = [np.arange(shape[0]) * (2.0 * np.pi / shape[0]), normal]
        metric = _metric_annulus if kind == "annulus" else _metric_annulus_log(r0)
        return Chart(kind, shape, coords, [True, False], metric, p)
    if kind == "periodic_slab":
        coords = [np.arange(shape[ax]) * (length / shape[ax]) for ax in range(n - 1)]
        coords.append(np.linspace(0.0, height, shape[-1]))
        return Chart(kind, shape, coords, [True] * (n - 1) + [False],
                     _metric_identity(n), p)
    if n != 3 or not (0 < r0 < r1):
        raise BadGeometry("cylindrical_shell needs a 3d grid and 0 < r0 < r1")
    coords = [
        np.arange(shape[0]) * (2.0 * np.pi / shape[0]),
        np.arange(shape[1]) * (length / shape[1]),
        np.linspace(r0, r1, shape[2]),
    ]
    return Chart(kind, shape, coords, [True, True, False], _metric_shell, p)


# ---------------------------------------------------------------------------
# the face layer: inward unit-normal derivatives and mean curvature
# ---------------------------------------------------------------------------

def along_normal(chart, face, values):
    """Face values paired with the inward unit normal's one contravariant
    component: inward_sign * values / sqrt(g_nn), broadcast over the
    values' trailing component axes."""
    root = np.sqrt(chart.g[chart.face_slice(face)][..., -1])
    return face.inward_sign * values / np.expand_dims(root, tuple(range(root.ndim, np.ndim(values))))


def normal_derivative(chart, data, face, order=2):
    """The inward unit-normal derivative d(data)(nu) on a face: the
    one-sided rule of the given order along the normal axis, then
    `along_normal`."""
    d = st.one_sided_deriv_at_face(data, chart.n - 1, chart.h[-1], face.side, order)
    return along_normal(chart, face, d)


def mean_curvature(chart):
    """Mean curvature per face; the normal direction is orthogonal to the
    faces on every (diagonal) chart.

    Uses H = (1/(n-1)) [ sqrt(g_nn) d(1/sqrt(g_nn))(nu) + d(vol)(nu)/vol ],
    which collapses to the normal log-derivative of the tangential volume
    factor; on a unit-speed normal coordinate the first term vanishes. The
    metric is read on the `st.END_ROW_FOOTPRINT` normal layers at each
    face, the footprint of the one-sided rule, so no whole-grid array is
    formed.
    """
    ax = chart.n - 1
    values = {}
    for f in chart.faces:
        rows = chart.face_rows(f, st.END_ROW_FOOTPRINT)
        sq = np.sqrt(chart.g[rows][..., -1])
        vol = chart.vol[rows]
        dinv = st.one_sided_deriv_at_face(1.0 / sq, ax, chart.h[-1], f.side)
        dvol = st.one_sided_deriv_at_face(vol, ax, chart.h[-1], f.side)
        fs = chart.face_slice(f)
        sgn = f.inward_sign / sq[fs]
        values[f.side] = (sq[fs] * (sgn * dinv) + (sgn * dvol) / vol[fs]) / (chart.n - 1)
    return BoundaryField(chart, values)
