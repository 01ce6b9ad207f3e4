"""Configured verification suites with convergence studies and reports.

Every suite draws its randomness from the run seed, so a configuration
determines its report byte-for-byte. Single-grid suites check identities
and bounds at the configured resolution. Ladder suites refine the grid and
state their checks as rules over named series; `_ladder_checks` turns them
into checks and a "ladders" metrics block, which `emit_study` prints.

The two projections of a horizontal pair run at once, one on a worker
thread (`_project_pair`); they are independent solves, so the pair is bit
for bit what the two in turn give. That helper is the package's one home of
threads; suites run one after another.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import ALGEBRA_DIM, coeff_bracket
from .constructions import (
    band_profile,
    boundary_chart_inverse,
    bracket_boundary_identity_check,
    bracket_identity_check,
    full_decompose,
    generator_for_boundary_data,
    interior_inverse,
    kernel_class_potential,
)
from .coulomb import (
    GaugeTransformation,
    boundary_identity_residual,
    freeness_check,
    gauge_act,
    obstruction_report,
    small_loop_holonomy,
)
from .errors import ConfigError, GaugekitError, NoConvergence
from .fields import (
    OneForm,
    Section,
    check_dbc,
    l2_inner,
    l2_norm,
    random_smooth_field,
)
from .geometry import (
    CHART_ALIASES,
    CHART_KINDS,
    BoundaryField,
    build_chart,
    mean_curvature,
)
from .operators import (
    Connection,
    SolveInfo,
    _build_solve_caches,
    bracket_dot,
    codiff_A,
    d_A,
    d_A_cell,
    green_A,
    horizontal_project,
    laplacian_A,
    ritz_smallest,
)

ORDER_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_grid(text):
    """Parse --grid: '64x64' is one shape, '32,64,128' a refinement ladder.

    Returns {"grid": shape} for the explicit form, {"sizes": [n, ...]} for
    the comma form (per-axis sizes, expanded to the domain dimension later).
    """
    text = str(text).lower().strip()
    try:
        if "," in text:
            sizes = [int(p) for p in text.split(",")]
        elif "x" in text:
            parts = tuple(int(p) for p in text.split("x"))
            if len(parts) not in (2, 3) or any(p < 4 for p in parts):
                raise ConfigError(
                    f"grid {text!r} must be 2d or 3d with at least 4 nodes per axis"
                )
            return {"grid": parts}
        else:
            sizes = [int(text)]
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}; use e.g. 64x64 or 32,64,128")
    if any(s < 4 for s in sizes):
        raise ConfigError(f"grid {text!r} needs at least 4 nodes per axis")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"grid sizes {text!r} must be strictly increasing")
    return {"sizes": sizes}


def _is_int(v, least=None):
    if not isinstance(v, int) or isinstance(v, bool):
        return False
    return least is None or v >= least


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_shape(v):
    return (
        isinstance(v, (list, tuple))
        and len(v) in (2, 3)
        and all(_is_int(s, 4) for s in v)
    )


#: chart kinds a configuration can name: a "custom" chart needs a metric
#: callable, which no JSON value holds
_DOMAINS = tuple(k for k in CHART_KINDS if k != "custom") + tuple(CHART_ALIASES)

#: RunConfig field -> (check of its value, what the value must be); JSON
#: lists and the tuples the CLI passes are both accepted as sequences
_CONFIG_CHECKS = {
    "domain": (
        lambda v: isinstance(v, str) and v in _DOMAINS,
        f"one of {', '.join(_DOMAINS)}",
    ),
    "domain_params": (lambda v: isinstance(v, dict), "an object of chart parameters"),
    "grid": (_is_shape, "2 or 3 sizes >= 4"),
    "ladder": (
        lambda v: v is None
        or (
            isinstance(v, (list, tuple))
            and all(_is_int(s, 4) or _is_shape(s) for s in v)
        ),
        "null or a list of sizes >= 4 or of grid shapes",
    ),
    "seed": (_is_int, "an integer"),
    "solve_tol": (lambda v: _is_number(v) and 0 < v < math.inf, "a positive number"),
}


def _check_keys(values):
    for key in values:
        if key not in _CONFIG_CHECKS:
            raise ConfigError(f"unknown config key {key!r}")


@dataclass
class RunConfig:
    """One verification run: domain, base grid, seed, solver tolerance."""

    domain: str = "annulus"
    domain_params: dict = field(default_factory=dict)
    grid: tuple = (128, 128)
    ladder: list = None
    seed: int = 0
    solve_tol: float = 1e-10

    def __post_init__(self):
        self._update({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_json(cls, path):
        """The configuration in a JSON file; a file that cannot be read or
        parsed raises ConfigError."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read run configuration {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("a run configuration must be a JSON object")
        return cls()._update(raw)

    def with_overrides(self, **kw):
        """Copy with the given fields replaced; None leaves a field as it is."""
        _check_keys(kw)
        return RunConfig(**self.to_dict())._update(
            {k: v for k, v in kw.items() if v is not None}
        )

    def _update(self, values):
        """Set checked values in place: grids become tuples, ladders lists."""
        _check_keys(values)
        for key, val in values.items():
            valid, what = _CONFIG_CHECKS[key]
            if not valid(val):
                raise ConfigError(f"config key {key!r} must be {what}, not {val!r}")
            if key == "grid":
                val = tuple(val)
            if key == "ladder" and val is not None:
                val = [s if _is_int(s) else tuple(s) for s in val]
            setattr(self, key, val)
        self.ladder_shapes()
        return self

    def to_dict(self):
        return {
            "domain": self.domain,
            "domain_params": dict(self.domain_params),
            "grid": tuple(self.grid),
            "ladder": None
            if self.ladder is None
            else [s if np.isscalar(s) else tuple(s) for s in self.ladder],
            "seed": self.seed,
            "solve_tol": self.solve_tol,
        }

    def ladder_shapes(self):
        dim = len(self.grid)
        if self.ladder is not None:
            shapes = [
                (int(s),) * dim if np.isscalar(s) else tuple(s) for s in self.ladder
            ]
            if any(len(s) != dim for s in shapes):
                raise ConfigError(f"ladder grid shapes must have the grid's {dim} sizes")
            if any(b <= a for a, b in zip(shapes, shapes[1:])):
                raise ConfigError("ladder grid sizes must be strictly increasing")
            return shapes
        return _increasing(
            [tuple(max(8, g // div) for g in self.grid) for div in (4, 2, 1)]
        )


def _increasing(raw):
    """Drop the rungs that do not exceed their predecessor (small base grids
    collapse), keeping the ladder strictly increasing."""
    shapes = []
    for s in raw:
        if not shapes or s > shapes[-1]:
            shapes.append(s)
    return shapes


def _chart(cfg, shape=None):
    return build_chart(cfg.domain, tuple(shape or cfg.grid), **cfg.domain_params)


def _rand_connection(ch, seed, scale=0.3, **field_kw):
    return Connection(
        ch, random_smooth_field(ch, "oneform", seed, dbc=True, scale=scale, **field_kw)
    )


# ---------------------------------------------------------------------------
# checks and reports
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """One named number against its threshold."""

    name: str
    value: float
    threshold: float
    kind: str = "max"  # max: v <= t, min: v >= t, gt: v > t, lt: v < t

    def __post_init__(self):
        # numpy scalars would make `passed` a numpy bool, which JSON cannot hold
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    @property
    def passed(self):
        v, t = self.value, self.threshold
        if math.isnan(v):
            return False
        return {"max": v <= t, "min": v >= t, "gt": v > t, "lt": v < t}[self.kind]

    def to_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "kind": self.kind,
            "passed": self.passed,
        }


@dataclass
class SuiteResult:
    suite: str
    checks: list
    metrics: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "metrics": self.metrics,
        }


@dataclass
class Report:
    config: dict
    suites: list

    @property
    def passed(self):
        return all(s.passed for s in self.suites)

    def to_dict(self):
        return {
            "config": self.config,
            "passed": self.passed,
            "suites": [s.to_dict() for s in self.suites],
        }


def convergence_order(hs, errs):
    """Observed order from the finest ladder pair, floored at machine noise."""
    if len(errs) < 2:
        return float("nan")
    e1, e2 = errs[-2], errs[-1]
    h1, h2 = hs[-2], hs[-1]
    if e2 <= ORDER_FLOOR:
        return float("inf")
    if e1 <= ORDER_FLOOR or h1 <= h2:
        return float("nan")
    return math.log(e1 / e2) / math.log(h1 / h2)


def _monotone_ratio(values):
    """Largest consecutive ratio; < 1 means strictly decreasing. A NaN
    value gives NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    worst = 0.0
    for a, b in zip(values, values[1:]):
        worst = max(worst, b / a if a > 0 else float("inf"))
    return worst


#: the grid the absolute discretization bounds were calibrated on (annulus 128²)
_CALIBRATED = (128, 128)


class _Rule(namedtuple("_Rule", "name series stat reduce threshold kind calibrated",
                       defaults=("max", None))):
    """One ladder check: `stat` ("final", "order" or "monotone") of each
    member of `series`, reduced over the members by `reduce` (max, min or
    np.median), against `threshold` of `kind`. `calibrated`: the grid a
    discretization bound was calibrated on; None binds at every grid."""


def _ladder_checks(series, hs, grids, rules):
    """The checks of a ladder and its metrics block, from `_ladder`'s output.

    The statistics are each member's finest-rung value, finest-pair
    `convergence_order` or `_monotone_ratio`; a NaN statistic of any member
    makes the check's value NaN, which fails. A calibrated bound binds when
    the finest rung has the calibration grid's dimension and at least its
    node count on every axis; otherwise it is left out and listed under
    "not-binding". The block keeps every series (rungs x members) and each
    order check's per-member orders.
    """
    series = {
        k: np.asarray(v, dtype=float).reshape(len(hs), -1).tolist()
        for k, v in series.items()
    }
    block = {"grids": grids, "h": hs, "series": series, "orders": {},
             "not-binding": {}}
    checks = []
    for r in rules:
        cal, finest = r.calibrated, grids[-1]
        if cal and (len(finest) != len(cal) or any(g < c for g, c in zip(finest, cal))):
            block["not-binding"][r.name] = cal
            continue
        rows = series[r.series]
        if r.stat == "final":
            values = rows[-1]
        elif r.stat == "order":
            values = [convergence_order(hs, m) for m in zip(*rows)]
            block["orders"][r.name] = values
        else:
            values = [_monotone_ratio(m) for m in zip(*rows)]
        value = math.nan if any(math.isnan(v) for v in values) else r.reduce(values)
        checks.append(Check(r.name, value, r.threshold, r.kind))
    return checks, block


def _ladder(shapes, rung):
    """Measure every rung of a grid ladder.

    `rung(shape)` builds its chart, measures on it and returns `(chart,
    {name: value or member values})`; the largest step of that chart is the
    rung's h. Returns the named series, the steps and the shapes in ladder
    order.
    """
    series, hs, grids = {}, [], []
    for shape in shapes:
        ch, values = rung(shape)
        for name, value in values.items():
            series.setdefault(name, []).append(value)
        hs.append(max(ch.h))
        grids.append(shape)
        del ch  # otherwise this chart stays alive through the next rung
    return series, hs, grids


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

#: band-limit for identity-suite fields: tangential mode <= 1, quadratic
#: normal profile. Keeps truncation constants moderate on the 0.5-wide
#: normal extent while staying genuinely random per seed.
_GENTLE = {"modes": 1, "degree": 2}

N_IDENTITY_PAIRS = 5


def _project_pair(e1, e2, A, tol):
    """horizontal_project of both fields of a pair at once: the first on a
    worker thread, the second on this one. The solves are independent and
    each is computed as alone, so the pair is bit for bit the two projections
    in turn; numpy releases the GIL in their array loops. An error of the
    first projection is raised before one of the second, as in turn.
    `horizontal_project` is looked up at call time. What the projections
    cache on A and its chart is built here, before the worker starts, so
    that the two threads never both build it."""
    _build_solve_caches(A)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(horizontal_project, e1, A, tol=tol)
        try:
            second = horizontal_project(e2, A, tol=tol)
        except Exception:
            first.result()  # raises the first projection's error, if any
            raise
        return first.result(), second


def _identity_suite(cfg, general):
    """Residual ratios of the trace identity per rung, one member per pair."""

    def rung(shape):
        ch = _chart(cfg, shape)
        A = _rand_connection(ch, cfg.seed + 11, **_GENTLE)
        rats = []
        for p in range(N_IDENTITY_PAIRS):
            e1 = random_smooth_field(ch, "oneform", cfg.seed + 100 + 2 * p, **_GENTLE)
            e2 = random_smooth_field(ch, "oneform", cfg.seed + 101 + 2 * p, **_GENTLE)
            if not general:
                e1, e2 = _project_pair(e1, e2, A, cfg.solve_tol)
            rats.append(boundary_identity_residual(e1, e2, A, general=general).ratio)
            del e1, e2  # before the next pair is drawn
        return ch, {"ratio": rats}

    checks, block = _ladder_checks(*_ladder(cfg.ladder_shapes(), rung), [
        _Rule("median-order", "ratio", "order", np.median, 1.5, "min"),
        _Rule("monotone", "ratio", "monotone", max, 1.0, "lt"),
        _Rule("final-ratio", "ratio", "final", max, 1e-3, calibrated=_CALIBRATED),
    ])
    name = "general-identity" if general else "boundary-identity"
    return SuiteResult(name, checks, {"ladders": [block]})


def suite_boundary_identity(cfg):
    """Boundary trace identity for bracket products of horizontal pairs."""
    return _identity_suite(cfg, general=False)


def suite_general_identity(cfg):
    """Trace identity with codifferential source terms, arbitrary pairs."""
    return _identity_suite(cfg, general=True)


def suite_obstruction(cfg):
    """Near-cancellation of the obstruction trace on curvature values."""
    ch = _chart(cfg)
    checks = []
    metrics = {}
    cases = [
        ("flat", Connection.flat(ch)),
        ("generic", _rand_connection(ch, cfg.seed + 31, scale=0.25)),
    ]
    for label, A in cases:
        e1 = random_smooth_field(ch, "oneform", cfg.seed + 41)
        e2 = random_smooth_field(ch, "oneform", cfg.seed + 42)
        al, be = _project_pair(e1, e2, A, cfg.solve_tol)
        rep = obstruction_report(al, be, A, seed=cfg.seed + 7, solve_tol=cfg.solve_tol)
        checks.append(Check(f"{label}-curvature-ratio", rep.ratio_curvature, 2e-2))
        checks.append(Check(f"{label}-reference-ratio", rep.ratio_reference, 0.5, "min"))
        metrics[label] = {
            "ratio_curvature": rep.ratio_curvature,
            "ratio_reference": rep.ratio_reference,
            "sup_curvature": rep.sup_curvature,
        }
    return SuiteResult("obstruction", checks, metrics)


def _psi_variants(ch):
    """Three distinct tangential windows and algebra pairs for the profile."""
    theta0 = ch.coords[0][0]
    span = ch.shape[0] * ch.h[0]
    return [
        (dict(), (0, 1)),
        (dict(t_center=theta0 + 0.35 * span, t_width=0.18 * span, scale=0.6), (1, 2)),
        (dict(t_center=theta0 + 0.72 * span, t_width=0.45 * span, scale=1.4), (2, 0)),
    ]


def _inverse_shapes(cfg):
    """Window-inverse rungs: the band needs >= 3 layers, so the coarse rungs
    are floored at 48 nodes per axis instead of the default quarter grid."""
    if cfg.ladder is not None:
        return cfg.ladder_shapes()
    return _increasing([
        tuple(max(48, g // 2) for g in cfg.grid),
        tuple(max(64, (3 * g) // 4) for g in cfg.grid),
        tuple(cfg.grid),
    ])


def suite_chart_inverse(cfg):
    """Window inverses: exact product, dual-route convergence, horizontality."""
    families = ("boundary", "interior")

    def rung(shape):
        ch = _chart(cfg, shape)
        lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
        iv = (lo + 0.2 * (hi - lo), lo + 0.9 * (hi - lo))

        def numbers(w, window, pair):
            # an inverse's fields are dropped here, before the next is built
            if w == "boundary":
                psi = band_profile(ch, side=0, **window)
                res = boundary_chart_inverse(psi, side=0, pair=pair)
            else:
                psi = band_profile(ch, interval=iv, **window)
                res = interior_inverse(psi, iv, pair=pair)
            return {
                "product": res.product_residual,
                "route": res.route_difference,
                "codiff": max(res.horizontality_alpha, res.horizontality_beta),
                "dbc": max(check_dbc(res.alpha)[1], check_dbc(res.beta)[1]),
            }

        row = defaultdict(list)
        for w in families:
            for window, pair in _psi_variants(ch):
                for name, value in numbers(w, window, pair).items():
                    row[f"{w}-{name}"].append(value)
        return ch, row

    checks, block = _ladder_checks(*_ladder(_inverse_shapes(cfg), rung), [
        rule for w in families for rule in (
            _Rule(f"{w}-product", f"{w}-product", "final", max, 1e-3),
            _Rule(f"{w}-product-order", f"{w}-product", "order", min, 1.5, "min"),
            _Rule(f"{w}-dbc", f"{w}-dbc", "final", max, 1e-12),
            _Rule(f"{w}-route-order", f"{w}-route", "order", min, 1.5, "min"),
            _Rule(f"{w}-route-monotone", f"{w}-route", "monotone", max, 1.0, "lt"),
            _Rule(f"{w}-codiff-order", f"{w}-codiff", "order", min, 1.5, "min"),
        )
    ])
    return SuiteResult("chart-inverse", checks, {"ladders": [block]})


def make_boundary_target(ch, side, seed):
    """Smooth periodic face data of sup norm 1, resolution-consistent for a
    fixed seed."""
    rng = np.random.default_rng(seed)
    theta = ch.coords[0]
    span = ch.shape[0] * ch.h[0]
    vals = np.zeros(ch.tangential_shape + (ALGEBRA_DIM,))
    for d in range(ALGEBRA_DIM):
        prof = np.zeros_like(theta)
        for m in range(1, 4):
            a, b = rng.standard_normal(2) / m**2
            prof += a * np.cos(2 * np.pi * m * theta / span) + b * np.sin(
                2 * np.pi * m * theta / span
            )
        vals[..., d] = prof
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        vals *= 1.0 / peak
    values = {f.side: np.zeros_like(vals) for f in ch.faces}
    values[side] = vals
    return BoundaryField(ch, values)


def suite_generator(cfg):
    """Commutator pairs realize prescribed face data, improving with h."""

    def rung(shape):
        ch = _chart(cfg, shape)
        target = make_boundary_target(ch, 0, cfg.seed + 55)
        gen = generator_for_boundary_data(target, side=0, solve_tol=cfg.solve_tol)
        return ch, {"residual": gen.residual, "hopf-min": gen.hopf_min}

    checks, block = _ladder_checks(*_ladder(cfg.ladder_shapes(), rung), [
        _Rule("residual", "residual", "final", max, 5e-2, calibrated=_CALIBRATED),
        _Rule("monotone", "residual", "monotone", max, 1.0, "lt"),
        _Rule("hopf-min", "hopf-min", "final", max, 0.0, "gt"),
    ])
    return SuiteResult("generator", checks, {"ladders": [block]})


def suite_full_decompose(cfg):
    """End-to-end decomposition certificates on three random targets."""

    def rung(shape):
        ch = _chart(cfg, shape)
        residuals = []
        for t in range(3):
            u = random_smooth_field(ch, "section", cfg.seed + 100 + t)
            # the coarse rungs carry a large first-stage trace residual into
            # the kernel stage; the certificate itself is the pass criterion
            cert = full_decompose(u, kernel_gate=0.9, solve_tol=cfg.solve_tol)
            residuals.append(cert.residual)
        # the monotone check reads the worst target per rung, not each target
        return ch, {"residual": residuals, "worst": max(residuals)}

    checks, block = _ladder_checks(*_ladder(cfg.ladder_shapes(), rung), [
        _Rule("residual", "worst", "final", max, 5e-2, calibrated=_CALIBRATED),
        _Rule("monotone", "worst", "monotone", max, 1.0, "lt"),
    ])
    return SuiteResult("full-decompose", checks, {"ladders": [block]})


def suite_bracket_identity(cfg):
    """Laplacian product rule on brackets plus its boundary-trace form."""

    def rung(shape):
        ch = _chart(cfg, shape)
        g1 = random_smooth_field(ch, "section", cfg.seed + 61, **_GENTLE)
        g2 = random_smooth_field(ch, "section", cfg.seed + 62, **_GENTLE)
        ratio = bracket_identity_check(g1, g2).ratio
        k1, f1 = kernel_class_potential(ch, cfg.seed + 63, solve_tol=cfg.solve_tol)
        k2, f2 = kernel_class_potential(ch, cfg.seed + 64, solve_tol=cfg.solve_tol)
        boundary = bracket_boundary_identity_check(k1, f1, k2, f2).ratio
        return ch, {"interior": ratio, "boundary": boundary}

    checks, block = _ladder_checks(*_ladder(cfg.ladder_shapes(), rung), [
        rule for part in ("interior", "boundary") for rule in (
            _Rule(f"{part}-ratio", part, "final", max, 5e-3, calibrated=_CALIBRATED),
            _Rule(f"{part}-order", part, "order", min, 1.5, "min"),
        )
    ])
    return SuiteResult("bracket-identity", checks, {"ladders": [block]})


def _planar_ladder(cfg):
    """The run's ladder for the suites that measure on annulus charts
    whatever the run's domain; a 3d run gets the named 32, 64, 128 ladder."""
    return cfg.ladder_shapes() if len(cfg.grid) == 2 else [(32, 32), (64, 64), (128, 128)]


def suite_mean_curvature(cfg):
    """Face curvature against closed forms; one formula in two coordinates."""
    # 128 radial nodes: the named grid for the closed-form comparison
    ch = build_chart("annulus", (64, 128))
    H = mean_curvature(ch)
    r0, r1 = ch.coords[1][0], ch.coords[1][-1]
    err_a = max(
        float(np.max(np.abs(H.values[0] - 1.0 / r0))),
        float(np.max(np.abs(H.values[1] + 1.0 / r1))),
    )

    slab = build_chart("periodic_slab", (32, 32))
    Hz = mean_curvature(slab)
    err_z = max(float(np.max(np.abs(v))) for v in Hz.values.values())

    sh = build_chart("cylindrical_shell", (12, 12, 16))
    Hs = mean_curvature(sh)
    s0, s1 = sh.coords[2][0], sh.coords[2][-1]
    err_s = max(
        float(np.max(np.abs(Hs.values[0] - 0.5 / s0))),
        float(np.max(np.abs(Hs.values[1] + 0.5 / s1))),
    )

    # type agreement: one formula in two coordinates. On the unit-speed
    # radial chart the volume factor is linear, so its face values are exact
    # and serve as the reference for the values on the log-radial chart of
    # the same geometry, whose normal coordinate is not unit speed.
    def rung(shape):
        chb = build_chart("annulus_log", shape)
        Ha = mean_curvature(build_chart("annulus", shape))
        Hb = mean_curvature(chb)
        return chb, {"agreement": max(
            float(np.max(np.abs(Hb.values[0] - Ha.values[0]))),
            float(np.max(np.abs(Hb.values[1] - Ha.values[1]))),
        )}

    ladder_checks, block = _ladder_checks(*_ladder(_planar_ladder(cfg), rung), [
        _Rule("type-agreement", "agreement", "final", max, 1e-3, calibrated=_CALIBRATED),
        _Rule("type-agreement-order", "agreement", "order", min, 1.5, "min"),
    ])
    checks = [
        Check("annulus-analytic", err_a, 1e-3),
        Check("slab-zero", err_z, 1e-14),
        Check("shell-analytic", err_s, 1e-12),
        *ladder_checks,
    ]
    metrics = {"annulus": err_a, "slab": err_z, "shell": err_s, "ladders": [block]}
    return SuiteResult("mean-curvature", checks, metrics)


def _mms_annulus(shape, k=3):
    """Manufactured Dirichlet solution and its source on the annulus."""
    ch = build_chart("annulus", shape)
    th, r = ch.mesh()
    r0, r1 = ch.coords[1][0], ch.coords[1][-1]
    L = r1 - r0
    s = (r - r0) / L
    u = np.sin(np.pi * s) * np.cos(k * th)
    f = (k**2 / r**2 + (np.pi / L) ** 2) * u - (np.pi / (L * r)) * np.cos(
        np.pi * s
    ) * np.cos(k * th)
    usec = Section(ch, np.stack([u, 0 * u, 0 * u], axis=-1))
    fsec = Section(ch, np.stack([f, 0 * f, 0 * f], axis=-1))
    return ch, usec, fsec


def suite_elliptic_core(cfg):
    """Energy form: adjointness, positivity, manufactured-solution order,
    solver convergence, eigenvalue stability, expansion identity order."""
    ch = _chart(cfg)
    worst_adj = 0.0
    min_ray = float("inf")
    for A in (Connection.flat(ch), _rand_connection(ch, cfg.seed + 51)):
        for k in range(100):
            f = random_smooth_field(ch, "section", cfg.seed + 200 + k)
            g = random_smooth_field(ch, "section", cfg.seed + 300 + k)
            ef, eg = d_A_cell(f, A), d_A_cell(g, A)
            ip1 = l2_inner(ef, eg, "cell")
            ip2 = l2_inner(f, codiff_A(eg, A, form="adjoint"))
            worst_adj = max(worst_adj, abs(ip1 - ip2) / max(abs(ip1), 1e-30))
            min_ray = min(min_ray, l2_inner(ef, ef, "cell") / l2_inner(f, f))

    def mms_rung(shape):
        chm, usec, fsec = _mms_annulus(shape)
        info = SolveInfo()
        sol = green_A(fsec, tol=cfg.solve_tol, info=info)
        err = l2_norm(sol - usec) / l2_norm(usec)
        return chm, {"mms": err, "cg-residual": info.residual}

    mms_checks, mms_block = _ladder_checks(*_ladder(_planar_ladder(cfg), mms_rung), [
        _Rule("mms-order", "mms", "order", min, 1.5, "min"),
        _Rule("cg-residual", "cg-residual", "final", max, cfg.solve_tol),
    ])

    def domain_rung(shape):
        chx = _chart(cfg, shape)
        # the drift budget is 5e-2, so 1e-6 on the eigenvalue and 1e-8 on
        # the inner solves leave the measurement discretization-dominated
        lam, _ = ritz_smallest(Connection.flat(chx), tol=1e-6, solve_tol=1e-8)
        Ax = _rand_connection(chx, cfg.seed + 51)
        fx = random_smooth_field(chx, "section", cfg.seed + 71)
        lhs = laplacian_A(fx, Ax, form="adjoint")
        rhs = _expansion_rhs(fx, Ax)
        ii = chx.interior_slice()
        num = float(np.max(np.abs(lhs.data[ii] - rhs.data[ii])))
        den = max(float(np.max(np.abs(lhs.data[ii]))), 1e-30)
        return chx, {"lambda-min": lam, "expansion": num / den}

    series, hs, grids = _ladder(cfg.ladder_shapes(), domain_rung)
    lams = series["lambda-min"]
    drift = max(abs(l - lams[-1]) / abs(lams[-1]) for l in lams)
    rule = _Rule("expansion-order", "expansion", "order", min, 1.5, "min")
    exp_checks, block = _ladder_checks(series, hs, grids, [rule])
    checks = [
        Check("adjointness", worst_adj, 1e-12),
        Check("positivity", min_ray, 0.0, "gt"),
        *mms_checks,
        Check("eigenvalue-drift", drift, 5e-2),
        *exp_checks,
    ]
    metrics = {
        "adjointness": worst_adj,
        "rayleigh_min": min_ray,
        "drift": drift,
        "ladders": [mms_block, block],
    }
    return SuiteResult("elliptic-core", checks, metrics)


def _expansion_rhs(f, A):
    """Flat Laplacian plus the three connection correction terms."""
    ch = f.chart
    h = A.perturbation()
    base = laplacian_A(f, None, form="adjoint")
    dstar_h = codiff_A(h, None, form="pointwise")
    term1 = coeff_bracket(dstar_h.data, f.data)
    hf = OneForm(ch, coeff_bracket(h.data, f.data[..., None, :]))
    term2 = bracket_dot(h, hf).data
    term3 = bracket_dot(h, d_A(f, None)).data
    return Section(ch, base.data + term1 - term2 - 2.0 * term3)


def suite_gauge(cfg):
    """Gauge cocycle, inverse, Dirichlet preservation, and freeness margin."""
    ch = _chart(cfg)
    A = _rand_connection(ch, cfg.seed + 71)
    f1 = random_smooth_field(ch, "section", cfg.seed + 72, scale=0.4)
    f2 = random_smooth_field(ch, "section", cfg.seed + 73, scale=0.4)
    g1 = GaugeTransformation.from_section(f1)
    g2 = GaugeTransformation.from_section(f2)

    A1 = gauge_act(gauge_act(A, g1), g2)
    A2 = gauge_act(A, g1 * g2)
    scale = max(A1.eta.sup(), 1e-30)
    cocycle = float(np.max(np.abs(A1.eta.data - A2.eta.data))) / scale

    back = gauge_act(gauge_act(A, g1), g1.inverse())
    inv_err = float(np.max(np.abs(back.eta.data - A.eta.data))) / max(A.eta.sup(), 1e-30)

    _, dbc_err = check_dbc(A1.eta)
    fr = freeness_check(A, n_seeds=20, seed0=cfg.seed + 1000)

    checks = [
        Check("cocycle", cocycle, 1e-12),
        Check("inverse", inv_err, 1e-12),
        Check("dbc-preserved", dbc_err, 1e-10),
        Check("freeness-margin", fr.min_margin, 0.0, "gt"),
    ]
    metrics = {
        "cocycle": cocycle,
        "inverse": inv_err,
        "dbc": dbc_err,
        "freeness_min_margin": fr.min_margin,
    }
    return SuiteResult("gauge", checks, metrics)


def suite_holonomy(cfg):
    """Loop transport defect: quadratic area law and curvature alignment.

    Sweeps loop sizes k and 2k cells; the area-law ratio is checked on each
    doubling and the curvature alignment on the two smallest loop sizes.
    """
    ch = _chart(cfg)
    A = _rand_connection(ch, cfg.seed + 81, scale=0.4)
    checks = []
    metrics = {}
    for probe in small_loop_holonomy(A, k=(2, 4)):
        k = probe.k
        checks += [
            Check(f"area-law-low-k{k}", probe.ratio, 3.6, "min"),
            Check(f"area-law-high-k{k}", probe.ratio, 4.4),
            Check(f"alignment-k{k}", probe.cosine, 0.99, "min"),
        ]
        metrics[f"k{k}"] = {
            "ratio": probe.ratio,
            "cosine": probe.cosine,
            "sign": probe.sign,
            "defect_small": probe.defect_small,
            "defect_large": probe.defect_large,
            "scale_const": probe.scale_const,
        }
    return SuiteResult("holonomy", checks, metrics)


SUITES = {
    "boundary-identity": suite_boundary_identity,
    "general-identity": suite_general_identity,
    "obstruction": suite_obstruction,
    "chart-inverse": suite_chart_inverse,
    "generator": suite_generator,
    "full-decompose": suite_full_decompose,
    "bracket-identity": suite_bracket_identity,
    "mean-curvature": suite_mean_curvature,
    "elliptic-core": suite_elliptic_core,
    "gauge": suite_gauge,
    "holonomy": suite_holonomy,
}


def _resolve_suite(name):
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    return name


def run_suite(name, cfg):
    """Run one suite without letting its failure abort the run.

    A Green solve that hits its iteration cap becomes a failed `solve` check;
    any other package error raised inside the suite becomes a failed `error`
    check naming it. A malformed configuration still propagates
    (`ConfigError`).
    """
    name = _resolve_suite(name)
    try:
        return SUITES[name](cfg)
    except NoConvergence as exc:
        return SuiteResult(
            name,
            [Check("solve", exc.residual, cfg.solve_tol)],
            {"iterations": exc.iterations, "residual": exc.residual},
        )
    except ConfigError:
        raise
    except GaugekitError as exc:
        return SuiteResult(
            name,
            [Check("error", 1.0, 0.0)],
            {"error": type(exc).__name__, "message": str(exc)},
        )


def run_all(cfg, names=None):
    names = list(SUITES) if names is None else [_resolve_suite(n) for n in names]
    return Report(cfg.to_dict(), [run_suite(n, cfg) for n in names])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _shape(grid):
    return "x".join(str(g) for g in grid)


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def emit_report(report, fmt="text"):
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True, default=str) + "\n"
    if fmt == "text":
        lines = []
        cfgd = report.config
        lines.append(
            f"domain={cfgd['domain']} grid={_shape(cfgd['grid'])} "
            f"seed={cfgd['seed']}"
        )
        for s in report.suites:
            mark = "PASS" if s.passed else "FAIL"
            lines.append(f"[{mark}] {s.suite}")
            for c in s.checks:
                lines += _check_lines(s, c)
        lines.append("ALL PASS" if report.passed else "FAILURES PRESENT")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def _check_lines(s, c):
    """The text lines of the check c of the suite result s: its verdict,
    value and bound, then the error that a failed `error` check names."""
    cm = "pass" if c.passed else "FAIL"
    rel = {"max": "<=", "min": ">=", "gt": ">", "lt": "<"}[c.kind]
    lines = [f"    {cm:4s} {c.name}: {_fmt(c.value)} {rel} {_fmt(c.threshold)}"]
    if c.name == "error" and not c.passed:
        lines.append(f"         {s.metrics['error']}: {s.metrics['message']}")
    return lines


def emit_study(report):
    """Convergence tables: every series of each ladder in a report, one row
    per rung and one column per member, then the values of the ladder's order
    checks and the calibrated bounds that do not bind on it. A suite that
    stopped at a failed `error` or `solve` check gets that check's lines of
    the text report instead."""
    lines = []
    for s in report.suites:
        for c in s.checks:
            if c.name in ("error", "solve") and not c.passed:
                lines += [f"# {s.suite}", *_check_lines(s, c), ""]
        value = {c.name: c.value for c in s.checks}
        for ladder in s.metrics.get("ladders", ()):
            lines.append(f"# {s.suite}")
            for name, rows in ladder["series"].items():
                cols = "  ".join(f"{name}[{i}]".rjust(24) for i in range(len(rows[0])))
                lines.append("grid       h            " + cols)
                lines += [
                    f"{_shape(g):10s} {_fmt(h):12.12s} "
                    + "  ".join(f"{_fmt(v):>24.24s}" for v in row)
                    for g, h, row in zip(ladder["grids"], ladder["h"], rows)
                ]
            lines += [f"order[{n}] = {_fmt(value[n])}" for n in ladder["orders"]]
            lines += [
                f"{n}: not binding (calibrated at {_shape(g)})"
                for n, g in ladder["not-binding"].items()
            ]
            lines.append("")
    return "\n".join(lines) + "\n"

