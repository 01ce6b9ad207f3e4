"""Fields: inner products, boundary traces, seeded smoothness."""

import numpy as np
import pytest

from gaugekit import (
    ALGEBRA_DIM,
    OneForm,
    RankMismatch,
    ScalarField,
    Section,
    build_chart,
    check_dbc,
    d_A,
    l2_inner,
    l2_norm,
    random_smooth_field,
)
from gaugekit.fields import normal_component


def _unit_section(ch, k):
    data = np.zeros(ch.shape + (ALGEBRA_DIM,))
    data[..., k] = 1.0
    return Section(ch, data)


def test_inner_product_positive_and_symmetric(ann32):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = Section(ann32, rng.standard_normal(ann32.shape + (ALGEBRA_DIM,)))
        v = Section(ann32, rng.standard_normal(ann32.shape + (ALGEBRA_DIM,)))
        assert l2_inner(u, u) > 0
        s = abs(l2_inner(u, v) - l2_inner(v, u))
        assert s < 1e-12 * max(1.0, abs(l2_inner(u, v)))
    zero = Section(ann32, np.zeros(ann32.shape + (ALGEBRA_DIM,)))
    assert l2_inner(zero, zero) == 0.0
    assert l2_norm(zero) == 0.0


def test_constant_sections_on_unit_slab_are_orthonormal():
    ch = build_chart("periodic_slab", (16, 16), length=1.0, height=1.0)
    for i in range(ALGEBRA_DIM):
        for j in range(ALGEBRA_DIM):
            ip = l2_inner(_unit_section(ch, i), _unit_section(ch, j))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_inner_product_rejects_rank_mixing(ann32):
    u = _unit_section(ann32, 0)
    w = OneForm(ann32, np.zeros(ann32.shape + (2, ALGEBRA_DIM)))
    with pytest.raises(RankMismatch):
        l2_inner(u, w)


def test_dbc_trivial_cases(ann32):
    zero = Section(ann32, np.zeros(ann32.shape + (ALGEBRA_DIM,)))
    ok, worst = check_dbc(zero)
    assert ok and worst == 0.0

    # dr e1: only the (free) normal slot is populated
    dr = np.zeros(ann32.shape + (2, ALGEBRA_DIM))
    dr[..., 1, 0] = 1.0
    ok, worst = check_dbc(OneForm(ann32, dr))
    assert ok and worst == 0.0

    # dtheta e1: a unit tangential violation
    dth = np.zeros(ann32.shape + (2, ALGEBRA_DIM))
    dth[..., 0, 0] = 1.0
    ok, worst = check_dbc(OneForm(ann32, dth))
    assert not ok and abs(worst - 1.0) < 1e-15


def test_flat_d_kills_constants(ann32):
    c = Section(ann32, np.ones(ann32.shape + (ALGEBRA_DIM,)))
    d = d_A(c)
    assert float(np.max(np.abs(d.data))) < 1e-13


def test_flat_d_matches_analytic_derivative():
    errs = []
    for n in (32, 64):
        ch = build_chart("annulus", (n, n))
        th, r = ch.mesh()
        f = Section(ch, np.sin(th)[..., None] * np.eye(ALGEBRA_DIM)[1])
        d = d_A(f)
        errs.append(float(np.max(np.abs(d.data[..., 0, 1] - np.cos(th)))))
    assert errs[0] < 0.01 and errs[1] < errs[0] / 3.0


def test_normal_component_orientation(ann32):
    # dr e1 pairs with the inward normal: +e1 inside, -e1 outside (g_rr = 1)
    data = np.zeros(ann32.shape + (2, ALGEBRA_DIM))
    data[..., 1, 0] = 1.0
    nc = normal_component(OneForm(ann32, data))
    np.testing.assert_allclose(nc.values[0][..., 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(nc.values[1][..., 0], -1.0, atol=1e-14)
    assert float(np.max(np.abs(nc.values[0][..., 1:]))) == 0.0


def test_random_fields_deterministic(ann32):
    a = random_smooth_field(ann32, "oneform", 42)
    b = random_smooth_field(ann32, "oneform", 42)
    assert np.array_equal(a.data, b.data)
    c = random_smooth_field(ann32, "oneform", 43)
    assert not np.array_equal(a.data, c.data)


def test_random_fields_satisfy_dbc(ann32):
    for seed in range(8):
        for rank in ("section", "oneform"):
            f = random_smooth_field(ann32, rank, seed, dbc=True)
            _, worst = check_dbc(f)
            assert worst <= 1e-14, f"{rank} seed {seed} violates by {worst:.2e}"


def test_random_fields_decorrelate_across_seeds(ann64):
    fields = [random_smooth_field(ann64, "section", s) for s in range(20)]
    norms = [l2_norm(f) for f in fields]
    cors = []
    for i in range(20):
        for j in range(i + 1, 20):
            cors.append(abs(l2_inner(fields[i], fields[j])) / (norms[i] * norms[j]))
    assert np.mean(cors) < 0.9


def _reference_scalar(ch, rng, modes, degree, terms=4):
    # the per-slot synthesis that random_smooth_field replaced: one scalar
    # at a time, every factor on 1-D coordinates broadcast in the sum
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


def _reference_field(ch, rank, seed, dbc=True, scale=1.0, modes=2, degree=3):
    rng = np.random.default_rng(seed)
    mesh = ch.mesh(sparse=True)
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    vanish = np.sin(np.pi * (mesh[-1] - lo) / (hi - lo))

    def section():
        return np.stack(
            [_reference_scalar(ch, rng, modes, degree) for _ in range(ALGEBRA_DIM)], axis=-1
        )

    if rank == "scalar":
        data = _reference_scalar(ch, rng, modes, degree)
        if dbc:
            data = data * vanish
    elif rank == "section":
        data = section()
        if dbc:
            data = data * vanish[..., None]
    else:
        comps = []
        for ax in range(ch.n):
            c = section()
            if dbc and ax < ch.n - 1:
                c = c * vanish[..., None]
            comps.append(c)
        data = np.stack(comps, axis=ch.n)
    peak = float(np.max(np.abs(data)))
    return data * float(scale / peak) if peak > 0 else data


_FIELD_CHARTS = {
    "annulus": ("annulus", (24, 20)),
    "annulus_log": ("annulus_log", (20, 24)),
    "slab": ("periodic_slab", (18, 16)),
    "shell": ("cylindrical_shell", (10, 8, 12)),
}


@pytest.mark.parametrize("options", [{}, {"modes": 1, "degree": 2}, {"dbc": False, "scale": 0.3}],
                         ids=["defaults", "modes1-degree2", "no-dbc-scale0.3"])
@pytest.mark.parametrize("rank", ["scalar", "section", "oneform"])
@pytest.mark.parametrize("chart", sorted(_FIELD_CHARTS))
def test_random_fields_match_the_per_slot_synthesis_bit_for_bit(chart, rank, options):
    ch = build_chart(*_FIELD_CHARTS[chart])
    for seed in range(4):
        got = random_smooth_field(ch, rank, seed, **options).data
        want = _reference_field(ch, rank, seed, **options)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _slots_first_field(ch, rank, seed, dbc=True, scale=1.0, modes=2, degree=3, terms=4):
    """random_smooth_field as it was evaluated before it filled the result
    slot by slot: every slot at once, slots leading, then scaled and moved
    behind the chart axes by one transposing copy."""
    cls = {"scalar": ScalarField, "section": Section, "oneform": OneForm}[rank]
    value_shape = cls.value_shape(ch)
    slots = int(np.prod(value_shape, dtype=int))
    rng = np.random.default_rng(seed)
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
    lead = (slice(None),) + (None,) * ch.n
    mesh = ch.mesh(sparse=True)
    lo, hi = ch.coords[-1][0], ch.coords[-1][-1]
    t_norm = (mesh[-1] - lo) / (hi - lo)
    data = np.zeros((slots,) + ch.shape)
    prod = np.empty_like(data)
    for t in range(terms):
        term = 1.0
        for ax in range(tang):
            span = ch.shape[ax] * ch.h[ax]
            wave = k[t, :, ax] * (2.0 * np.pi / span)
            term = term * np.cos(wave[lead] * mesh[ax] + phase[t, :, ax][lead])
        poly = np.polynomial.polynomial.polyval(2.0 * t_norm - 1.0, coeffs[t])
        data += np.multiply(amp[t][lead] * term, poly, out=prod)
    if dbc:
        fixed = ALGEBRA_DIM * (ch.n - 1) if cls is OneForm else len(data)
        data[:fixed] *= np.sin(np.pi * (mesh[-1] - lo) / (hi - lo))
    peak = abs(float(max(data.max(), -data.min())))
    if peak > 0:
        data *= float(scale / peak)
    data = data.reshape(value_shape + ch.shape)
    axes = tuple(range(len(value_shape)))
    return np.moveaxis(data, axes, tuple(a - len(axes) for a in axes)).copy()


@pytest.mark.parametrize("dbc", [True, False], ids=["dbc", "no-dbc"])
@pytest.mark.parametrize("rank", ["scalar", "section", "oneform"])
@pytest.mark.parametrize("chart", ["annulus", "shell"])
def test_random_fields_match_the_slots_first_evaluation_bit_for_bit(chart, rank, dbc):
    ch = build_chart(*_FIELD_CHARTS[chart])
    for seed in range(3):
        got = random_smooth_field(ch, rank, seed, dbc=dbc, scale=0.7).data
        want = _slots_first_field(ch, rank, seed, dbc=dbc, scale=0.7)
        assert got.tobytes() == want.tobytes()


def test_random_one_form_peak_memory():
    # tracemalloc peak of one one-form at annulus 256^2, over its result:
    # the slot buffer and the term product (two scalar fields), plus
    # numpy's iteration buffers for the broadcast product (about 130 KiB);
    # the slots-first evaluation peaked 6.3 fields over its result
    import tracemalloc

    ch = build_chart("annulus", (256, 256))
    field = np.empty(ch.shape).nbytes
    random_smooth_field(ch, "oneform", 1)  # first use loads numpy.polynomial
    tracemalloc.start()
    try:
        data = random_smooth_field(ch, "oneform", 2).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= data.nbytes + 2 * field + 160 * 1024


def test_random_fields_reject_unknown_ranks(ann32):
    for rank in ("twoform", "threeform", None, ["section"]):
        with pytest.raises(RankMismatch):
            random_smooth_field(ann32, rank, 0)


def test_sup_is_the_largest_magnitude(ann32):
    rng = np.random.default_rng(3)
    data = rng.standard_normal(ann32.shape + (ALGEBRA_DIM,))
    for x in (data, data - 5.0, data + 5.0):
        assert Section(ann32, x).sup() == float(np.max(np.abs(x)))
    zero = Section(ann32, -np.zeros(ann32.shape + (ALGEBRA_DIM,))).sup()
    assert zero == 0.0 and not np.signbit(zero)


def _old_node_inner(ch, u, v):
    # the former section path: one sum over the component axis per node
    density = (u * v).sum(axis=-1)
    return float(np.sum(ch.quad_w * ch.vol * density))


@pytest.mark.parametrize(
    "kind, shape",
    [("annulus", (24, 20)), ("cylindrical_shell", (6, 5, 8)), ("periodic_slab", (16, 12))],
)
@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_section_inner_product_keeps_the_bits_of_the_component_sum(kind, shape, K):
    from gaugekit.fields import _node_inner

    ch = build_chart(kind, shape)
    rng = np.random.default_rng(K)
    u = rng.standard_normal(ch.shape + (K,))
    v = rng.standard_normal(ch.shape + (K,))
    u[::3, ..., 0] = -0.0  # signed zeros, alone and next to other terms
    v[1::4, ..., -1] = -0.0
    bits = lambda x: np.float64(x).view(np.uint64)
    for a, b in ((u, v), (v, u), (u, u), (-np.zeros_like(u), v)):
        assert bits(_node_inner(ch, a, b)) == bits(_old_node_inner(ch, a, b))
