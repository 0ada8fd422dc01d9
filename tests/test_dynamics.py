"""Tests for translation flows, cocycles, iterates, and transfer maps."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeg import degree as DG
from liedeg import dynamics as D
from liedeg import groups as G
from liedeg.errors import ConfigError, TagMismatchError

import helpers as H

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RNG = np.random.default_rng(20240816)


def _sample_cocycles(flow):
    return [
        D.torus_monomial(flow, [3]),
        D.torus_monomial(flow, [[1, ], [2, ]], theta0=[0.1, 0.7]) if flow.dim == 1
        else D.torus_monomial(flow, np.eye(flow.dim, dtype=int)),
        D.su2_diagonal(flow, [1]),
        D.su2_twisted_diagonal(flow, [1], 0.7),
        D.su2_two_angle(flow, [1], [2], 0.3, 0.1),
        D.so3_x3_rotation(flow, [2], 0.5),
        D.u2_product(flow, [1], [1], 0.4),
        D.u2_product(flow, [3], [1], 0.0),
        D.u2_scalar_su2(flow, [1], D.su2_two_angle(flow, [1], [1])),
    ]


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_advance_zero_and_group_law():
    flow = D.default_flow(2)
    x = D.BasePoint([0.3, 0.8])
    same = D.flow_advance(flow, x, 0.0)
    assert np.array_equal(same.phases, x.phases)
    # group law: advancing by s then t equals advancing by s + t
    left = D.flow_advance(flow, D.flow_advance(flow, x, 0.7), 1.3)
    right = D.flow_advance(flow, x, 2.0)
    assert np.max(np.abs(left.phases - right.phases)) < 1e-15


def test_flow_advance_golden_step():
    flow = D.default_flow(1)
    x = D.BasePoint([0.0])
    stepped = D.flow_advance(flow, x, 1.0)
    assert abs(stepped.phases[0] - 0.61803398874989) < 1e-13


def test_flow_dimension_mismatch():
    with pytest.raises(TagMismatchError):
        D.flow_advance(D.default_flow(1), D.BasePoint([0.1, 0.2]), 1.0)


def test_default_flow_unsupported_dim():
    with pytest.raises(ConfigError):
        D.default_flow(3)


@pytest.mark.parametrize("alpha", [0, 1, -1, 3.0, (0.3, 2), (-4, 0.1)])
def test_integral_frequency_is_refused(alpha):
    # the time-one map would fix that coordinate
    with pytest.raises(ConfigError, match="must not be integers"):
        D.TranslationFlow(alpha)


_WRAP_EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, -1e-300, -1e-17,
               -2.0 ** -53, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 2.0 ** 52 + 0.5,
               -(2.0 ** 52) - 0.5, 2.0 ** 53, 1e300, -1e300, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_WRAP_EDGES),
                          st.integers(-2 ** 60, 2 ** 60).map(float)),
                min_size=1, max_size=20))
def test_wrap_phases_has_the_bits_of_np_mod(values):
    x = np.array(values)
    want = np.mod(x, 1.0)
    got = D.wrap_phases(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x, got, want)


_F1 = D.default_flow(1)
_BUILT_INS = {
    "torus-monomial": lambda: D.torus_monomial(_F1, [[2]], [0.3]),
    "su2-diagonal": lambda: D.su2_diagonal(_F1, [1], 0.4),
    "su2-twisted-diagonal": lambda: D.su2_twisted_diagonal(_F1, [2]),
    "su2-two-angle": lambda: D.su2_two_angle(_F1, [1], [2], 0.3, 0.1),
    "so3-x3-rotation": lambda: D.so3_x3_rotation(_F1, [1], 0.2),
    "u2-product": lambda: D.u2_product(_F1, [1], [1], 0.7),
    "u2-product-mismatch": lambda: D.u2_product(_F1, [1], [0], 0.7),
    "u2-scalar-su2": lambda: D.u2_scalar_su2(_F1, [2], D.su2_diagonal(_F1, [1])),
    "cohomologous": lambda: D.cohomologous_build(
        D.su2_diagonal(_F1, [1]), D.su2_twisted_diagonal(_F1, [1]), _F1),
}


@pytest.mark.parametrize("name", sorted(_BUILT_INS))
def test_value_at_a_wrapped_one_matches_zero(name):
    # a tiny negative phase wraps to 1.0, not 0.0; every built-in is
    # periodic, so the two agree up to round-off
    c = _BUILT_INS[name]()
    one = D.BasePoint([-1e-20]).phases
    assert one[0] == 1.0
    assert np.max(np.abs(c.value(one) - c.value(np.zeros(1)))) <= 1e-14


@pytest.mark.parametrize("name", sorted(_BUILT_INS))
def test_constant_m_field_rides_outside_equality(name):
    """A carried constant is the field's value everywhere; it survives
    `dataclasses.replace` (how perfbench wraps `value` and `m_field`) and
    takes no part in == or hash, so a Cocycle stays a cache key."""
    c = _BUILT_INS[name]()
    pts = RNG.random((5, 1))
    wrapped = dataclasses.replace(c, value=lambda ph: c.value(ph),
                                  m_field=lambda ph: c.m_field(ph))
    hash(wrapped)
    assert c == dataclasses.replace(c, m_const=None)
    if name in ("su2-two-angle", "cohomologous"):
        assert c.m_const is None and wrapped.m_const is None
        return
    assert np.array_equal(wrapped.m_const, c.m_const)
    assert hash(c) == hash(dataclasses.replace(c, m_const=2 * c.m_const))
    assert np.array_equal(c.m_field(pts), np.broadcast_to(c.m_const, (5,) + c.m_const.shape))
    if name == "u2-scalar-su2":  # the constant is the sum the field would add up
        inner = D.su2_diagonal(_F1, [1])
        want = 2j * np.pi * float(2 * _F1.alpha[0]) * np.eye(2) + inner.m_field(pts)
        assert np.array_equal(c.m_field(pts), want)


def _np_mod_walk(c, flow, x, n):
    """The walk with `phases %= 1.0` and step-less evaluation: the phases
    it visits and phi^(n)(x)."""
    phases, seen, g = np.array(x.phases), [], None
    for k in range(n):
        if k:
            phases += flow.alpha_array
            phases %= 1.0
        seen.append(phases.copy())
        value = G.GroupElement(c.group, c.value(phases))
        g = value if k == 0 else G.group_mul(g, value)
        if k and k % 256 == 0:
            g = G.maybe_renormalize(g)
    return seen, G.maybe_renormalize(g)


@settings(max_examples=15, deadline=None)
@given(st.floats(-0.999, -0.001), st.integers(0, 2 ** 32 - 1))
def test_walk_along_a_negative_alpha_wraps_as_np_mod(alpha, seed):
    """A negative frequency makes x + alpha negative at every wrap; the
    fused cohomologous step (which wraps F_1 x itself) and the walker
    visit the same phases and build the same product as a walk that
    wraps with np.mod."""
    flow = D.TranslationFlow((alpha,))
    phi = D.cohomologous_build(D.su2_diagonal(flow, [1]),
                               D.su2_two_angle(flow, [1], [2], 0.3, 0.1), flow)
    rng = np.random.default_rng(seed)
    x = D.BasePoint(np.concatenate([[[0.0], [-alpha]], rng.random((3, 1))]))
    seen = []
    got = D.cocycle_iterate(phi, flow, x, 300, lambda k, ph, g: seen.append(ph.copy()))
    want_seen, want = _np_mod_walk(phi, flow, x, 300)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want_seen, strict=True))
    assert np.array_equal(got.payload, want.payload)


def test_flow_preserves_quadrature_sums():
    # equispaced sums of a trig polynomial are invariant under the shift
    flow = D.default_flow(1)
    spec = D.QuadratureSpec(16)
    pts = D.quadrature_points(spec, 1)
    poly = lambda ph: np.cos(2 * np.pi * 3 * ph[..., 0]) + 0.5 * np.sin(2 * np.pi * ph[..., 0])
    before = np.mean(poly(pts))
    after = np.mean(poly(D.flow_advance(flow, D.BasePoint(pts), 1.0).phases))
    assert abs(before - after) < 1e-14


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------

def test_quadrature_points_shape_and_exactness():
    spec = D.QuadratureSpec(9)
    pts = D.quadrature_points(spec, 2)
    assert pts.shape == (81, 2)
    # exact for per-dimension degree < 9
    vals = np.exp(2j * np.pi * (4 * pts[:, 0] - 8 * pts[:, 1]))
    assert abs(np.mean(vals)) < 1e-14
    const = np.exp(2j * np.pi * (0 * pts[:, 0]))
    assert abs(np.mean(const) - 1.0) < 1e-15


@pytest.mark.parametrize("nodes", [1, 6, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_blocks_tile_the_grid(nodes, d):
    # the rows are the product grid, last axis fastest, bit for bit, and
    # blocks of them tile it as a walk in blocks reads it
    total = nodes ** d
    pts = D.quadrature_points(D.QuadratureSpec(nodes), d)
    grids = np.meshgrid(*([np.arange(nodes) / nodes] * d), indexing="ij")
    assert np.array_equal(pts, np.stack([g.ravel() for g in grids], axis=-1))
    blocks = [D.quadrature_points(D.QuadratureSpec(nodes), d, s, min(s + 5, total))
              for s in range(0, total, 5)]
    assert np.array_equal(np.concatenate(blocks), pts)


@pytest.mark.parametrize("d", [1, 2])
def test_grid_coefficients_read_a_trig_polynomial(d):
    # the DFT per axis returns |c_k| at k + n // 2 for every |k_j| <= n // 2
    n, k = 9, np.array([3, -4][:d])
    pts = D.quadrature_points(D.QuadratureSpec(n), d)
    values = (0.5 + 2 * np.exp(2j * np.pi * pts @ k))[:, None, None]
    C = D.grid_coefficients(values, n, d)[..., 0, 0]
    want = np.zeros((n,) * d)
    want[(n // 2,) * d] = 0.5
    want[tuple(k + n // 2)] = 2.0
    assert np.max(np.abs(C - want)) < 1e-14


def test_quadrature_spec_validation():
    with pytest.raises(ConfigError):
        D.QuadratureSpec(0)


# ---------------------------------------------------------------------------
# cocycle iterates
# ---------------------------------------------------------------------------

def test_cocycle_identity_all_builtins():
    # phi^(m+n)(x) = phi^(m)(x) phi^(n)(F_m x), m, n in -3..3, 100 points
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((100, 1)))
    for c in _sample_cocycles(flow):
        for m in range(-3, 4):
            gm = D.cocycle_iterate(c, flow, pts, m)
            shifted = D.flow_advance(flow, pts, float(m))
            for n in range(-3, 4):
                lhs = D.cocycle_iterate(c, flow, pts, m + n)
                rhs = G.group_mul(gm, D.cocycle_iterate(c, flow, shifted, n))
                err = np.max(np.abs(lhs.payload - rhs.payload))
                assert err < 1e-11, (c.name, m, n, err)


def test_cocycle_inversion_formula():
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((50, 1)))
    for c in _sample_cocycles(flow):
        for n in (1, 2, 5):
            lhs = D.cocycle_iterate(c, flow, pts, -n)
            back = D.flow_advance(flow, pts, float(-n))
            rhs = G.group_inv(D.cocycle_iterate(c, flow, back, n))
            assert np.max(np.abs(lhs.payload - rhs.payload)) < 1e-11


def test_cocycle_iterate_degenerate_orders():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [2])
    x = D.BasePoint([0.37])
    e = D.cocycle_iterate(c, flow, x, 0)
    assert np.allclose(e.payload, np.array([1.0, 0.0]), atol=1e-15)
    one = D.cocycle_iterate(c, flow, x, 1)
    assert np.max(np.abs(one.payload - c.value(x.phases))) == 0.0


def test_cocycle_iterate_visits_every_partial_product():
    # visit(k, phases_k, g_k) sees the phases of F_k x and g_k = phi^(k)(x)
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((20, 1)))
    n = 12
    for c in _sample_cocycles(flow):
        seen = []
        D.cocycle_iterate(c, flow, pts, n,
                          lambda k, phases, g: seen.append((k, phases.copy(), g)))
        assert [k for k, _, _ in seen] == list(range(n))
        for k, phases, g in seen:
            want = D.cocycle_iterate(c, flow, pts, k)
            assert np.array_equal(g.payload, want.payload), (c.name, k)
            gap = phases - D.flow_advance(flow, pts, float(k)).phases
            assert np.max(np.abs((gap + 0.5) % 1.0 - 0.5)) < 1e-12


def test_anzai_telescoping_oracle():
    # phi(x) = x: phi^(N)(x) = x^N exp(pi i alpha N(N-1))
    flow = D.default_flow(1)
    c = D.torus_monomial(flow, [1])
    x = D.BasePoint([0.2371])
    alpha = flow.alpha[0]
    for N in (1, 2, 10, 137):
        got = D.cocycle_iterate(c, flow, x, N).payload[0]
        want = np.exp(2j * np.pi * N * x.phases[0] + 1j * np.pi * alpha * N * (N - 1))
        assert abs(got - want) < 1e-12 * N


def test_long_product_stays_on_group():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [1])
    g = D.cocycle_iterate(c, flow, D.BasePoint([0.11]), 3000)
    assert float(G.element_defect(g)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3),
       st.floats(0.0, 1.0, exclude_max=True))
def test_cocycle_identity_property(m, n, phase):
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [2], 0.3, 0.1)
    x = D.BasePoint([phase])
    lhs = D.cocycle_iterate(c, flow, x, m + n)
    rhs = G.group_mul(D.cocycle_iterate(c, flow, x, m),
                      D.cocycle_iterate(c, flow, D.flow_advance(flow, x, m), n))
    assert np.max(np.abs(lhs.payload - rhs.payload)) < 1e-11


# ---------------------------------------------------------------------------
# M-field validation
# ---------------------------------------------------------------------------

def test_m_field_lies_in_algebra():
    flow = D.default_flow(1)
    pts = RNG.random((40, 1))
    for c in _sample_cocycles(flow):
        defect = H.algebra_defect(G.AlgebraElement(c.group, c.m_field(pts)))
        assert float(np.max(defect)) < 1e-10, c.name


def test_validate_constant_cocycle():
    flow = D.default_flow(1)
    g0 = np.array([math.cos(0.4), math.sin(0.4)], dtype=complex)
    c = D.Cocycle(G.SU2_GROUP, lambda ph: np.broadcast_to(g0, ph.shape[:-1] + (2,)).copy(),
                  lambda ph: np.zeros(ph.shape[:-1] + (2, 2), dtype=complex),
                  0, 1, name="constant")
    rep = H.validate_m_field(c, flow, D.BasePoint([0.3]), 1e-4)
    assert rep["max_deviation"] < 1e-12


def test_validate_anzai_monomial():
    # gentle frequency so the h^2 truncation sits inside the 1e-8 budget
    flow = D.TranslationFlow((math.sqrt(2.0) / 10,))
    c = D.torus_monomial(flow, [1])
    rep = H.validate_m_field(c, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] <= 1e-8
    # declared M-field is exactly 2 pi i alpha k
    m = c.m_field(np.array([[0.3]]))
    assert abs(m[0, 0] - 2j * np.pi * flow.alpha[0]) < 1e-15


def test_validate_order_two_convergence():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [2], 0.3, 0.1)
    rep = H.validate_m_field(c, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] < 1e-5
    assert 3.5 < rep["ratio"] < 4.5


def test_validate_all_builtins_converge():
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((10, 1)))
    for c in _sample_cocycles(flow):
        rep = H.validate_m_field(c, flow, pts, 1e-4)
        assert rep["max_deviation"] < 1e-5, c.name
        if rep["max_deviation"] > 1e-12:
            assert 3.0 < rep["ratio"] < 5.0, c.name


# ---------------------------------------------------------------------------
# transfer operator and skew product
# ---------------------------------------------------------------------------

def _test_field(group):
    def f(x: D.BasePoint) -> G.AlgebraElement:
        s = np.sin(2 * np.pi * x.phases[..., 0])
        cth = np.cos(2 * np.pi * x.phases[..., 0])
        if group.tag == G.SU2:
            payload = s[..., None, None] * G.E1 + cth[..., None, None] * G.E2
        elif group.tag == G.SO3:
            payload = s[..., None, None] * G.J1 + cth[..., None, None] * G.J3
        elif group.tag == G.U2:
            payload = s[..., None, None] * G.E1 + 1j * cth[..., None, None] * np.eye(2)
        else:
            payload = np.stack([1j * s, 1j * cth], axis=-1)[..., :group.torus_dim]
        return G.AlgebraElement(group, payload)
    return f


def _w_apply(c, flow, f, n, x):
    # the transfer operator (W^n f)(x) = Ad_{phi^(n)(x)} f(F_n x)
    return G.ad(D.cocycle_iterate(c, flow, x, n), f(D.flow_advance(flow, x, float(n))))


def _skew_step(c, flow, x, g, n):
    # the n-th power of the skew product: (x, g) -> (F_n x, g phi^(n)(x))
    return (D.flow_advance(flow, x, float(n)),
            G.group_mul(g, D.cocycle_iterate(c, flow, x, n)))


def test_w_apply_identity_and_semigroup():
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((30, 1)))
    for c in (D.su2_twisted_diagonal(flow, [1], 0.7),
              D.so3_x3_rotation(flow, [1]),
              D.u2_product(flow, [1], [1], 0.2)):
        f = _test_field(c.group)
        zero = _w_apply(c, flow, f, 0, pts)
        assert np.max(np.abs(zero.payload - f(pts).payload)) < 1e-15
        for m, n in ((1, 1), (2, 3), (1, -1)):
            whole = _w_apply(c, flow, f, m + n, pts)
            inner = lambda y: _w_apply(c, flow, f, n, y)
            nested = _w_apply(c, flow, inner, m, pts)
            assert np.max(np.abs(whole.payload - nested.payload)) < 1e-11


def test_w_apply_quadrature_isometry():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [1], 0.2, 0.5)
    f = _test_field(c.group)
    pts = D.BasePoint(D.quadrature_points(D.QuadratureSpec(32), 1))
    for n in (1, 4):
        moved = _w_apply(c, flow, f, n, pts)
        norm_before = np.mean(G.algebra_norm(f(pts)) ** 2)
        norm_after = np.mean(G.algebra_norm(moved) ** 2)
        assert abs(norm_before - norm_after) < 1e-12


def test_skew_step_composition():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [1], 0.3)
    x = D.BasePoint([0.456])
    g = G.GroupElement(G.U2_GROUP,
                       G.haar_sample(G.U2_GROUP, 1, np.random.default_rng(5)).payload[0])
    x0, g0 = _skew_step(c, flow, x, g, 0)
    assert np.array_equal(x0.phases, x.phases)
    assert np.max(np.abs(g0.payload - g.payload)) < 1e-15
    for m, n in ((1, 1), (2, 3), (-1, 2)):
        xm, gm = _skew_step(c, flow, x, g, m)
        xmn, gmn = _skew_step(c, flow, xm, gm, n)
        xw, gw = _skew_step(c, flow, x, g, m + n)
        assert np.max(np.abs(xmn.phases - xw.phases)) < 1e-12
        assert np.max(np.abs(gmn.payload - gw.payload)) < 1e-11


def test_skew_step_torus_rotation_form():
    # (x, z) -> (x + alpha, z * phi(x)) for the degree-one torus cocycle
    flow = D.default_flow(1)
    c = D.torus_monomial(flow, [1])
    x = D.BasePoint([0.2])
    z = G.GroupElement(G.torus_group(1), np.array([np.exp(0.7j)]))
    x1, z1 = _skew_step(c, flow, x, z, 1)
    assert abs(x1.phases[0] - ((0.2 + flow.alpha[0]) % 1.0)) < 1e-15
    want = z.payload[0] * np.exp(2j * np.pi * 0.2)
    assert abs(z1.payload[0] - want) < 1e-15


# ---------------------------------------------------------------------------
# cohomologous construction
# ---------------------------------------------------------------------------

def test_cohomologous_trivial_zeta():
    flow = D.default_flow(1)
    delta = D.su2_diagonal(flow, [1])
    e = D.Cocycle(G.SU2_GROUP,
                  lambda ph: np.broadcast_to(np.array([1.0 + 0j, 0.0]), ph.shape[:-1] + (2,)).copy(),
                  lambda ph: np.zeros(ph.shape[:-1] + (2, 2), dtype=complex),
                  0, 1, name="identity")
    phi = D.cohomologous_build(delta, e, flow)
    pts = RNG.random((20, 1))
    assert np.max(np.abs(phi.value(pts) - delta.value(pts))) < 1e-15
    assert np.max(np.abs(phi.m_field(pts) - delta.m_field(pts))) < 1e-15


def test_cohomologous_m_field_fd_oracle():
    # mild frequency keeps the h^2 truncation within the 1e-7 budget
    flow = D.TranslationFlow((0.05,))
    delta = D.su2_diagonal(flow, [1])
    zeta = D.su2_twisted_diagonal(flow, [1], 0.7)
    phi = D.cohomologous_build(delta, zeta, flow)
    rep = H.validate_m_field(phi, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] < 1e-7


def test_cohomologous_m_field_convergence_golden():
    flow = D.default_flow(1)
    phi = D.cohomologous_build(D.su2_diagonal(flow, [1]),
                               D.su2_twisted_diagonal(flow, [1], 0.7), flow)
    rep = H.validate_m_field(phi, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] < 1e-5
    assert 3.5 < rep["ratio"] < 4.5


def test_cohomologous_torus_abelian_specialization():
    # abelian case: M_phi = M_delta - M_zeta + M_zeta o F_1
    flow = D.default_flow(1)
    delta = D.torus_monomial(flow, [2])
    zeta = D.torus_monomial(flow, [3], theta0=[0.2])
    phi = D.cohomologous_build(delta, zeta, flow)
    pts = RNG.random((30, 1))
    shifted = np.mod(pts + flow.alpha_array, 1.0)
    want = delta.m_field(pts) - zeta.m_field(pts) + zeta.m_field(shifted)
    assert np.max(np.abs(phi.m_field(pts) - want)) < 1e-14
    # and the value is the coboundary-twisted delta
    got = phi.value(pts)
    manual = np.conj(zeta.value(pts)) * delta.value(pts) * zeta.value(shifted)
    assert np.max(np.abs(got - manual)) < 1e-14


def test_cohomologous_tag_mismatch():
    flow = D.default_flow(1)
    with pytest.raises(TagMismatchError):
        D.cohomologous_build(D.torus_monomial(flow, [1]),
                             D.su2_diagonal(flow, [1]), flow)


def _counted_pair(d):
    """A cohomologous SU(2) pair on T^d with x-dependent M-fields, and a
    list that grows by one per evaluation of its zeta."""
    flow = D.default_flow(d)
    calls = []
    if d == 1:
        delta = D.su2_diagonal(flow, [1])
        zeta = D.su2_two_angle(flow, [1], [2], 0.3, 0.1)
    else:  # the T^2 pair of the Dini tests
        delta = D.su2_diagonal(flow, [1, 0])
        zeta = D.su2_twisted_diagonal(flow, [1, 1])

    plain = zeta.value

    def value(phases):
        calls.append(1)
        return plain(phases)

    counted = dataclasses.replace(zeta, value=value)
    return flow, D.cohomologous_build(delta, counted, flow), calls


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("with_m", [False, True], ids=["value", "value+m"])
def test_fused_step_matches_separate_calls_along_a_walk(d, with_m):
    """Every point of a 300-step walk (past the renormalization at
    k = 256) gets from the carried step exactly the bits of separate
    `value` / `m_field` calls, and each point evaluates zeta only at
    F_1 x; the product equals the walk without `step`."""
    flow, phi, calls = _counted_pair(d)
    x = D.BasePoint(RNG.random((5, d)))
    seen = []

    def recording(phases, carry, want_m, *walk):
        out = phi.step(phases, carry, want_m, *walk)
        seen.append((phases.copy(), out[0], out[1]))
        return out

    visit = (lambda k, ph, g, m: None) if with_m else None
    n = 300
    got = D.cocycle_iterate(dataclasses.replace(phi, step=recording), flow, x, n,
                            visit, with_m=with_m)
    assert len(calls) == n + 1
    assert len(seen) == n
    for phases, value, m in seen:
        assert np.array_equal(value, phi.value(phases))
        if with_m:
            assert np.array_equal(m, phi.m_field(phases))
        else:
            assert m is None
    plain = D.cocycle_iterate(dataclasses.replace(phi, step=None), flow, x, n,
                              visit, with_m=with_m)
    assert np.array_equal(got.payload, plain.payload)


def test_fused_step_ignores_a_carry_it_cannot_use():
    """Without a carry a step is value(phases) and m_field(phases) bit for
    bit, and a walk along another flow than the cocycle's reuses no carry,
    so it equals the walk without `step`: for the cohomologous pair and
    for a character cocycle."""
    flow, phi, _ = _counted_pair(1)
    c, _ = _stepped("su2-two-angle", flow)
    pts = RNG.random((4, 1))
    other = D.TranslationFlow((0.3,))
    for cocycle in (phi, c):
        value, m, _ = cocycle.step(pts, None, False, flow)
        assert np.array_equal(value, cocycle.value(pts)) and m is None
        value, m, _ = cocycle.step(pts, None, True, flow)
        assert np.array_equal(value, cocycle.value(pts))
        assert np.array_equal(m, cocycle.m_field(pts))
        plain = dataclasses.replace(cocycle, step=None)
        for with_m in (False, True):
            visit = (lambda k, ph, g, m: None) if with_m else None
            got = D.cocycle_iterate(cocycle, other, D.BasePoint(pts), 20, visit, with_m=with_m)
            want = D.cocycle_iterate(plain, other, D.BasePoint(pts), 20, visit, with_m=with_m)
            assert np.array_equal(got.payload, want.payload)


def _part_mixes(flow):
    """(delta, zeta) pairs of every mix of constant and x-dependent fields."""
    k = np.arange(1, flow.dim + 1)
    return {
        "constant-pair": (D.su2_diagonal(flow, k), D.su2_twisted_diagonal(flow, k)),
        "constant-zeta": (D.su2_two_angle(flow, k, 2 * k, 0.3, 0.1),
                          D.su2_twisted_diagonal(flow, k)),
        "constant-delta": (D.su2_diagonal(flow, k), D.su2_two_angle(flow, k, 2 * k, 0.3, 0.1)),
        # the torus Ad is the identity, so nothing in it batches a constant
        "torus": (D.torus_monomial(flow, [k, 2 * k]),
                  D.torus_monomial(flow, [-k, 3 * k], theta0=[0.2, 0.5])),
        "so3": (D.so3_x3_rotation(flow, k), D.so3_x3_rotation(flow, 2 * k, 0.5)),
    }


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mix", ["constant-pair", "constant-zeta", "constant-delta",
                                 "torus", "so3"])
def test_constant_parts_give_the_sampled_parts_bits(mix, d):
    """The composite reads a constant part's `m_const` unbroadcast, and its
    value, M-field and carried walks (with and without M, along its own
    flow and along another) have the bits and shapes of the composite
    of the sampled parts, for each part left constant or sampled."""
    flow = D.default_flow(d)
    other = D.TranslationFlow(tuple(0.3 + 0.1 * j for j in range(d)))
    delta, zeta = _part_mixes(flow)[mix]
    ref = D.cohomologous_build(H.sampled(delta), H.sampled(zeta), flow)
    pts = RNG.random((5, d))
    x = D.BasePoint(pts)

    def walk(c, walk_flow, with_m):
        ms = []
        visit = (lambda k, ph, g, m: ms.append(m.copy())) if with_m else None
        g = D.cocycle_iterate(c, walk_flow, x, 300, visit, with_m=with_m)
        return g.payload, ms

    walks = [(walk_flow, with_m) for walk_flow in (flow, other) for with_m in (False, True)]
    wants = [walk(ref, *how) for how in walks]
    for parts in [(delta, zeta), (H.sampled(delta), zeta), (delta, H.sampled(zeta))]:
        phi = D.cohomologous_build(*parts, flow)
        for at in (pts, pts[0]):
            assert np.array_equal(phi.value(at), ref.value(at))
            assert np.array_equal(phi.m_field(at), ref.m_field(at))
        for how, (want, want_ms) in zip(walks, wants):
            got, got_ms = walk(phi, *how)
            assert np.array_equal(got, want)
            assert len(got_ms) == len(want_ms)
            assert all(np.array_equal(a, b) for a, b in zip(got_ms, want_ms))


def test_a_constant_pair_carries_the_constant_itself():
    flow = D.default_flow(1)
    delta, zeta = _part_mixes(flow)["constant-pair"]
    phi = D.cohomologous_build(delta, zeta, flow)
    pts = RNG.random((5, 1))
    _, m, carry = phi.step(pts, None, True, flow)
    assert carry[1] is zeta.m_const and m.shape == (5, 2, 2)
    _, m, carry = phi.step(D.wrap_phases(pts + flow.alpha_array), carry, True, flow)
    assert carry[1] is zeta.m_const and m.shape == (5, 2, 2)


def test_walk_drops_each_value_before_the_next_visit():
    """At every visit of a step-less walk on the 163^2 grid only the
    walk's phases and phi^(k)(x) are alive: a value array kept into the
    next visit would add one more 26,569 x 2 complex payload."""
    flow = D.default_flow(2)
    c = dataclasses.replace(D.torus_monomial(flow, np.eye(2, dtype=int)), step=None)
    x = D.BasePoint(D.quadrature_points(D.QuadratureSpec(163), 2))
    payload_bytes = c.value(x.phases).nbytes
    live = []

    def visit(k, phases, g):
        live.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        D.cocycle_iterate(c, flow, x, 6, visit)
    finally:
        tracemalloc.stop()
    assert max(live) < x.phases.nbytes + 1.5 * payload_bytes


def test_stepped_walk_keeps_one_character_array_more():
    """The character step keeps chi(x_0), one (points, rows) complex array,
    and nothing else of a point into the next visit."""
    flow = D.default_flow(2)
    c = D.torus_monomial(flow, np.eye(2, dtype=int))
    assert c.step is not None
    x = D.BasePoint(D.quadrature_points(D.QuadratureSpec(163), 2))
    payload_bytes = c.value(x.phases).nbytes
    chi_bytes = D.characters(x.phases, np.eye(2, dtype=int), np.zeros(2)).nbytes
    live = []

    def visit(k, phases, g):
        live.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        D.cocycle_iterate(c, flow, x, 6, visit)
    finally:
        tracemalloc.stop()
    assert max(live) < x.phases.nbytes + 1.5 * payload_bytes + chi_bytes


# ---------------------------------------------------------------------------
# character-stepped built-ins
# ---------------------------------------------------------------------------

def _stepped(name, flow):
    """Every built-in with a character step, at windings that fit flow.dim,
    and the winding rows of its characters."""
    k = np.arange(1, flow.dim + 1)
    return {
        "torus-monomial": lambda: (D.torus_monomial(flow, [k, -k[::-1]], [0.3, 0.1]),
                                   [k, -k[::-1]]),
        "su2-diagonal": lambda: (D.su2_diagonal(flow, k, 0.4), [k]),
        "su2-twisted-diagonal": lambda: (D.su2_twisted_diagonal(flow, 2 * k, 0.7), [2 * k]),
        "su2-two-angle": lambda: (D.su2_two_angle(flow, k, 2 * k, 0.3, 0.1), [k, 2 * k]),
        "so3-x3-rotation": lambda: (D.so3_x3_rotation(flow, k, 0.2), [k]),
        # matched parity: the entries are the characters (k_torus +- k_rot) / 2
        "u2-product": lambda: (D.u2_product(flow, k, k + 2, 0.7), [k + 1, -np.ones_like(k)]),
    }[name]()


STEPPED = ["torus-monomial", "su2-diagonal", "su2-twisted-diagonal", "su2-two-angle",
           "so3-x3-rotation", "u2-product"]


def _recorded_walk(c, flow, x, n, with_m=False):
    """(phases, value, m) of every step call of a walk of c."""
    seen = []

    def recording(phases, carry, want_m, *walk):
        out = c.step(phases, carry, want_m, *walk)
        seen.append((phases.copy(), out[0], out[1]))
        return out

    visit = (lambda k, ph, g, m: None) if with_m else None
    D.cocycle_iterate(dataclasses.replace(c, step=recording), flow, x, n, visit,
                      with_m=with_m)
    return seen


def _deviation(c, got, want):
    """max |got - want| over the points; an SO(3) payload and its negative
    name one rotation, so there the nearer sign counts."""
    if c.group.tag != G.SO3:
        return np.max(np.abs(got - want))
    return np.max(np.minimum(np.max(np.abs(got - want), axis=-1),
                             np.max(np.abs(got + want), axis=-1)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", STEPPED)
def test_carried_values_stay_within_the_drift_bound(name, d):
    """Along a 300-step walk of a (3, 5) batch, past the renormalization at
    k = 256, the j-th carried value is value(phases) up to the walker's
    phase drift: each character moves by at most 2 pi |K|_1 (j + 1) 2**-53,
    a payload entry by at most twice that (it is a product of up to two
    characters), plus 4e-15 of evaluation round-off.  Against the exactly
    rounded orbit point x + j alpha the carried values stay within
    4 pi |K|_1 2**-52 + 4e-15, a bound that does not grow with j."""
    flow = D.default_flow(d)
    c, K = _stepped(name, flow)
    kabs = int(np.abs(K).sum())
    x = D.BasePoint(RNG.random((3, 5, d)))
    seen = _recorded_walk(c, flow, x, 300)
    turns = D.orbit_turns(flow)
    for j, (phases, value, m) in enumerate(seen):
        assert m is None
        drift = 2 * np.pi * kabs * (j + 1) * 2.0 ** -53
        assert _deviation(c, value, c.value(phases)) <= 2 * drift + 4e-15, j
        exact = np.mod(x.phases + turns(j), 1.0)
        assert _deviation(c, value, c.value(exact)) <= 4 * np.pi * kabs * 2.0 ** -52 + 4e-15, j
    assert np.array_equal(seen[0][1], c.value(x.phases))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.lists(st.floats(-2e-15, 2e-15), min_size=8, max_size=16),
       st.floats(0.0, 2 * np.pi), st.sampled_from([1, -2, 3]))
def test_so3_carried_step_is_value_up_to_sign(j, deltas, theta0, k):
    """Walks that reach rotation angle pi, within 2e-15, at their j-th step:
    there the carried character and the fresh one may sit on either side
    of the principal root's cut (at about one point in 27), so the carried
    payload equals value(phases) up to sign, and its rotation matrix
    equals value's."""
    flow = D.default_flow(1)
    c = D.so3_x3_rotation(flow, [k], theta0)
    x = np.mod((np.pi + np.array(deltas) - theta0) / (2 * np.pi * k)
               - j * flow.alpha[0], 1.0)[:, None]
    seen = _recorded_walk(c, flow, D.BasePoint(x), j + 1)
    for i, (phases, value, _) in enumerate(seen):
        bound = 4 * np.pi * abs(k) * (i + 1) * 2.0 ** -53 + 4e-15
        fresh = c.value(phases)
        assert _deviation(c, value, fresh) <= bound, i
        assert np.max(np.abs(H.so3_matrix(value) - H.so3_matrix(fresh))) <= 2 * bound, i


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", STEPPED)
def test_cesaro_walks_evaluate_every_point_afresh(name, d):
    """A walk with M-fields, such as the blocked Cesaro walk of `degree`,
    gets value(phases) and m_field(phases) bit for bit at every point."""
    flow = D.default_flow(d)
    c, _ = _stepped(name, flow)
    starts = D.BasePoint(DG._block_starts(flow, D.BasePoint(RNG.random((4, d))), 3, 100))
    seen = _recorded_walk(c, flow, starts, 300, with_m=True)
    assert len(seen) == 300
    for phases, value, m in seen:
        assert np.array_equal(value, c.value(phases))
        assert np.array_equal(m, c.m_field(phases))


def _counted_characters(monkeypatch):
    calls = []
    plain = D.characters

    def counted(phases, K, offsets):
        calls.append(phases.shape)
        return plain(phases, K, offsets)

    monkeypatch.setattr(D, "characters", counted)
    return calls


@pytest.mark.parametrize("name", STEPPED)
def test_a_walk_evaluates_characters_once(name, monkeypatch):
    flow = D.default_flow(2)
    c, _ = _stepped(name, flow)
    x = D.BasePoint(RNG.random((7, 2)))
    calls = _counted_characters(monkeypatch)
    D.cocycle_iterate(c, flow, x, 300)
    assert calls == [(7, 2)]


def test_a_foreign_carry_falls_back_to_fresh_bits(monkeypatch):
    """A step reuses its carry only along the flow its cocycle was built
    with: a call without a carry or along another flow evaluates
    value(phases) afresh, for a character cocycle and the cohomologous pair."""
    flow = D.default_flow(1)
    other = D.TranslationFlow((0.3,))
    c, _ = _stepped("so3-x3-rotation", flow)
    pts = RNG.random((5, 1))
    ahead = D.wrap_phases(pts + flow.alpha_array)
    _, _, carry = c.step(pts, None, False, flow)
    calls = _counted_characters(monkeypatch)
    for given, walk_flow in [(carry, other), (None, flow)]:
        value, _, _ = c.step(ahead, given, False, walk_flow)
        assert np.array_equal(value, c.value(ahead))
    assert len(calls) == 4  # two fresh steps and their two references
    # walked along another flow, every point is evaluated afresh
    calls.clear()
    seen = _recorded_walk(c, other, D.BasePoint(pts), 20)
    assert len(calls) == 20
    assert all(np.array_equal(value, c.value(phases)) for phases, value, _ in seen)
    # the carry's next point along its own flow is carried: no fresh evaluation
    calls.clear()
    value, _, _ = c.step(ahead, carry, False, flow)
    assert calls == []
    assert np.max(np.abs(value - c.value(ahead))) <= 1e-15
    # the pair evaluates zeta at x and F_1 x, or at F_1 x alone when carried
    flow, phi, zeta_calls = _counted_pair(1)
    _, _, carry = phi.step(pts, None, True, flow)
    for given, walk_flow, fresh in [(carry, other, 2), (None, flow, 2), (carry, flow, 1)]:
        zeta_calls.clear()
        value, m, _ = phi.step(ahead, given, True, walk_flow)
        assert len(zeta_calls) == fresh
        assert np.array_equal(value, phi.value(ahead))
        assert np.array_equal(m, phi.m_field(ahead))


def test_orbit_turns_are_exactly_rounded():
    flow = D.default_flow(2)
    K = np.array([[1, 0], [3, -2], [0, 7]])
    turns = D.orbit_turns(flow, K)
    for n in (0, 1, 257, 10_001, 10 ** 9 + 7):
        want = [float(sum(int(k) * Fraction(a) for k, a in zip(row, flow.alpha)) * n % 1)
                for row in K]
        assert turns(n).tolist() == want
    assert D.orbit_turns(flow)(5).tolist() == [float(Fraction(a) * 5 % 1) for a in flow.alpha]


# ---------------------------------------------------------------------------
# built-in library details
# ---------------------------------------------------------------------------

def test_torus_monomial_matrix_winding():
    flow = D.default_flow(2)
    k = np.array([[1, 2], [0, -3]])
    c = D.torus_monomial(flow, k, theta0=[0.1, 0.5])
    ph = RNG.random((6, 2))
    want = np.exp(2j * np.pi * (ph @ k.T + np.array([0.1, 0.5])))
    assert np.max(np.abs(c.value(ph) - want)) < 1e-14
    assert c.freq_bound == 3
    assert c.group.torus_dim == 2


def test_su2_twisted_diagonal_value():
    flow = D.default_flow(1)
    c0 = 0.7
    c = D.su2_twisted_diagonal(flow, [1], c0)
    x = D.BasePoint([0.3])
    th = 2 * np.pi * 0.3
    front = G.exp_alg(G.AlgebraElement(G.SU2_GROUP, c0 * G.E1))
    diag = G.GroupElement(G.SU2_GROUP, np.array([np.exp(1j * th), 0.0]))
    want = G.group_mul(front, diag)
    assert np.max(np.abs(H.cocycle_value(c, x).payload - want.payload)) < 1e-14
    # M-field is the conjugated constant diagonal generator
    m = c.m_field(x.phases[None])[0]
    rho = 2 * np.pi * flow.alpha[0]
    fmat = G.su2_matrix(front.payload)
    assert np.max(np.abs(m - rho * fmat @ G.E3 @ np.conj(fmat.T))) < 1e-14


def _stacked_su2_values(name, phases, k):
    """The np.stack forms of the SU(2) built-in values."""
    th = 2 * np.pi * (phases @ k)
    if name == "diagonal":
        z1 = np.exp(1j * (th + 0.4))
        return np.stack([z1, np.zeros_like(z1)], axis=-1)
    if name == "twisted":
        front = np.array([math.cos(0.7), math.sin(0.7)], dtype=complex)
        z = np.exp(1j * th)
        return np.stack([front[0] * z, front[1] * np.conj(z)], axis=-1)
    th1, th2 = th + 0.3, 2 * np.pi * (phases @ (2 * k)) + 0.1
    a = np.stack([np.cos(th1), np.sin(th1)], axis=-1).astype(complex)
    b = np.stack([np.cos(th2), -1j * np.sin(th2)], axis=-1)
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    return np.stack([a1 * b1 - a2 * np.conj(b2), a1 * b2 + a2 * np.conj(b1)], axis=-1)


@pytest.mark.parametrize("name", ["diagonal", "twisted", "two-angle"])
@pytest.mark.parametrize("d", [1, 2])
def test_su2_builtin_values_match_stacked_reference(name, d):
    flow = D.default_flow(d)
    k = np.arange(1, d + 1)
    c = {"diagonal": lambda: D.su2_diagonal(flow, k, 0.4),
         "twisted": lambda: D.su2_twisted_diagonal(flow, k, 0.7),
         "two-angle": lambda: D.su2_two_angle(flow, k, 2 * k, 0.3, 0.1)}[name]()
    rng = np.random.default_rng(23)
    for phases in (rng.random((7, d)), rng.random((3, 5, d)), rng.random(d)):
        got = c.value(phases)
        want = _stacked_su2_values(name, phases, k)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_so3_x3_rotation_embeds_circle():
    flow = D.default_flow(1)
    c = D.so3_x3_rotation(flow, [1], 0.25)
    ph = np.array([[0.125]])
    g = c.value(ph)[0]
    th = 2 * np.pi * 0.125 + 0.25
    assert np.max(np.abs(g - [np.exp(0.5j * th), 0.0])) < 1e-15
    R = H.so3_matrix(g)
    assert abs(R[0, 0] - math.cos(th)) < 1e-15
    assert abs(R[0, 1] - math.sin(th)) < 1e-15
    assert abs(R[2, 2] - 1.0) < 1e-15
    assert float(G.element_defect(G.GroupElement(G.SO3_GROUP, c.value(ph)))) < 1e-14
    # the principal root turns its sign where theta crosses pi, and the
    # rotation does not
    at = np.array([[(np.pi - 0.25) / (2 * np.pi) + e] for e in (-1e-12, 1e-12)])
    below, above = c.value(at)
    assert np.max(np.abs(below + above)) < 1e-10
    assert np.max(np.abs(H.so3_matrix(below) - H.so3_matrix(above))) < 1e-10


def _u2_value(c, phases):
    """The 2x2 form of a U(2) cocycle's values: continuity is judged on the
    element, as a triple and its negative name one element."""
    return H.to_matrix(G.GroupElement(G.U2_GROUP, c.value(phases)))


def test_u2_product_matched_parity_is_continuous():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [1], 0.4)
    eps = 1e-9
    lo = _u2_value(c, np.array([[eps]]))[0]
    hi = _u2_value(c, np.array([[1.0 - eps]]))[0]
    assert np.max(np.abs(lo - hi)) < 1e-6
    assert _jump_count(c) == 0
    # k_torus is odd: w^2 = e(x) has no continuous root, so the payload's
    # sign jumps once where the element does not
    vals = c.value(np.linspace(0.0, 1.0, 2001)[:, None])
    assert int(np.sum(np.max(np.abs(np.diff(vals, axis=0)), axis=-1) > 0.5)) == 1
    # closed form: diag(e^{i pi (kT+kR) x + i th/2}, e^{i pi (kT-kR) x - i th/2})
    ph = np.array([[0.3]])
    u = _u2_value(c, ph)[0]
    assert abs(u[0, 0] - np.exp(1j * (np.pi * 2 * 0.3 + 0.2))) < 1e-14
    assert abs(u[1, 1] - np.exp(-0.2j)) < 1e-14
    assert abs(u[0, 1]) == 0.0


def _jump_count(c, n=2000):
    vals = _u2_value(c, np.linspace(0.0, 1.0, n + 1)[:, None])
    jumps = np.max(np.abs(np.diff(vals, axis=0)), axis=(-2, -1))
    return int(np.sum(jumps > 0.5))


def test_u2_product_parity_mismatch_flags_branch_cut():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [2], 0.0)
    # central-sign flips at the square-root cut and the lift's branch points
    assert _jump_count(c) > 0
    assert _jump_count(D.u2_product(flow, [1], [1], 0.4)) == 0
    assert _jump_count(D.u2_product(flow, [1], [3], 0.1)) == 0
    # values still land on the group
    g = G.GroupElement(G.U2_GROUP, c.value(RNG.random((20, 1))))
    assert float(np.max(G.element_defect(g))) < 1e-12


@pytest.mark.parametrize("k_torus, k_rot",
                         [(1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (-1, 2)])
@pytest.mark.parametrize("theta0", [0.0, 0.7, np.pi / 2, np.pi, -2.5])
def test_u2_product_mismatch_lift_matches_iso(k_torus, k_rot, theta0):
    # the closed-form lift against sqrt(w) so3_to_su2(R) by Shepperd's method
    flow = D.default_flow(1)
    rng = np.random.default_rng(31)
    # random phases, and phases at rotation angles 0, +-pi/2 and +-pi
    # with neighbours 1e-12 either side
    special = [(t - theta0) / (2 * np.pi * k_rot) + off
               for t in (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi)
               for off in (-1e-12, 0.0, 1e-12)] if k_rot else []
    ph = np.mod(np.concatenate([rng.random(20_000), special]), 1.0)[:, None]
    got = D.u2_product(flow, [k_torus], [k_rot], theta0).value(ph)
    R = G.GroupElement(G.SO3_GROUP, D.so3_x3_rotation(flow, [k_rot], theta0).value(ph))
    want = H.iso_so3_torus_to_u2(R, np.exp(2j * np.pi * k_torus * ph[:, 0]), +1).payload
    # the same triple (lift(R), sqrt(w)): at rotation angles +-pi/2 the
    # quaternion entries q0 and q3 tie in size, and q0, the first, leads
    # the sign
    assert np.max(np.abs(got - want)) <= 1e-14


def _mismatch_value_reference(kt, kr, theta0, phases):
    """u2_product's parity-mismatch value with the root of e^{2 pi i t}
    through arctan2 (`helpers.circle_sqrt`): the form it replaced."""
    h = 0.5 * (2 * np.pi * (phases @ kr) + theta0)
    h = np.mod(h + np.pi / 2, np.pi) - np.pi / 2
    c, s = np.cos(h), np.sin(h)
    sign = np.where((np.abs(c) < np.abs(s) - G.LEAD_TIE) & (s < 0), -1.0, 1.0)
    out = np.zeros(h.shape + (3,), dtype=complex)
    out[..., 0] = sign * (c + 1j * s)
    out[..., 2] = H.circle_sqrt(G.unit_exp(2 * np.pi * (phases @ kt)))
    return out


@pytest.mark.parametrize("k_torus", [1, -1, 3])
def test_u2_mismatch_root_matches_the_arctan2_form(k_torus):
    # t = k_torus x at the cut (half-integers, and one ulp either side of
    # 1/2), at integers and one ulp below 1, and at random phases
    flow = D.default_flow(1)
    t = np.array([0.0, 0.25, 0.5, 1.0, 0.5 + 2.0 ** -53, 0.5 - 2.0 ** -53, 1.0 - 2.0 ** -53,
                  1.5, 0.75])
    ph = np.concatenate([t / k_torus, np.random.default_rng(3).random(500)])[:, None]
    got = D.u2_product(flow, [k_torus], [0], 0.3).value(ph)
    want = _mismatch_value_reference(np.array([k_torus]), np.array([0]), 0.3, ph)
    # the arctan2 form rounds 2 pi t, so its error grows with |t| <= |k_torus|
    assert np.max(np.abs(got - want)) <= 5e-16 * (1 + abs(k_torus))


def test_u2_scalar_su2_composition():
    flow = D.default_flow(1)
    inner = D.su2_two_angle(flow, [1], [1], 0.1, 0.2)
    c = D.u2_scalar_su2(flow, [2], inner)
    ph = RNG.random((8, 1))
    want = np.exp(4j * np.pi * ph[:, 0])[:, None, None] * G.su2_matrix(inner.value(ph))
    assert np.max(np.abs(_u2_value(c, ph) - want)) < 1e-14
    assert c.freq_bound == 4
    with pytest.raises(TagMismatchError):
        D.u2_scalar_su2(flow, [1], D.torus_monomial(flow, [1]))


def test_winding_validation():
    flow = D.default_flow(2)
    with pytest.raises(ConfigError):
        D.su2_diagonal(flow, [1])
    with pytest.raises(ConfigError):
        D.torus_monomial(flow, [[1, 2, 3]])


@pytest.mark.parametrize("k", [[1.5, 0], [np.inf, 1], [np.nan, 1], [1e300, 0],
                               [10 ** 30, 0], ["1", "0"], [True, False]])
def test_non_integral_windings_are_refused(k):
    flow = D.default_flow(2)
    with pytest.raises(ConfigError, match="integers"):
        D.su2_diagonal(flow, k)
    with pytest.raises(ConfigError, match="integers"):
        D.torus_monomial(flow, [k])


def test_integral_float_windings_are_accepted():
    flow = D.default_flow(2)
    x = D.BasePoint([0.3, 0.8])
    for build in (D.su2_diagonal, lambda f, k: D.torus_monomial(f, [k])):
        a, b = build(flow, [1.0, -2.0]), build(flow, [1, -2])
        assert np.array_equal(a.value(x.phases), b.value(x.phases))
        assert a.freq_bound == b.freq_bound == 2
