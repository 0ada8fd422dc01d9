"""Tests for translation flows, cocycles, iterates, and transfer maps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    x = D.base_point(0.3, 0.8)
    same = D.flow_advance(flow, x, 0.0)
    assert np.array_equal(same.phases, x.phases)
    # group law: advancing by s then t equals advancing by s + t
    left = D.flow_advance(flow, D.flow_advance(flow, x, 0.7), 1.3)
    right = D.flow_advance(flow, x, 2.0)
    assert np.max(np.abs(left.phases - right.phases)) < 1e-15


def test_flow_advance_golden_step():
    flow = D.default_flow(1)
    x = D.base_point(0.0)
    stepped = D.flow_advance(flow, x, 1.0)
    assert abs(stepped.phases[0] - 0.61803398874989) < 1e-13


def test_flow_dimension_mismatch():
    with pytest.raises(TagMismatchError):
        D.flow_advance(D.default_flow(1), D.base_point(0.1, 0.2), 1.0)


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
    x = D.base_point(0.37)
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
    x = D.base_point(0.2371)
    alpha = flow.alpha[0]
    for N in (1, 2, 10, 137):
        got = D.cocycle_iterate(c, flow, x, N).payload[0]
        want = np.exp(2j * np.pi * N * x.phases[0] + 1j * np.pi * alpha * N * (N - 1))
        assert abs(got - want) < 1e-12 * N


def test_long_product_stays_on_group():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [1])
    g = D.cocycle_iterate(c, flow, D.base_point(0.11), 3000)
    assert float(G.element_defect(g)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3),
       st.floats(0.0, 1.0, exclude_max=True))
def test_cocycle_identity_property(m, n, phase):
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [2], 0.3, 0.1)
    x = D.base_point(phase)
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
    rep = D.validate_m_field(c, flow, D.base_point(0.3), 1e-4)
    assert rep["max_deviation"] < 1e-12


def test_validate_anzai_monomial():
    # gentle frequency so the h^2 truncation sits inside the 1e-8 budget
    flow = D.TranslationFlow((math.sqrt(2.0) / 10,))
    c = D.torus_monomial(flow, [1])
    rep = D.validate_m_field(c, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] <= 1e-8
    # declared M-field is exactly 2 pi i alpha k
    m = c.m_field(np.array([[0.3]]))
    assert abs(m[0, 0] - 2j * np.pi * flow.alpha[0]) < 1e-15


def test_validate_order_two_convergence():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [2], 0.3, 0.1)
    rep = D.validate_m_field(c, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] < 1e-5
    assert 3.5 < rep["ratio"] < 4.5


def test_validate_all_builtins_converge():
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((10, 1)))
    for c in _sample_cocycles(flow):
        rep = D.validate_m_field(c, flow, pts, 1e-4)
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


def test_w_apply_identity_and_semigroup():
    flow = D.default_flow(1)
    pts = D.BasePoint(RNG.random((30, 1)))
    for c in (D.su2_twisted_diagonal(flow, [1], 0.7),
              D.so3_x3_rotation(flow, [1]),
              D.u2_product(flow, [1], [1], 0.2)):
        f = _test_field(c.group)
        zero = D.w_apply(c, flow, f, 0, pts)
        assert np.max(np.abs(zero.payload - f(pts).payload)) < 1e-15
        for m, n in ((1, 1), (2, 3), (1, -1)):
            whole = D.w_apply(c, flow, f, m + n, pts)
            inner = lambda y: D.w_apply(c, flow, f, n, y)
            nested = D.w_apply(c, flow, inner, m, pts)
            assert np.max(np.abs(whole.payload - nested.payload)) < 1e-11


def test_w_apply_quadrature_isometry():
    flow = D.default_flow(1)
    c = D.su2_two_angle(flow, [1], [1], 0.2, 0.5)
    f = _test_field(c.group)
    pts = D.BasePoint(D.quadrature_points(D.QuadratureSpec(32), 1))
    for n in (1, 4):
        moved = D.w_apply(c, flow, f, n, pts)
        norm_before = np.mean(G.algebra_norm(f(pts)) ** 2)
        norm_after = np.mean(G.algebra_norm(moved) ** 2)
        assert abs(norm_before - norm_after) < 1e-12


def test_skew_step_composition():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [1], 0.3)
    x = D.base_point(0.456)
    g = G.GroupElement(G.U2_GROUP,
                       G.haar_sample(G.U2_GROUP, 1, np.random.default_rng(5)).payload[0])
    x0, g0 = D.skew_step(c, flow, x, g, 0)
    assert np.array_equal(x0.phases, x.phases)
    assert np.max(np.abs(g0.payload - g.payload)) < 1e-15
    for m, n in ((1, 1), (2, 3), (-1, 2)):
        xm, gm = D.skew_step(c, flow, x, g, m)
        xmn, gmn = D.skew_step(c, flow, xm, gm, n)
        xw, gw = D.skew_step(c, flow, x, g, m + n)
        assert np.max(np.abs(xmn.phases - xw.phases)) < 1e-12
        assert np.max(np.abs(gmn.payload - gw.payload)) < 1e-11


def test_skew_step_torus_rotation_form():
    # (x, z) -> (x + alpha, z * phi(x)) for the degree-one torus cocycle
    flow = D.default_flow(1)
    c = D.torus_monomial(flow, [1])
    x = D.base_point(0.2)
    z = G.GroupElement(G.torus_group(1), np.array([np.exp(0.7j)]))
    x1, z1 = D.skew_step(c, flow, x, z, 1)
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
    rep = D.validate_m_field(phi, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
    assert rep["max_deviation"] < 1e-7


def test_cohomologous_m_field_convergence_golden():
    flow = D.default_flow(1)
    phi = D.cohomologous_build(D.su2_diagonal(flow, [1]),
                               D.su2_twisted_diagonal(flow, [1], 0.7), flow)
    rep = D.validate_m_field(phi, flow, D.BasePoint(RNG.random((25, 1))), 1e-4)
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

    def recording(phases, carry, want_m):
        out = phi.step(phases, carry, want_m)
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
    """A carry is reused only at its own phases F_1 x and, for the
    M-field, only when it holds M_zeta(F_1 x); a walk along another
    flow therefore equals the walk without `step`."""
    flow, phi, _ = _counted_pair(1)
    pts = RNG.random((4, 1))
    _, _, carry = phi.step(pts, None, True)  # for F_1 x, not for x
    value, m, _ = phi.step(pts, carry, True)
    assert np.array_equal(value, phi.value(pts))
    assert np.array_equal(m, phi.m_field(pts))
    _, _, carry = phi.step(pts, None, False)  # at F_1 x, without M
    value, m, _ = phi.step(carry[0], carry, True)
    assert np.array_equal(value, phi.value(carry[0]))
    assert np.array_equal(m, phi.m_field(carry[0]))
    other = D.TranslationFlow((0.3,))
    got = D.cocycle_iterate(phi, other, D.BasePoint(pts), 20)
    plain = D.cocycle_iterate(dataclasses.replace(phi, step=None), other, D.BasePoint(pts), 20)
    assert np.array_equal(got.payload, plain.payload)


def test_walk_drops_each_value_before_the_next_visit():
    """At every visit of a step-less walk on the 163^2 grid only the
    walk's phases and phi^(k)(x) are alive: a value array kept into the
    next visit would add one more 26,569 x 2 complex payload."""
    flow = D.default_flow(2)
    c = D.torus_monomial(flow, np.eye(2, dtype=int))
    assert c.step is None
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


def test_torus_power():
    flow = D.default_flow(1)
    c = D.torus_monomial(flow, [2])
    p = D.torus_power(c, -3)
    ph = RNG.random((6, 1))
    assert np.max(np.abs(p.value(ph) - c.value(ph) ** (-3))) < 1e-13
    assert np.max(np.abs(p.m_field(ph) + 3 * c.m_field(ph))) < 1e-13
    assert p.freq_bound == 6
    with pytest.raises(TagMismatchError):
        D.torus_power(D.su2_diagonal(flow, [1]), 2)


def test_su2_twisted_diagonal_value():
    flow = D.default_flow(1)
    c0 = 0.7
    c = D.su2_twisted_diagonal(flow, [1], c0)
    x = D.base_point(0.3)
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
    R = c.value(ph)[0]
    th = 2 * np.pi * 0.125 + 0.25
    assert abs(R[0, 0] - math.cos(th)) < 1e-15
    assert abs(R[0, 1] - math.sin(th)) < 1e-15
    assert abs(R[2, 2] - 1.0) < 1e-15
    assert float(G.element_defect(G.GroupElement(G.SO3_GROUP, c.value(ph)))) < 1e-14


def test_u2_product_matched_parity_is_continuous():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [1], 0.4)
    assert not c.branch_discontinuous
    eps = 1e-9
    lo = c.value(np.array([[eps]]))[0]
    hi = c.value(np.array([[1.0 - eps]]))[0]
    assert np.max(np.abs(lo - hi)) < 1e-6
    # closed form: diag(e^{i pi (kT+kR) x + i th/2}, e^{i pi (kT-kR) x - i th/2})
    ph = np.array([[0.3]])
    u = c.value(ph)[0]
    assert abs(u[0, 0] - np.exp(1j * (np.pi * 2 * 0.3 + 0.2))) < 1e-14
    assert abs(u[1, 1] - np.exp(-0.2j)) < 1e-14
    assert abs(u[0, 1]) == 0.0


def _jump_count(c, n=2000):
    ph = np.linspace(0.0, 1.0, n + 1)[:, None]
    vals = c.value(ph)
    jumps = np.max(np.abs(np.diff(vals, axis=0)), axis=tuple(range(1, vals.ndim)))
    return int(np.sum(jumps > 0.5))


def test_u2_product_parity_mismatch_flags_branch_cut():
    flow = D.default_flow(1)
    c = D.u2_product(flow, [1], [2], 0.0)
    assert c.branch_discontinuous
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
    want = G.iso_so3_torus_to_u2(R, np.exp(2j * np.pi * k_torus * ph[:, 0]), +1).payload
    # at rotation angles +-pi/2 the quaternion entries q0 and q3 tie in
    # size, and round-off picks Shepperd's canonical sign
    theta = 2 * np.pi * k_rot * ph[:, 0] + theta0
    tie = np.abs(np.abs(np.mod(theta + np.pi, 2 * np.pi) - np.pi) - np.pi / 2) <= 1e-9
    dev = np.max(np.abs(got - want), axis=(-1, -2))
    assert np.max(dev[~tie], initial=0.0) <= 1e-14


def test_u2_scalar_su2_composition():
    flow = D.default_flow(1)
    inner = D.su2_two_angle(flow, [1], [1], 0.1, 0.2)
    c = D.u2_scalar_su2(flow, [2], inner)
    ph = RNG.random((8, 1))
    want = np.exp(4j * np.pi * ph[:, 0])[:, None, None] * G.su2_matrix(inner.value(ph))
    assert np.max(np.abs(c.value(ph) - want)) < 1e-14
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
    x = D.base_point(0.3, 0.8)
    for build in (D.su2_diagonal, lambda f, k: D.torus_monomial(f, [k])):
        a, b = build(flow, [1.0, -2.0]), build(flow, [1, -2])
        assert np.array_equal(a.value(x.phases), b.value(x.phases))
        assert a.freq_bound == b.freq_bound == 2
