from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeg import groups as G
from liedeg import reps
from liedeg.errors import ConfigError, TagMismatchError
from liedeg.rng import RngHandle

import helpers as H

ALL_GROUPS = [G.torus_group(1), G.torus_group(3), G.SU2_GROUP, G.SO3_GROUP, G.U2_GROUP]


def _haar(group, n, stream=0):
    return G.haar_sample(group, n, RngHandle(20240811, stream))


def _rand_alg(group, n, rng):
    if group.tag == G.TORUS:
        p = 1j * rng.standard_normal((n, group.torus_dim))
    elif group.tag == G.SU2:
        p = G.su2_alg_from_components(rng.standard_normal((n, 3)))
    elif group.tag == G.SO3:
        p = G.so3_alg_from_components(rng.standard_normal((n, 3)))
    else:
        h = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        p = 0.5 * (h - np.conj(np.swapaxes(h, -1, -2)))
    return G.AlgebraElement(group, p)


def _series_exp(A, terms=40):
    out = np.eye(A.shape[-1], dtype=complex)
    P = np.eye(A.shape[-1], dtype=complex)
    for k in range(1, terms):
        P = P @ A / k
        out = out + P
    return out


# ---------------------------------------------------------------------------
# group axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms_on_random_triples(group):
    n = 1000
    a, b, c = (_haar(group, n, s) for s in (1, 2, 3))
    lhs = G.group_mul(G.group_mul(a, b), c)
    rhs = G.group_mul(a, G.group_mul(b, c))
    assert np.max(np.abs(lhs.payload - rhs.payload)) < 1e-12
    e = G.identity(group, (n,))
    assert np.max(np.abs(G.group_mul(a, e).payload - a.payload)) < 1e-12
    assert np.max(np.abs(G.group_mul(e, a).payload - a.payload)) < 1e-12
    left = G.group_mul(G.group_inv(a), a)
    assert np.max(np.abs(left.payload - e.payload)) < 1e-12


def test_su2_square_of_second_generator():
    # (0, 1)^2 = (-1, 0)
    j = G.GroupElement(G.SU2_GROUP, np.array([0.0 + 0j, 1.0 + 0j]))
    sq = G.group_mul(j, j)
    assert np.allclose(sq.payload, [-1.0, 0.0], atol=1e-15)


def test_element_validation_and_renormalize():
    g = _haar(G.SU2_GROUP, 8)
    assert H.validate_element(g) < 1e-12
    drifted = G.GroupElement(G.SU2_GROUP, g.payload * (1 + 3e-9))
    with pytest.raises(ConfigError):
        H.validate_element(drifted)
    fixed = G.renormalize(drifted)
    assert G.element_defect(fixed) < 1e-14
    # maybe_renormalize leaves clean payloads alone
    again = G.maybe_renormalize(g)
    assert again.payload is g.payload

    R = _haar(G.SO3_GROUP, 5)
    noisy = G.GroupElement(G.SO3_GROUP, R.payload + 1e-8)
    repaired = G.renormalize(noisy)
    assert G.element_defect(repaired) < 1e-12


def test_tag_mismatch_raises():
    a = _haar(G.SU2_GROUP, 1)
    b = _haar(G.SO3_GROUP, 1)
    with pytest.raises(TagMismatchError):
        G.group_mul(a, b)


# ---------------------------------------------------------------------------
# adjoint action and inner product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_ad_is_homomorphism(group):
    n = 200
    rng = RngHandle(7, 5).generator()
    a, b = _haar(group, n, 1), _haar(group, n, 2)
    Z = _rand_alg(group, n, rng)
    lhs = G.ad(G.group_mul(a, b), Z)
    rhs = G.ad(a, G.ad(b, Z))
    assert np.max(np.abs(lhs.payload - rhs.payload)) < 1e-11


def _ad_su2_matmul(g_payload, Z):
    """Reference SU(2) Ad: the batched matrix product m Z m^H."""
    m = G.su2_matrix(g_payload)
    return m @ Z @ np.conj(np.swapaxes(m, -1, -2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(["batch-batch", "scalar-g", "scalar-z"]),
       st.floats(-3.0, 3.0))
def test_ad_su2_closed_form_matches_matmul(seed, n, shape, log_scale):
    # any complex 2x2 Z, not only su(2): the closed form must not rely on it
    rng = np.random.default_rng(seed)
    g = G.haar_sample(G.SU2_GROUP, n, rng).payload
    Z = 10.0 ** log_scale * (rng.standard_normal((n, 2, 2))
                             + 1j * rng.standard_normal((n, 2, 2)))
    if shape == "scalar-g":
        g = g[0]
    elif shape == "scalar-z":
        Z = Z[0]
    got = G.ad(G.GroupElement(G.SU2_GROUP, g), G.AlgebraElement(G.SU2_GROUP, Z)).payload
    want = _ad_su2_matmul(g, Z)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(Z)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(["batch-batch", "scalar-g", "scalar-z"]),
       st.floats(-3.0, 3.0))
def test_ad_so3_rotates_coordinates_as_the_sandwich(seed, n, shape, log_scale):
    # Ad_g on so(3) payloads, read as 3x3 matrices, is the sandwich R S R^T
    # with R the rotation matrix of the Haar-drawn payload g
    rng = np.random.default_rng(seed)
    g = G.haar_sample(G.SO3_GROUP, n, rng).payload
    a = 10.0 ** log_scale * rng.standard_normal((n, 3))
    if shape == "scalar-g":
        g = g[0]
    elif shape == "scalar-z":
        a = a[0]
    Z = G.AlgebraElement(G.SO3_GROUP, G.so3_alg_from_components(a))
    got = G.so3_alg_matrix(G.ad(G.GroupElement(G.SO3_GROUP, g), Z).payload)
    want = H.so3_ad_sandwich(H.so3_matrix(g), H.so3_skew(a))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.floats(-3.0, 3.0))
def test_so3_payloads_carry_the_3x3_bracket_and_metric(seed, n, log_scale):
    # on payloads a1 J1 + a2 J2 + a3 J3 the matrix commutator is the
    # commutator of the 3x3 forms, and algebra_inner is tr(S T^T) / 2
    rng = np.random.default_rng(seed)
    a, b = 10.0 ** log_scale * rng.standard_normal((2, n, 3))
    Z, W = G.so3_alg_from_components(a), G.so3_alg_from_components(b)
    S, T = H.so3_skew(a), H.so3_skew(b)
    scale = np.max(np.abs(a)) * np.max(np.abs(b))
    assert np.array_equal(G.so3_alg_matrix(Z), S)
    assert np.max(np.abs(H.d_cover_inv(S) - Z)) == 0.0
    bracket = G.so3_alg_matrix(Z @ W - W @ Z)
    assert np.max(np.abs(bracket - (S @ T - T @ S))) <= 1e-14 * scale
    inner = G.algebra_inner(G.AlgebraElement(G.SO3_GROUP, Z), G.AlgebraElement(G.SO3_GROUP, W))
    assert np.max(np.abs(inner - 0.5 * np.sum(S * T, axis=(-1, -2)))) <= 1e-14 * scale


def _u2_matrix(payload):
    return H.to_matrix(G.GroupElement(G.U2_GROUP, payload))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(["batch-batch", "scalar-g", "scalar-z"]),
       st.floats(-3.0, 3.0))
def test_u2_written_out_products_match_matmul(seed, n, shape, log_scale):
    # any complex triples, not only unitary ones: their 2x2 forms, w times
    # [[z1, z2], [-conj(z2), conj(z1)]], are closed under @; Ad of a Haar
    # triple on any complex 2x2 Z
    rng = np.random.default_rng(seed)

    def draw(*tail):
        return 10.0 ** log_scale * (rng.standard_normal((n,) + tail)
                                    + 1j * rng.standard_normal((n,) + tail))

    g = G.haar_sample(G.U2_GROUP, n, rng).payload
    a, b, Z = draw(3), draw(3), draw(2, 2)
    if shape == "scalar-g":
        g, a = g[0], a[0]
    elif shape == "scalar-z":
        b, Z = b[0], Z[0]
    size = max(np.max(np.abs(a)), np.max(np.abs(b)))
    got = _u2_matrix(G.group_mul(G.GroupElement(G.U2_GROUP, a), G.GroupElement(G.U2_GROUP, b))
                     .payload)
    want = _u2_matrix(a) @ _u2_matrix(b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + size) ** 4
    u = _u2_matrix(g)
    got = G.ad(G.GroupElement(G.U2_GROUP, g), G.AlgebraElement(G.U2_GROUP, Z)).payload
    want = u @ Z @ np.conj(np.swapaxes(u, -1, -2))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(Z)))
    # the defect bounds the 2x2 form's distance from unitarity:
    # |w|^2 (|z1|^2 + |z2|^2) is within (1 + defect)^3 of 1
    d = G.element_defect(G.GroupElement(G.U2_GROUP, a))
    ua = _u2_matrix(a)
    gram = float(np.max(np.abs(np.conj(np.swapaxes(ua, -1, -2)) @ ua - np.eye(2))))
    assert gram <= (1.0 + d) ** 3 - 1.0 + 1e-14 * (1.0 + size) ** 4
    assert G.element_defect(G.GroupElement(G.U2_GROUP, g)) <= H.ELEMENT_TOL


U2_REP_LABELS = [(0, 1), (1, 0), (2, 1), (2, 2), (3, -1), (4, 9), (12, 14)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.floats(-3.0, 1.0))
def test_u2_triples_match_the_2x2_references(seed, n, log_scale):
    """Haar triples (z1, z2, w) against the 2x2 forms they replaced,
    through `helpers.to_matrix`: products by `helpers.mul2`, inverses by
    the conjugate transpose, Ad by the mul2 sandwich, the exponential by
    `helpers.exp_eigh`, renormalization by `helpers.polar_factor` and
    the irreps by `helpers.u2_rep_reference`; a triple and its negative
    give the same bits of pi."""
    rng = np.random.default_rng(seed)
    a, b = G.haar_sample(G.U2_GROUP, n, rng), G.haar_sample(G.U2_GROUP, n, rng)
    ua, ub = H.to_matrix(a), H.to_matrix(b)
    assert np.max(np.abs(H.to_matrix(G.group_mul(a, b)) - H.mul2(ua, ub))) <= 1e-14
    assert np.max(np.abs(H.to_matrix(G.group_inv(a))
                         - np.conj(np.swapaxes(ua, -1, -2)))) <= 1e-14
    Z = 10.0 ** log_scale * _rand_alg(G.U2_GROUP, n, rng).payload
    size = np.max(np.abs(Z))
    sandwich = H.mul2(H.mul2(ua, Z), np.conj(np.swapaxes(ua, -1, -2)))
    got = G.ad(a, G.AlgebraElement(G.U2_GROUP, Z)).payload
    assert np.max(np.abs(got - sandwich)) <= 1e-14 * size
    got = H.to_matrix(G.exp_alg(G.AlgebraElement(G.U2_GROUP, Z)))
    assert np.max(np.abs(got - H.exp_eigh(Z))) <= 1e-14 * max(1.0, size)
    drifted = a.payload * (1 + 1e-13)
    got = H.to_matrix(G.renormalize(G.GroupElement(G.U2_GROUP, drifted)))
    assert np.max(np.abs(got - H.polar_factor(_u2_matrix(drifted)))) <= 1e-14
    for l, m in U2_REP_LABELS:
        rep = reps.u2_rep(l, m)
        got = reps.rep_eval_payload(rep, a.payload)
        ref = H.u2_rep_reference(rep, ua)
        assert np.max(np.abs(got - ref)) <= H.POWER_TOL * max(abs(2 * m - l), 1), (l, m)
        assert np.array_equal(reps.rep_eval_payload(rep, -a.payload), got), (l, m)


@pytest.mark.parametrize("shape", ["batch-batch", "scalar-a", "scalar-b"])
def test_su2_mul_inv_match_stacked_reference(shape):
    rng = np.random.default_rng(17)
    a = G.haar_sample(G.SU2_GROUP, 9, rng).payload
    b = G.haar_sample(G.SU2_GROUP, 9, rng).payload
    a, b = {"scalar-a": (a[0], b), "scalar-b": (a, b[0])}.get(shape, (a, b))
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    mul = np.stack([a1 * b1 - a2 * np.conj(b2), a1 * b2 + a2 * np.conj(b1)], axis=-1)
    got = G.group_mul(G.GroupElement(G.SU2_GROUP, a), G.GroupElement(G.SU2_GROUP, b))
    assert np.array_equal(got.payload, mul)
    inv = G.group_inv(G.GroupElement(G.SU2_GROUP, a)).payload
    assert np.array_equal(inv, np.stack([np.conj(a1), -a2], axis=-1))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_inner_product_ad_invariant(group):
    n = 300
    rng = RngHandle(11, 6).generator()
    g = _haar(group, n)
    Z, W = _rand_alg(group, n, rng), _rand_alg(group, n, rng)
    before = G.algebra_inner(Z, W)
    after = G.algebra_inner(G.ad(g, Z), G.ad(g, W))
    assert np.max(np.abs(before - after)) < 1e-12


def test_su2_basis_orthonormal():
    basis = [G.AlgebraElement(G.SU2_GROUP, E) for E in (G.E1, G.E2, G.E3)]
    gram = np.array([[G.algebra_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(3), atol=1e-15)
    basis = [G.AlgebraElement(G.SO3_GROUP, J) for J in (G.J1, G.J2, G.J3)]
    gram = np.array([[G.algebra_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(3), atol=1e-15)
    # J_i is the 3x3 generator of the rotation about x_i, with no -0.0
    for J, e in zip((G.J1, G.J2, G.J3), np.eye(3)):
        S = G.so3_alg_matrix(J)
        assert np.array_equal(S, H.so3_skew(e)) and not np.any(np.signbit(S[S == 0]))


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_exp_matches_power_series(group):
    rng = RngHandle(3, 9).generator()
    Z = _rand_alg(group, 12, rng)
    got = G.exp_alg(Z)
    assert G.element_defect(got) < 1e-12
    if group.tag == G.TORUS:
        want = np.exp(Z.payload)
        assert np.max(np.abs(got.payload - want)) < 1e-13
        return
    mat = H.to_matrix(got)
    # so(3) exponentiates as its 3x3 form, into the rotation matrix
    alg = H.d_cover(Z.payload) if group.tag == G.SO3 else Z.payload
    want = np.stack([_series_exp(z.astype(complex)) for z in alg])
    assert np.max(np.abs(mat - want)) < 1e-12


def test_exp_su2_zero_is_identity():
    Z = H.algebra_zero(G.SU2_GROUP)
    assert np.allclose(G.exp_alg(Z).payload, [1.0, 0.0])


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_su2_first_entry_moment():
    n = 100000
    g = G.haar_sample(G.SU2_GROUP, n, RngHandle(101))
    m = np.mean(np.abs(g.payload[:, 0]) ** 2)
    # E|z1|^2 = 1/2; |z1|^2 has variance 1/12 under Haar
    assert abs(m - 0.5) < 3 * np.sqrt(1.0 / 12 / n)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_haar_samples_are_valid_and_centered(group):
    n = 20000
    g = G.haar_sample(group, n, RngHandle(55))
    assert G.element_defect(g) < 1e-12
    ent = H.to_matrix(g) if group.tag != G.TORUS else g.payload
    assert np.max(np.abs(np.mean(ent, axis=0))) < 5.0 / np.sqrt(n)


def test_haar_is_deterministic_per_handle():
    a = G.haar_sample(G.U2_GROUP, 16, RngHandle(42, 3))
    b = G.haar_sample(G.U2_GROUP, 16, RngHandle(42, 3))
    assert np.array_equal(a.payload, b.payload)


# ---------------------------------------------------------------------------
# center projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_p_ad_idempotent_and_self_adjoint(group):
    rng = RngHandle(13, 1).generator()
    Z, W = _rand_alg(group, 50, rng), _rand_alg(group, 50, rng)
    PZ = G.p_ad(Z)
    PPZ = G.p_ad(PZ)
    assert np.max(np.abs(PPZ.payload - PZ.payload)) < 1e-12
    lhs = G.algebra_inner(PZ, W)
    rhs = G.algebra_inner(Z, G.p_ad(W))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_p_ad_closed_forms():
    rng = RngHandle(14).generator()
    for group in (G.SU2_GROUP, G.SO3_GROUP):
        Z = _rand_alg(group, 4, rng)
        assert np.max(np.abs(G.p_ad(Z).payload)) == 0.0
    Zu = _rand_alg(G.U2_GROUP, 4, rng)
    P = G.p_ad(Zu).payload
    tr = (Zu.payload[..., 0, 0] + Zu.payload[..., 1, 1]) / 2
    assert np.allclose(P, tr[..., None, None] * np.eye(2), atol=1e-15)


def test_p_ad_monte_carlo_converges_with_half_order():
    Z = G.AlgebraElement(G.U2_GROUP, np.array([[0.3j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.5j]]))
    exact = G.p_ad(Z).payload
    errs = []
    for i, m in enumerate((100, 1000, 10000)):
        est = G.p_ad_monte_carlo(Z, m, RngHandle(77, i))
        errs.append(np.max(np.abs(est.payload - exact)))
    slope = np.polyfit(np.log(np.array([100, 1000, 10000], float)), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.15


# ---------------------------------------------------------------------------
# covering map and the U(2) parametrization
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
def test_cover_is_homomorphism_and_round_trips(seed, n):
    """SO(3) payloads against their rotation matrices: products, inverses,
    the exponential and renormalization, and the canonical lift of the
    matrices, which is the payload up to sign and the same for p and -p."""
    rng = np.random.default_rng(seed)
    a, b = G.haar_sample(G.SO3_GROUP, n, rng), G.haar_sample(G.SO3_GROUP, n, rng)
    Ra, Rb = H.so3_matrix(a.payload), H.so3_matrix(b.payload)
    assert np.max(np.abs(H.so3_matrix(G.group_mul(a, b).payload) - Ra @ Rb)) < 1e-12
    assert np.max(np.abs(H.so3_matrix(G.group_inv(a).payload)
                         - np.swapaxes(Ra, -1, -2))) < 1e-15
    a3 = rng.standard_normal((n, 3))
    Z = G.AlgebraElement(G.SO3_GROUP, G.so3_alg_from_components(a3))
    want = np.stack([_series_exp(S.astype(complex)) for S in H.so3_skew(a3)])
    assert np.max(np.abs(H.so3_matrix(G.exp_alg(Z).payload) - want)) < 1e-12
    drifted = G.GroupElement(G.SO3_GROUP, a.payload * (1 + 1e-9 * rng.standard_normal((n, 1))))
    fixed = G.renormalize(drifted)
    assert G.element_defect(fixed) < 1e-15
    assert np.max(np.abs(H.so3_matrix(fixed.payload) - Ra)) < 1e-12
    lift = H.so3_to_su2(Ra)
    assert np.max(np.abs(H.so3_matrix(lift) - Ra)) < 1e-12
    sign = np.where(np.sum(np.real(lift * np.conj(a.payload)), axis=-1) < 0, -1.0, 1.0)
    assert np.max(np.abs(lift - sign[:, None] * a.payload)) < 1e-12
    assert np.array_equal(lift, H.so3_to_su2(H.so3_matrix(-a.payload)))


def _shepperd_four_candidates(R):
    """Reference lift: Shepperd's method with its four candidate
    quaternions written out, one per dominant diagonal entry."""
    m = np.swapaxes(R, -1, -2)  # the standard rotation matrix
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    t = m00 + m11 + m22
    q = np.empty(m.shape[:-2] + (4, 4))
    r0 = np.sqrt(np.maximum(1.0 + t, 0.0))
    s0 = np.where(r0 > 0, 0.5 / np.where(r0 > 0, r0, 1.0), 0.0)
    q[..., 0, 0] = 0.5 * r0
    q[..., 0, 1] = (m[..., 2, 1] - m[..., 1, 2]) * s0
    q[..., 0, 2] = (m[..., 0, 2] - m[..., 2, 0]) * s0
    q[..., 0, 3] = (m[..., 1, 0] - m[..., 0, 1]) * s0
    r1 = np.sqrt(np.maximum(1.0 + m00 - m11 - m22, 0.0))
    s1 = np.where(r1 > 0, 0.5 / np.where(r1 > 0, r1, 1.0), 0.0)
    q[..., 1, 0] = (m[..., 2, 1] - m[..., 1, 2]) * s1
    q[..., 1, 1] = 0.5 * r1
    q[..., 1, 2] = (m[..., 0, 1] + m[..., 1, 0]) * s1
    q[..., 1, 3] = (m[..., 0, 2] + m[..., 2, 0]) * s1
    r2 = np.sqrt(np.maximum(1.0 - m00 + m11 - m22, 0.0))
    s2 = np.where(r2 > 0, 0.5 / np.where(r2 > 0, r2, 1.0), 0.0)
    q[..., 2, 0] = (m[..., 0, 2] - m[..., 2, 0]) * s2
    q[..., 2, 1] = (m[..., 0, 1] + m[..., 1, 0]) * s2
    q[..., 2, 2] = 0.5 * r2
    q[..., 2, 3] = (m[..., 1, 2] + m[..., 2, 1]) * s2
    r3 = np.sqrt(np.maximum(1.0 - m00 - m11 + m22, 0.0))
    s3 = np.where(r3 > 0, 0.5 / np.where(r3 > 0, r3, 1.0), 0.0)
    q[..., 3, 0] = (m[..., 1, 0] - m[..., 0, 1]) * s3
    q[..., 3, 1] = (m[..., 0, 2] + m[..., 2, 0]) * s3
    q[..., 3, 2] = (m[..., 1, 2] + m[..., 2, 1]) * s3
    q[..., 3, 3] = 0.5 * r3
    pick = np.argmax(np.stack([t, m00, m11, m22], axis=-1), axis=-1)
    qq = np.take_along_axis(q, pick[..., None, None].repeat(4, axis=-1), axis=-2)[..., 0, :]
    qq = qq / np.linalg.norm(qq, axis=-1, keepdims=True)
    # the first entry within 2**-48 of the largest magnitude leads the sign
    size = np.abs(qq)
    first = np.argmax(size >= size.max(axis=-1, keepdims=True) - 2.0 ** -48, axis=-1)
    lead = np.take_along_axis(qq, first[..., None], axis=-1)
    qq = qq * np.where(lead < 0, -1.0, 1.0)
    return np.stack([qq[..., 0] + 1j * qq[..., 3], qq[..., 1] - 1j * qq[..., 2]], axis=-1)


def test_lift_matches_four_candidate_shepperd():
    def rot(axis, t):
        Z = G.so3_alg_from_components(np.multiply.outer(t, axis))
        return H.so3_matrix(G.exp_alg(G.AlgebraElement(G.SO3_GROUP, Z)).payload)

    t = np.array([np.pi, -np.pi, np.pi - 1e-9, np.pi - 1e-5, -np.pi + 1e-7])
    # (1, 1, 0) ties two quaternion entries of the same sign at t = pi,
    # (1, -1, 1) three of opposite signs
    tilted = np.array([[1.0, 1.0, 0.0], [0.3, 0.4, -0.2], [1.0, -1.0, 1.0]])
    R = np.concatenate(
        [H.so3_matrix(_haar(G.SO3_GROUP, 500, 3).payload), np.eye(3)[None]]
        + [rot(e, t) for e in np.eye(3)]
        + [rot(a / np.linalg.norm(a), t) for a in tilted])
    got = H.so3_to_su2(R)
    want = _shepperd_four_candidates(R)
    assert np.max(np.abs(got - want)) <= 1e-15
    # same sign: no near-antipodal pair
    assert np.min(np.linalg.norm(got + want, axis=-1)) > 1.9
    # batch shape and the unbatched identity
    assert H.so3_to_su2(R[:6].reshape(2, 3, 3, 3)).shape == (2, 3, 2)
    one = H.so3_to_su2(np.eye(3))
    assert np.array_equal(one, [1.0, 0.0])
    # at the three-way tie the first entry leads, so one ulp on R, on all
    # entries or on any one, leaves the lift where it is
    tied = rot(tilted[2] / np.sqrt(3), np.array([np.pi, -np.pi]))
    nudged = [np.nextafter(tied, np.inf), np.nextafter(tied, -np.inf)]
    for i in range(9):
        for to in (np.inf, -np.inf):
            flat = tied.reshape(2, 9).copy()
            flat[:, i] = np.nextafter(flat[:, i], to)
            nudged.append(flat.reshape(2, 3, 3))
    lifts = H.so3_to_su2(np.concatenate([tied] + nudged))
    assert np.max(np.abs(lifts - lifts[0])) <= 2e-15


def test_lift_of_x3_rotation_is_diagonal_phase():
    for alpha in (0.4, 1.3, np.pi / 2, 2.8, np.pi):
        lift = H.so3_to_su2(np.array([[np.cos(alpha), np.sin(alpha), 0.0],
                                      [-np.sin(alpha), np.cos(alpha), 0.0],
                                      [0.0, 0.0, 1.0]]))
        assert np.max(np.abs(lift - [np.exp(0.5j * alpha), 0.0])) < 1e-12


def test_d_cover_matches_derivative_of_cover():
    rng = RngHandle(5).generator()
    Z = _rand_alg(G.SU2_GROUP, 6, rng)
    # the differential of the cover sends E_i to 2 J_i
    got = H.d_cover(Z.payload)
    h = 1e-6
    plus = H.so3_matrix(G.exp_alg(G.AlgebraElement(G.SU2_GROUP, h * Z.payload)).payload)
    minus = H.so3_matrix(G.exp_alg(G.AlgebraElement(G.SU2_GROUP, -h * Z.payload)).payload)
    fd = (plus - minus) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-8
    assert np.max(np.abs(H.d_cover_inv(got) - Z.payload)) < 1e-12
    # an so(3) payload is its su(2) preimage: the JSON edge's 3x3 is the
    # cover's differential of it
    assert np.array_equal(G.so3_alg_matrix(Z.payload), got)


def test_iso_to_u2_example_and_inverse():
    alpha = 1.1
    Rm = np.array([[np.cos(alpha), np.sin(alpha), 0.0],
                   [-np.sin(alpha), np.cos(alpha), 0.0],
                   [0.0, 0.0, 1.0]])
    # the payload of either sign maps to the canonical lift
    R = G.GroupElement(G.SO3_GROUP, -H.so3_to_su2(Rm))
    u = H.iso_so3_torus_to_u2(R, 1.0, +1)
    assert np.allclose(H.to_matrix(u), np.diag([np.exp(0.5j * alpha), np.exp(-0.5j * alpha)]),
                       atol=1e-12)
    # round trip through the 2:1 split
    w = np.exp(2j * np.pi * 0.37)
    u2 = H.iso_so3_torus_to_u2(R, w, -1)
    det, _, g = H.u2_factor(H.to_matrix(u2))
    assert np.max(np.abs(H.so3_matrix(g) - Rm)) < 1e-12
    assert abs(det - w) < 1e-12


# ---------------------------------------------------------------------------
# the unit circle
# ---------------------------------------------------------------------------

def test_unit_exp_matches_complex_exp():
    """cos + i sin against exp(i theta) on 10^6 angles: uniform in a turn,
    negative, large, and 2 pi t as the characters form them."""
    gen = np.random.default_rng(17)
    theta = np.concatenate([
        2 * np.pi * gen.random(250_000),
        -50 * gen.random(250_000),
        1e6 * gen.standard_normal(250_000),
        2 * np.pi * (gen.integers(-40, 40, 250_000) * gen.random(250_000)),
    ])
    got = G.unit_exp(theta)
    assert got.shape == theta.shape and got.dtype == complex
    assert np.max(np.abs(got - np.exp(1j * theta))) <= 2.0 ** -52
