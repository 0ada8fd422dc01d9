from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeg import groups as G
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
    noisy = G.GroupElement(G.SO3_GROUP, R.payload + 1e-8 * np.ones((3, 3)))
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
def test_u2_written_out_products_match_matmul(seed, n, shape, log_scale):
    # any complex 2x2 payload, not only unitary or skew-Hermitian ones
    rng = np.random.default_rng(seed)

    def draw():
        return 10.0 ** log_scale * (rng.standard_normal((n, 2, 2))
                                    + 1j * rng.standard_normal((n, 2, 2)))

    g = G.haar_sample(G.U2_GROUP, n, rng).payload
    a, Z = draw(), draw()
    if shape == "scalar-g":
        g, a = g[0], a[0]
    elif shape == "scalar-z":
        Z = Z[0]
    tol = 1e-14 * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(Z))) ** 2)
    checks = [
        (G.group_mul(G.GroupElement(G.U2_GROUP, a), G.GroupElement(G.U2_GROUP, Z)).payload,
         a @ Z),
        (G.ad(G.GroupElement(G.U2_GROUP, g), G.AlgebraElement(G.U2_GROUP, Z)).payload,
         g @ Z @ np.conj(np.swapaxes(g, -1, -2))),
    ]
    for got, want in checks:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol
    gram = np.conj(np.swapaxes(Z, -1, -2)) @ Z
    want = float(np.max(np.abs(gram - np.eye(2))))
    assert abs(G.element_defect(G.GroupElement(G.U2_GROUP, Z)) - want) <= tol


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
    basis = [G.AlgebraElement(G.SU2_GROUP, E) for E in G.SU2_BASIS]
    gram = np.array([[G.algebra_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(3), atol=1e-15)
    basis = [G.AlgebraElement(G.SO3_GROUP, J) for J in G.SO3_BASIS]
    gram = np.array([[G.algebra_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(3), atol=1e-15)


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
    want = np.stack([_series_exp(z.astype(complex)) for z in Z.payload])
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

def test_cover_is_homomorphism_and_round_trips():
    a = _haar(G.SU2_GROUP, 500, 1)
    b = _haar(G.SU2_GROUP, 500, 2)
    lhs = G.su2_to_so3(G.group_mul(a, b)).payload
    rhs = (G.su2_to_so3(a).payload @ G.su2_to_so3(b).payload)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    R = G.su2_to_so3(a)
    assert G.element_defect(R) < 1e-12
    back = G.su2_to_so3(G.so3_to_su2(R))
    assert np.max(np.abs(back.payload - R.payload)) < 1e-12
    # lift is canonical: same output for g and -g
    lift1 = G.so3_to_su2(G.su2_to_so3(a)).payload
    neg = G.GroupElement(G.SU2_GROUP, -a.payload)
    lift2 = G.so3_to_su2(G.su2_to_so3(neg)).payload
    assert np.max(np.abs(lift1 - lift2)) < 1e-12


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
    lead = np.take_along_axis(qq, np.argmax(np.abs(qq), axis=-1)[..., None], axis=-1)
    qq = qq * np.where(lead < 0, -1.0, 1.0)
    return np.stack([qq[..., 0] + 1j * qq[..., 3], qq[..., 1] - 1j * qq[..., 2]], axis=-1)


def test_lift_matches_four_candidate_shepperd():
    def rot(axis, t):
        Z = G.so3_alg_from_components(np.multiply.outer(t, axis))
        return G.exp_alg(G.AlgebraElement(G.SO3_GROUP, Z)).payload

    t = np.array([np.pi, -np.pi, np.pi - 1e-9, np.pi - 1e-5, -np.pi + 1e-7])
    # (1, 1, 0) ties two quaternion entries of the same sign; a tie of
    # opposite signs would leave the canonical sign to round-off
    tilted = np.array([[1.0, 1.0, 0.0], [0.3, 0.4, -0.2]])
    R = np.concatenate(
        [_haar(G.SO3_GROUP, 500, 3).payload, np.eye(3)[None]]
        + [rot(e, t) for e in np.eye(3)]
        + [rot(a / np.linalg.norm(a), t) for a in tilted])
    got = G.so3_to_su2(G.GroupElement(G.SO3_GROUP, R)).payload
    want = _shepperd_four_candidates(R)
    assert np.max(np.abs(got - want)) <= 1e-15
    # same sign: no near-antipodal pair
    assert np.min(np.linalg.norm(got + want, axis=-1)) > 1.9
    # batch shape and the unbatched identity
    batched = G.GroupElement(G.SO3_GROUP, R[:6].reshape(2, 3, 3, 3))
    assert G.so3_to_su2(batched).payload.shape == (2, 3, 2)
    one = G.so3_to_su2(G.GroupElement(G.SO3_GROUP, np.eye(3))).payload
    assert np.array_equal(one, [1.0, 0.0])


def test_lift_of_x3_rotation_is_diagonal_phase():
    for alpha in (0.4, 1.3, np.pi / 2, 2.8, np.pi):
        R = G.GroupElement(G.SO3_GROUP, np.array(
            [[np.cos(alpha), np.sin(alpha), 0.0],
             [-np.sin(alpha), np.cos(alpha), 0.0],
             [0.0, 0.0, 1.0]]))
        lift = G.so3_to_su2(R).payload
        assert np.max(np.abs(lift - [np.exp(0.5j * alpha), 0.0])) < 1e-12


def test_d_cover_matches_derivative_of_cover():
    rng = RngHandle(5).generator()
    Z = _rand_alg(G.SU2_GROUP, 6, rng)
    got = G.d_cover(Z).payload
    h = 1e-6
    plus = G.su2_to_so3(G.exp_alg(G.AlgebraElement(G.SU2_GROUP, h * Z.payload))).payload
    minus = G.su2_to_so3(G.exp_alg(G.AlgebraElement(G.SU2_GROUP, -h * Z.payload))).payload
    fd = (plus - minus) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-8
    back = G.d_cover_inv(G.AlgebraElement(G.SO3_GROUP, got))
    assert np.max(np.abs(back.payload - Z.payload)) < 1e-12


def test_iso_to_u2_example_and_inverse():
    alpha = 1.1
    R = G.GroupElement(G.SO3_GROUP, np.array(
        [[np.cos(alpha), np.sin(alpha), 0.0],
         [-np.sin(alpha), np.cos(alpha), 0.0],
         [0.0, 0.0, 1.0]]))
    u = G.iso_so3_torus_to_u2(R, 1.0, +1)
    assert np.allclose(u.payload, np.diag([np.exp(0.5j * alpha), np.exp(-0.5j * alpha)]),
                       atol=1e-12)
    # round trip through the 2:1 split
    w = np.exp(2j * np.pi * 0.37)
    u2 = G.iso_so3_torus_to_u2(R, w, -1)
    R2, det = G.u2_split(u2)
    assert np.max(np.abs(R2.payload - R.payload)) < 1e-12
    assert abs(det - w) < 1e-12


def test_track_branch_repairs_random_sign_flips():
    rng = RngHandle(9).generator()
    t = np.linspace(0, 1, 60)
    smooth = np.stack([np.cos(2 * np.pi * t) * np.exp(1j * t),
                       np.sin(2 * np.pi * t) * np.exp(-2j * t)], axis=-1)
    smooth /= np.linalg.norm(smooth, axis=-1, keepdims=True)
    signs = np.where(rng.random(60) < 0.4, -1.0, 1.0)
    signs[0] = 1.0
    tracked, report = G.track_branch(smooth * signs[:, None], G.SU2_GROUP)
    assert np.max(np.abs(tracked - smooth)) < 1e-12
    assert report["max_jump"] < 0.2


def test_track_branch_reports_genuine_jump():
    # antipodal hop in the middle cannot be repaired by sign flips
    seq = np.array([[1.0, 0.0], [0.0, 1.0j], [1.0, 0.0]], dtype=complex)
    _, report = G.track_branch(seq, G.SU2_GROUP)
    assert report["max_jump"] > 1.0
