from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeg import groups as G
from liedeg import reps as R
from liedeg.errors import ConfigError
from liedeg.rng import RngHandle

import helpers as H

SAMPLE_REPS = [
    R.torus_rep((2,)),
    R.torus_rep((1, -2)),
    R.su2_rep(1),
    R.su2_rep(3),
    R.so3_rep(1),
    R.so3_rep(2),
    R.u2_rep(2, 1),
    R.u2_rep(3, -1),
]


def _haar(group, n, stream=0):
    return G.haar_sample(group, n, RngHandle(909, stream))


# ---------------------------------------------------------------------------
# evaluation: homomorphism, unitarity, conventions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rep", SAMPLE_REPS, ids=lambda r: r.name)
def test_rep_eval_is_unitary_homomorphism(rep):
    n = 60
    a = _haar(rep.group, n, 1)
    b = _haar(rep.group, n, 2)
    Ma = R.rep_eval(rep, a)
    Mb = R.rep_eval(rep, b)
    Mab = R.rep_eval(rep, G.group_mul(a, b))
    assert np.max(np.abs(Mab - Ma @ Mb)) < 1e-10
    gram = np.conj(np.swapaxes(Ma, -1, -2)) @ Ma
    assert np.max(np.abs(gram - np.eye(rep.dim))) < 1e-10


def test_paper_is_symmetric_rescaling_of_orthonormal():
    for l in (1, 2, 4):
        n = R.su2_norms(l)
        for rep in (R.su2_rep(l), R.u2_rep(l, 1)):
            assert np.array_equal(R.paper_scale(rep), n[:, None] * n[None, :])
    # the torus characters and the SO(3) irreps have a single scaling
    for rep in (R.torus_rep((2, -1)), R.so3_rep(2)):
        assert np.array_equal(R.paper_scale(rep), np.ones((rep.dim, rep.dim)))


def _substitution_coefficients(l, u):
    """Independent oracle: expand p_k((w1,w2) u) by explicit polynomial
    composition.  Row j, column k gives the coefficient of w1^j w2^{l-j}."""
    out = np.zeros((l + 1, l + 1), dtype=complex)
    for k in range(l + 1):
        # (u00 w1 + u10 w2)^k * (u01 w1 + u11 w2)^{l-k}
        first = np.zeros(k + 1, dtype=complex)
        for a in range(k + 1):
            first[a] = math.comb(k, a) * u[0, 0] ** a * u[1, 0] ** (k - a)
        second = np.zeros(l - k + 1, dtype=complex)
        for a in range(l - k + 1):
            second[a] = math.comb(l - k, a) * u[0, 1] ** a * u[1, 1] ** (l - k - a)
        # index = power of w1
        out[:, k] = np.convolve(first, second)
    return out


def _c_matrix(l, u00, u11, u01, u10):
    """Raw coefficients c_jk(u) of one 2x2 matrix from the points-last term
    products and the table's scatter."""
    entries = (np.atleast_1d(e) for e in (u00, u11, u01, u10))
    return (R._terms(l, *entries).T @ R._su2_table(l)[0]).reshape(l + 1, l + 1)


def test_su2_matrix_matches_polynomial_substitution_oracle():
    """On SU(2) pairs and on general complex 2x2 matrices, the form of
    det^(m - l) Sym^l(u) that `_table_eval` keeps as the U(2) reference;
    the points-first table of `helpers.su2_table_reference` agrees."""
    gen = RngHandle(4242).generator()
    for l in (1, 2, 3):
        for _ in range(5):
            v = gen.standard_normal(4)
            v /= np.linalg.norm(v)
            z1, z2 = v[0] + 1j * v[1], v[2] + 1j * v[3]
            u = G.su2_matrix(np.array([z1, z2]))
            entries = (z1, np.conj(z1), z2, -np.conj(z2))
            for got in (_c_matrix(l, *entries), H.su2_table_reference(l, *entries)):
                assert np.max(np.abs(got - _substitution_coefficients(l, u))) < 1e-13
            u = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            entries = (u[0, 0], u[1, 1], u[0, 1], u[1, 0])
            for got in (_c_matrix(l, *entries), H.su2_table_reference(l, *entries)):
                assert np.max(np.abs(got - _substitution_coefficients(l, u))) < 1e-12


def _table_eval(rep, payload):
    """rep on raw payloads through `helpers.su2_table_reference`, SO(3) at
    label 2l, U(2) as det^(m - l) Sym^l(u) on the 2x2 form u: the
    evaluation the term products replaced."""
    tag, l = rep.group.tag, rep.label[0]
    if tag == G.U2:
        u = H.to_matrix(G.GroupElement(G.U2_GROUP, payload))
        u00, u01, u10, u11 = (u[..., i, j] for i in (0, 1) for j in (0, 1))
        det = u00 * u11 - u01 * u10
        c = H.su2_table_reference(l, u00, u11, u01, u10) * R._scale(rep)
        return R._unit_power(det / np.abs(det), rep.label[1] - l)[..., None, None] * c
    if tag == G.SO3:
        l *= 2
    z1, z2 = payload[..., 0], payload[..., 1]
    return H.su2_table_reference(l, z1, np.conj(z1), z2, -np.conj(z2)) * R._scale(rep)


@pytest.mark.parametrize("rep, tol", [(R.su2_rep(l), 5e-15) for l in (0, 1, 4, 8, 12)]
                         + [(R.u2_rep(l, m), 5e-15) for l, m in ((3, 1), (4, 4), (12, 14))]
                         + [(R.so3_rep(l), 2e-13) for l in (1, 2, 6, 12)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_term_products_match_the_points_first_table(rep, tol):
    # batched over two axes, and one unbatched payload
    payload = _haar(rep.group, 120, 5).payload
    payload = payload.reshape((4, 30) + payload.shape[1:])
    got = R.rep_eval_payload(rep, payload)
    assert got.shape == (4, 30, rep.dim, rep.dim)
    assert np.max(np.abs(got - _table_eval(rep, payload))) <= tol
    one = R.rep_eval_payload(rep, payload[0, 0])
    assert one.shape == (rep.dim, rep.dim) and np.max(np.abs(one - got[0, 0])) <= tol


def _rotations_by_pi(n):
    axes = np.concatenate([np.random.default_rng(23).normal(size=(n, 3)), np.eye(3),
                           [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]])
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    Z = G.so3_alg_from_components(np.pi * axes)
    return G.exp_alg(G.AlgebraElement(G.SO3_GROUP, Z)).payload


def test_so3_irreps_read_the_unsigned_lift():
    # label 2l is even, so pi is the same bits on either sign of the
    # payload: Haar draws, rotations by pi, e
    rots = np.concatenate([_haar(G.SO3_GROUP, 400, 6).payload, _rotations_by_pi(40),
                           [[1.0, 0.0]]])

    def via_terms(rep, z):
        z1, z2 = z[:, 0], z[:, 1]
        terms = R._terms(2 * rep.label[0], z1, np.conj(z1), z2, -np.conj(z2))
        out = (terms.T @ R._su2_table(2 * rep.label[0])[0]) * R._scale(rep).reshape(-1)
        return out.reshape(-1, rep.dim, rep.dim)

    for l in range(13):
        rep = R.so3_rep(l)
        want = via_terms(rep, rots)
        assert np.array_equal(R.rep_eval_payload(rep, rots), want), l
        assert np.array_equal(R.rep_eval_payload(rep, -rots), want), l


@pytest.mark.parametrize("rep", [R.su2_rep(l) for l in (0, 1, 2, 4, 7, 12)]
                         + [R.so3_rep(l) for l in (0, 1, 3, 12)]
                         + [R.u2_rep(3, m) for m in (1, 3, 5)] + [R.u2_rep(0, -2)]
                         + [R.torus_rep((2,)), R.torus_rep((1, -3)), R.torus_rep((0, 0))],
                         ids=lambda r: r.name)
def test_mean_payload_is_the_weighted_sum_of_matrices(rep):
    # U(2) covers det^(m - l) with m - l < 0, = 0 and > 0; both sides carry
    # the per-point round-off of the term table (2e-13 for SO(3) at label 24)
    n, rng = 50, np.random.default_rng(rep.dim)
    payload = _haar(rep.group, n, 7).payload
    weights = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    P = R.rep_eval_payload(rep, payload)
    per_point = 2e-13 if rep == R.so3_rep(12) else 5e-15
    for stop in (1, 21, n):
        got = R.rep_mean_payload(rep, payload[:stop], weights[:, :stop])
        assert got.shape == (3, rep.dim, rep.dim)
        want = np.einsum("rn,nij->rij", weights[:, :stop], P[:stop])
        bound = 2 * per_point * np.sum(np.abs(weights[:, :stop]), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= bound), stop
    one = R.rep_mean_payload(rep, payload, weights[:1])
    assert one.shape == (1, rep.dim, rep.dim)


def test_paper_diagonal_formulas_exact():
    gen = RngHandle(5150).generator()
    for _ in range(100):
        # su2: diag(z1, conj z1) -> paper entries j!(l-j)! z1^{2j-l}
        z1 = np.exp(2j * np.pi * gen.random())
        g = G.GroupElement(G.SU2_GROUP, np.array([z1, 0.0]))
        for l in (1, 2, 4, 6):
            mat = R.rep_eval_payload(R.su2_rep(l), g.payload) * R.paper_scale(R.su2_rep(l))
            want = np.diag([math.factorial(j) * math.factorial(l - j) * z1 ** (2 * j - l)
                            for j in range(l + 1)])
            assert np.max(np.abs(mat - want)) < 1e-11
    # so3: x3-rotation by t -> diag(e^{ijt}), j = -l..l
    for _ in range(20):
        t = 2 * np.pi * gen.random()
        Rz = H.so3_to_su2(np.array(
            [[np.cos(t), np.sin(t), 0], [-np.sin(t), np.cos(t), 0], [0, 0, 1.0]]))
        for l in (1, 2, 4):
            mat = R.rep_eval_payload(R.so3_rep(l), Rz)
            want = np.diag(np.exp(1j * np.arange(-l, l + 1) * t))
            assert np.max(np.abs(mat - want)) < 1e-11
    # u2: diag(u1, u2) -> diag(u1^{m+j-l} u2^{m-j})
    for _ in range(20):
        u1 = np.exp(2j * np.pi * gen.random())
        u2 = np.exp(2j * np.pi * gen.random())
        ud = G.GroupElement(G.U2_GROUP, H.u2_payload(np.diag([u1, u2])))
        for (l, m) in [(1, 0), (2, 1), (3, -1), (4, 2)]:
            mat = R.rep_eval_payload(R.u2_rep(l, m), ud.payload)
            want = np.diag([u1 ** (m + j - l) * u2 ** (m - j) for j in range(l + 1)])
            assert np.max(np.abs(mat - want)) < 1e-11


def test_u2_scalar_twist_consistency():
    g = _haar(G.SU2_GROUP, 40)
    gen = RngHandle(61).generator()
    z = np.exp(2j * np.pi * gen.random(40))
    # the triple of the 2x2 form z g carries w = +-z
    u = G.GroupElement(G.U2_GROUP, H.u2_payload(z[:, None, None] * G.su2_matrix(g.payload)))
    for (l, m) in [(1, 0), (2, 1), (3, 2), (4, -2)]:
        left = R.rep_eval_payload(R.u2_rep(l, m), u.payload)
        right = (z ** (2 * m - l))[:, None, None] * R.rep_eval_payload(R.su2_rep(l), g.payload)
        assert np.max(np.abs(left - right)) < 1e-11


def test_so3_character_matches_su2_double_label():
    # the SO(3) payload is the canonical lift of g's rotation matrix, +-g
    g = _haar(G.SU2_GROUP, 100)
    Rg = H.so3_to_su2(H.so3_matrix(g.payload))
    for l in (1, 2):
        tr1 = np.trace(R.rep_eval_payload(R.so3_rep(l), Rg), axis1=-2, axis2=-1)
        tr2 = np.trace(R.rep_eval_payload(R.su2_rep(2 * l), g.payload), axis1=-2, axis2=-1)
        assert np.max(np.abs(tr1 - tr2)) < 1e-9


# ---------------------------------------------------------------------------
# SO(3): the Euler-angle Wigner evaluator, kept as the differential reference
# for the evaluation through the cover
# ---------------------------------------------------------------------------

def so3_euler_angles(R):
    """Angles (alpha, beta, gamma) with R = A(alpha) B(beta) C(gamma).

    A and C rotate about the x3 axis with first row (cos, sin, 0); B tilts
    about x2 with B[0,0] = cos(beta), B[0,2] = -sin(beta).  beta comes from
    atan2(hypot(R13, R23), R33); at the gimbal points, gamma is set to 0
    and the whole x3-rotation is reported in alpha.
    """
    R = np.asarray(R)
    g13, g23, g33 = R[..., 0, 2], R[..., 1, 2], R[..., 2, 2]
    sb = np.hypot(g13, g23)
    beta = np.arctan2(sb, g33)
    generic = sb > 1e-12
    alpha_g = np.arctan2(g23, -g13)
    gamma_g = np.arctan2(R[..., 2, 1], R[..., 2, 0])
    north = g33 > 0
    alpha_0 = np.arctan2(R[..., 0, 1], R[..., 0, 0])
    alpha_pi = np.arctan2(R[..., 0, 1], -R[..., 0, 0])
    alpha = np.where(generic, alpha_g, np.where(north, alpha_0, alpha_pi))
    gamma = np.where(generic, gamma_g, 0.0)
    return alpha, beta, gamma


def so3_from_euler(alpha, beta, gamma):
    alpha, beta, gamma = np.broadcast_arrays(alpha, beta, gamma)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    A = np.zeros(np.shape(alpha) + (3, 3))
    A[..., 0, 0], A[..., 0, 1] = ca, sa
    A[..., 1, 0], A[..., 1, 1] = -sa, ca
    A[..., 2, 2] = 1.0
    B = np.zeros_like(A)
    B[..., 0, 0], B[..., 0, 2] = cb, -sb
    B[..., 1, 1] = 1.0
    B[..., 2, 0], B[..., 2, 2] = sb, cb
    C = np.zeros_like(A)
    C[..., 0, 0], C[..., 0, 1] = cg, sg
    C[..., 1, 0], C[..., 1, 1] = -sg, cg
    C[..., 2, 2] = 1.0
    return A @ B @ C


def _wigner_d(l, half_cos, half_sin):
    """Little-d matrix from cos(beta/2), sin(beta/2), by the Wigner sum."""
    f = math.factorial
    powers = np.arange(2 * l + 1)
    C = np.asarray(half_cos, dtype=float)[..., None] ** powers
    S = np.asarray(half_sin, dtype=float)[..., None] ** powers
    out = np.zeros(np.shape(half_cos) + (2 * l + 1, 2 * l + 1))
    for j in range(-l, l + 1):
        for k in range(-l, l + 1):
            pref = math.sqrt(f(l + k) * f(l - k) * f(l + j) * f(l - j))
            for m in range(max(0, k - j), min(l - j, l + k) + 1):
                coeff = (-1) ** m * pref / (f(l - j - m) * f(l + k - m) * f(m) * f(m + j - k))
                out[..., j + l, k + l] += (coeff * C[..., 2 * l + k - j - 2 * m]
                                           * S[..., 2 * m + j - k])
    return out


def _wigner_so3(l, R):
    alpha, beta, gamma = so3_euler_angles(R)
    dmat = _wigner_d(l, np.cos(beta / 2), np.sin(beta / 2))
    jj = np.arange(-l, l + 1)
    row = np.exp(1j * jj * alpha[..., None])
    col = np.exp(1j * jj * gamma[..., None])
    return dmat * row[..., :, None] * col[..., None, :]


def test_euler_round_trip_and_gimbal():
    gen = RngHandle(8).generator()
    a = 2 * np.pi * gen.random(50)
    b = np.pi * gen.random(50)
    c = 2 * np.pi * gen.random(50)
    Rm = so3_from_euler(a, b, c)
    a2, b2, c2 = so3_euler_angles(Rm)
    back = so3_from_euler(a2, b2, c2)
    assert np.max(np.abs(back - Rm)) < 1e-12
    # gimbal on both poles: reconstruction must still be exact
    for beta in (0.0, np.pi):
        Rm = so3_from_euler(1.1, beta, 0.7)
        a2, b2, c2 = so3_euler_angles(Rm)
        assert abs(c2) == 0.0
        assert np.max(np.abs(so3_from_euler(a2, b2, c2) - Rm)) < 1e-12


def test_wigner_middle_entry_is_cos_beta():
    betas = np.linspace(0, np.pi, 9)
    d = _wigner_d(1, np.cos(betas / 2), np.sin(betas / 2))
    assert np.max(np.abs(d[:, 1, 1] - np.cos(betas))) < 1e-14


def _so3_reference_inputs():
    """SO(3) payloads: Haar samples, rotations about each axis (through pi)
    and the lifted gimbal tilts beta in {0, pi}."""
    gen = RngHandle(77).generator()
    t = np.concatenate([2 * np.pi * gen.random(6), [np.pi, np.pi - 1e-9, 0.0]])
    axes = [G.exp_alg(G.AlgebraElement(
        G.SO3_GROUP, G.so3_alg_from_components(np.outer(t, e)))).payload
        for e in np.eye(3)]
    tilts = [H.so3_to_su2(so3_from_euler(2 * np.pi * gen.random(4), beta,
                                         2 * np.pi * gen.random(4)))
             for beta in (0.0, np.pi)]
    return np.concatenate([_haar(G.SO3_GROUP, 40, 7).payload] + axes + tilts)


@pytest.mark.parametrize("l", range(R.L_CAP + 1))
@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_so3_cover_evaluation_matches_wigner_reference(l, seed):
    # the fixed inputs and 20 drawn Haar payloads, against the rotation matrices
    drawn = G.haar_sample(G.SO3_GROUP, 20, np.random.default_rng(seed)).payload
    payload = np.concatenate([_so3_reference_inputs(), drawn])
    got = R.rep_eval_payload(R.so3_rep(l), payload)
    assert np.max(np.abs(got - _wigner_so3(l, H.so3_matrix(payload)))) < 1e-12


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

HIGH_REPS = ([R.su2_rep(l) for l in (4, 8, 12)] + [R.so3_rep(l) for l in (4, 8, 12)]
             + [R.u2_rep(l, 1) for l in (4, 8, 12)])


@pytest.mark.parametrize("rep", SAMPLE_REPS + HIGH_REPS, ids=lambda r: r.name)
def test_differential_skew_linear_commutator(rep):
    gen = RngHandle(99, rep.dim).generator()

    def rand_alg():
        if rep.group.tag == G.TORUS:
            return G.AlgebraElement(rep.group, 1j * gen.standard_normal(rep.group.torus_dim))
        if rep.group.tag == G.SU2:
            return G.AlgebraElement(rep.group, G.su2_alg_from_components(gen.standard_normal(3)))
        if rep.group.tag == G.SO3:
            return G.AlgebraElement(rep.group, G.so3_alg_from_components(gen.standard_normal(3)))
        h = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        return G.AlgebraElement(rep.group, 0.5 * (h - np.conj(h.T)))

    Z, W = rand_alg(), rand_alg()
    DZ = R.rep_differential(rep, Z)
    DW = R.rep_differential(rep, W)
    assert np.max(np.abs(DZ + np.conj(np.swapaxes(DZ, -1, -2)))) < 1e-9
    lin = R.rep_differential(
        rep, G.AlgebraElement(rep.group, 2.0 * Z.payload - 3.0 * W.payload))
    assert np.max(np.abs(lin - (2 * DZ - 3 * DW))) < 1e-9
    if rep.group.tag != G.TORUS:
        comm = G.AlgebraElement(rep.group, Z.payload @ W.payload - W.payload @ Z.payload)
        Dc = R.rep_differential(rep, comm)
        assert np.max(np.abs(Dc - (DZ @ DW - DW @ DZ))) < 1e-12
    # equivariance: d pi(Ad_g Z) = pi(g) d pi(Z) pi(g)^-1
    g = G.haar_sample(rep.group, 1, RngHandle(99, rep.dim + 100))
    g = G.GroupElement(rep.group, g.payload[0])
    Pg = R.rep_eval(rep, g)
    DAd = R.rep_differential(rep, G.ad(g, Z))
    assert np.max(np.abs(DAd - Pg @ DZ @ np.conj(Pg.T))) < 1e-12


def test_differential_closed_forms_match_fd():
    # one formula serves diagonal and off-diagonal data: a numerically-zero
    # off-diagonal entry must leave the diagonal closed form in place
    rho = 0.9
    closed = R.rep_differential(R.su2_rep(4), G.AlgebraElement(
        G.SU2_GROUP, np.diag([1j * rho, -1j * rho])))
    eps = np.array([[0.0, 1e-22], [-1e-22, 0.0]])
    fd = R.rep_differential(R.su2_rep(4), G.AlgebraElement(
        G.SU2_GROUP, np.diag([1j * rho, -1j * rho]) + eps))
    assert np.max(np.abs(closed - fd)) < 1e-9
    want = np.diag(1j * rho * (2 * np.arange(5) - 4))
    assert np.max(np.abs(closed - want)) == 0.0


@pytest.mark.parametrize("rep", [R.su2_rep(4), R.so3_rep(2), R.u2_rep(4, 1)],
                         ids=lambda r: r.name)
def test_differential_peak_near_result(rep):
    """dpi is rescaled in place: no second copy of the batch."""
    Z = _offdiagonal_batch(rep.group, n=4096)
    R.rep_differential(rep, _offdiagonal_batch(rep.group, n=2))  # table set-up
    tracemalloc.start()
    try:
        out = R.rep_differential(rep, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * out.nbytes


def _richardson_on_z(rep, Z, h=1e-3):
    """Reference d pi(Z): Richardson-extrapolated central differences of
    t -> pi(exp(t Z)), taken on Z itself rather than on a basis."""
    def at(t):
        return R.rep_eval_payload(
            rep, G.exp_alg(G.AlgebraElement(rep.group, t * Z.payload)).payload)

    def central(step):
        return (-at(2 * step) + 8 * at(step) - 8 * at(-step) + at(-2 * step)) / (12 * step)

    return (16 * central(h / 2) - central(h)) / 15


def _offdiagonal_batch(group, n=5, seed=4):
    """Batched algebra elements with unit-scale, nonzero off-diagonal
    coordinates (plus a central part for U(2))."""
    gen = np.random.default_rng(seed)
    x = gen.uniform(0.2, 1.0, (n, 3)) * gen.choice([-1.0, 1.0], (n, 3))
    if group.tag == G.SO3:
        return G.AlgebraElement(group, G.so3_alg_from_components(x))
    payload = G.su2_alg_from_components(x)
    if group.tag == G.U2:
        payload = payload + 1j * gen.uniform(-1, 1, n)[:, None, None] * np.eye(2)
    return G.AlgebraElement(group, payload)


DIFFERENTIAL_LABELS = ([(G.SU2_GROUP, (l,)) for l in range(R.L_CAP + 1)]
                       + [(G.SO3_GROUP, (l,)) for l in range(R.L_CAP + 1)]
                       + [(G.U2_GROUP, (l, m)) for l in range(R.L_CAP + 1)
                          for m in (-1, 0, 2)])


# the unitary pi and dpi, or both times `paper_scale`: the paper's scaling
SCALINGS = {"ORTHONORMAL": lambda rep: 1.0, "PAPER": R.paper_scale}


@pytest.mark.parametrize("convention", list(SCALINGS))
@pytest.mark.parametrize("group, label", DIFFERENTIAL_LABELS,
                         ids=lambda v: getattr(v, "tag", str(v)))
def test_differential_matches_richardson_on_z(group, label, convention):
    rep = R.Representation(group, label)
    scale = SCALINGS[convention](rep)
    Z = _offdiagonal_batch(group)
    got = R.rep_differential(rep, Z) * scale
    assert got.shape == (5, rep.dim, rep.dim)
    ref = _richardson_on_z(rep, Z) * scale
    # PAPER entries grow like (l!)^2, so the bound is relative to the reference
    assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("rep", [R.su2_rep(3), R.u2_rep(2, 1)], ids=lambda r: r.name)
def test_differential_paper_images_rescale_orthonormal(rep):
    """The paper's dpi is n_j n_k times the unitary one; over n_j^2 in row
    j it is the raw derivation on the binary forms, a Lie homomorphism."""
    Z, W = _offdiagonal_batch(rep.group), _offdiagonal_batch(rep.group, seed=5)
    n = R.su2_norms(rep.label[0])
    ortho = R.rep_differential(rep, Z)
    paper = R.rep_differential(rep, Z) * R.paper_scale(rep)
    assert np.max(np.abs(paper - ortho * n[:, None] * n[None, :])) < 1e-12

    def raw(A):
        return R.rep_differential(rep, A) * R.paper_scale(rep) / (n ** 2)[:, None]

    comm = G.AlgebraElement(rep.group, Z.payload @ W.payload - W.payload @ Z.payload)
    assert np.max(np.abs(raw(comm) - (raw(Z) @ raw(W) - raw(W) @ raw(Z)))) < 1e-10


def test_differential_eigenvalue_patterns():
    rho, s = 1.3, 0.6
    for l in range(1, 7):
        Z = G.AlgebraElement(G.SU2_GROUP, np.diag([1j * rho, -1j * rho]))
        d_o = R.rep_differential(R.su2_rep(l), Z)
        d_p = R.rep_differential(R.su2_rep(l), Z) * R.paper_scale(R.su2_rep(l))
        jj = np.arange(l + 1)
        evs_o = np.diag(1j * d_o).real * -1.0  # eigenvalues of i * dpi
        assert np.max(np.abs(np.sort(evs_o) - np.sort(rho * (l - 2 * jj)))) < 1e-10
        fac = np.array([math.factorial(j) * math.factorial(l - j) for j in jj])
        evs_p = np.diag(1j * d_p).real * -1.0
        assert np.max(np.abs(np.sort(evs_p) - np.sort(fac * rho * (l - 2 * jj)))) < 1e-10
    for (l, m) in [(1, 0), (2, 1), (3, 1), (4, 2)]:
        Z = G.AlgebraElement(G.U2_GROUP, np.diag([1j * s, 1j * s]))
        d_o = R.rep_differential(R.u2_rep(l, m), Z)
        want = np.full(l + 1, 1j * s * (2 * m - l))
        assert np.max(np.abs(np.diag(d_o) - want)) < 1e-10


# ---------------------------------------------------------------------------
# integer powers: torus characters and U(2)'s centre factor
# ---------------------------------------------------------------------------

# square-and-multiply and numpy's pow each round off by about |e| eps; the
# largest ratio seen on 4,096 Haar draws is 2.6
POWER_TOL = H.POWER_TOL
# the largest |2m - l| a U(2) label reaches
E_MAX = 2 * (R.LABEL_BOUND - 1) + R.L_CAP
_EXPONENTS = [0, 1, -1, 2, -2, 3, -3, 7, -7, 2 ** 31 - 1, 1 - 2 ** 31]


def _circle(n=256, stream=7):
    return _haar(G.torus_group(1), n, stream).payload[:, 0]


def _check_unit_power(z, e):
    got = R._unit_power(z, e)
    assert got is not z and got.shape == z.shape
    assert np.max(np.abs(got - z ** e)) <= POWER_TOL * max(abs(e), 1)
    if e < 0:
        assert np.array_equal(got, np.conj(R._unit_power(z, -e)))


@pytest.mark.parametrize("e", _EXPONENTS)
def test_unit_power_matches_complex_pow(e):
    _check_unit_power(_circle(), e)


@settings(max_examples=200, deadline=None)
@given(st.integers(-E_MAX, E_MAX))
def test_unit_power_matches_complex_pow_fuzz(e):
    _check_unit_power(_circle(64, 8), e)


@pytest.mark.parametrize("q", [(0,), (1,), (-3,), (0, 0), (1, -2), (5, -7),
                               (2 ** 31 - 1, 1 - 2 ** 31)])
def test_torus_characters_match_pow_reference(q):
    rep = R.torus_rep(q)
    payload = _haar(rep.group, 200, 3).payload
    got = R.rep_eval_payload(rep, payload)
    ref = H.torus_character_reference(payload, q)[..., None, None]
    assert got.shape == (200, 1, 1)
    assert np.max(np.abs(got - ref)) <= POWER_TOL * max(R.rep_weight(rep), 1)


U2_LABELS = [(0, 0), (0, 1), (2, 1), (2, 2), (1, 1), (3, -1), (4, 9),
             (2, 2 ** 31 - 1), (2, 1 - 2 ** 31)]


@pytest.mark.parametrize("l, m", U2_LABELS)
def test_u2_centre_factor_matches_pow_reference(l, m):
    payload = _haar(G.U2_GROUP, 200, 4).payload
    got = R.rep_eval_payload(R.u2_rep(l, m), payload)
    ref = H.u2_rep_reference(R.u2_rep(l, m), H.to_matrix(G.GroupElement(G.U2_GROUP, payload)))
    assert np.max(np.abs(got - ref)) <= POWER_TOL * max(abs(2 * m - l), 1)


@pytest.mark.parametrize("l, m", U2_LABELS)
def test_u2_irreps_need_no_square_root_cut(l, m):
    """det u near -1, on both sides of circle_sqrt's branch cut: the
    reference's factorisation flips z's sign across it, while the triples
    carry a continuous w, and z^(2m - l) pi_l(u / z) does not move; nor
    does the payload's own sign move a bit of pi."""
    eps = np.linspace(-1e-9, 1e-9, 200)
    w = 1j * G.unit_exp(eps / 2)  # det = w^2 = -e^(i eps)
    payload = np.concatenate([_haar(G.SU2_GROUP, 200, 11).payload, w[:, None]], axis=-1)
    got = R.rep_eval_payload(R.u2_rep(l, m), payload)
    ref = H.u2_rep_reference(R.u2_rep(l, m), H.to_matrix(G.GroupElement(G.U2_GROUP, payload)))
    assert np.max(np.abs(got - ref)) <= POWER_TOL * max(abs(2 * m - l), 1)
    assert np.array_equal(R.rep_eval_payload(R.u2_rep(l, m), -payload), got)


@pytest.mark.parametrize("rep", [R.torus_rep([2 ** 31 - 1, 1 - 2 ** 31]),
                                 R.u2_rep(2, 2 ** 31 - 1), R.u2_rep(2, 1 - 2 ** 31)],
                         ids=lambda r: r.name)
def test_largest_labels_stay_unitary_homomorphisms(rep):
    """At the largest accepted entries round-off is about |e| eps, near
    1e-6; a loop of |e| - 1 multiplies would not finish here."""
    mats = R.rep_eval_payload(rep, _haar(rep.group, 200, 5).payload)
    assert np.all(np.isfinite(mats))
    hom, unit = R.haar_deviations(rep, 200, RngHandle(909, 6))
    assert hom <= 1e-5 and unit <= 1e-5


@pytest.mark.parametrize("m", [2 ** 31 - 1, 1 - 2 ** 31])
def test_largest_u2_labels_stay_unitary_off_the_group(monkeypatch, m):
    """Walked payloads leave the group by round-off.  Scaled by 1 + 1e-13,
    w has modulus 1 + 1e-13, and raised to 2m - l near 2**32 the
    unnormalized w would scale pi by about 1 + 4e-4; the unit w / |w|
    keeps pi within the round-off of the largest labels."""
    haar = G.haar_sample
    monkeypatch.setattr(G, "haar_sample", lambda *a: G.GroupElement(
        G.U2_GROUP, haar(*a).payload * (1 + 1e-13)))
    hom, unit = R.haar_deviations(R.u2_rep(2, m), 200, RngHandle(909, 6))
    assert hom <= 1e-5 and unit <= 1e-5


# ---------------------------------------------------------------------------
# Peter-Weyl
# ---------------------------------------------------------------------------

def test_peter_weyl_product_rule_is_exact():
    for rep in (R.su2_rep(2), R.so3_rep(1), R.torus_rep((3,))):
        out = R.peter_weyl_check(rep, nodes=32)
        assert out["max_abs_deviation"] < 1e-12
    # the SO(3) nodes give gamma one turn; SU(2) nodes with two turns
    # would alias at this size
    out = R.peter_weyl_check(R.so3_rep(4), nodes=16)
    assert out["max_abs_deviation"] < 1e-12
    out = R.peter_weyl_check(R.u2_rep(2, 1), nodes=24)
    assert out["max_abs_deviation"] < 1e-12


# terms per node: C(L + 3, 3) at SU(2) label L, which is 2l for SO(3)
@pytest.mark.parametrize("rep, nodes, terms", [(R.so3_rep(12), 12, 2925),
                                               (R.su2_rep(4), 48, 35)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_peter_weyl_chunk_fits_term_budget(rep, nodes, terms, monkeypatch):
    batches = []

    def fake_eval(r, payload):
        batches.append(payload.shape[0])
        return np.zeros(payload.shape[:1] + (rep.dim, rep.dim), dtype=complex)

    monkeypatch.setattr(R, "rep_eval_payload", fake_eval)
    out = R.peter_weyl_check(rep, nodes=nodes)
    assert sum(batches) == out["n_nodes"] == nodes ** 3
    assert max(batches) * terms * 16 <= R._CHUNK_BYTES
    assert max(batches) <= 65536


def _euler_nodes_meshgrid(n, gamma_period):
    """The meshgrid formula `su2_euler_nodes` replaced: the reference."""
    alpha = 2 * np.pi * np.arange(n) / n
    gamma = gamma_period * np.arange(n) / n
    u, w = np.polynomial.legendre.leggauss(n)
    hc = np.sqrt((1 + u) / 2)
    hs = np.sqrt((1 - u) / 2)
    A, H, C = np.meshgrid(alpha, np.arange(n), gamma, indexing="ij")
    z1 = np.exp(0.5j * A) * hc[H] * np.exp(0.5j * C)
    z2 = np.exp(0.5j * A) * hs[H] * np.exp(-0.5j * C)
    return np.stack([z1.ravel(), z2.ravel()], axis=-1), (w[H] / 2).ravel() / (n * n)


@pytest.mark.parametrize("n", [1, 5, 48])
@pytest.mark.parametrize("gamma_period", [4 * np.pi, 2 * np.pi])
def test_su2_euler_nodes_match_meshgrid_reference(n, gamma_period):
    payload, weights = R.su2_euler_nodes(n, gamma_period)
    ref_payload, ref_weights = _euler_nodes_meshgrid(n, gamma_period)
    assert np.array_equal(payload, ref_payload)
    assert np.array_equal(weights, ref_weights)


@pytest.mark.parametrize("group", [G.SU2_GROUP, G.SO3_GROUP], ids=lambda g: g.name)
def test_su2_euler_nodes_peak_near_payload(group):
    # SO(3) nodes are SU(2) payloads too, one preimage each
    n = 48
    R.su2_euler_nodes(2)  # numpy's leggauss set-up is not the nodes' cost
    tracemalloc.start()
    try:
        R._quadrature_nodes(group, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * R.quadrature_bytes(group, n)


# ---------------------------------------------------------------------------
# the paper's scaling and validation
# ---------------------------------------------------------------------------

def test_paper_element_values_and_ranges():
    # the paper's coefficients are rep_eval_payload(...) * paper_scale(rep):
    # n_j n_k times the unitary ones for SU(2), the unitary ones for SO(3)
    g = _haar(G.SU2_GROUP, 1)
    l = 3
    n = R.su2_norms(l)
    ortho = R.rep_eval_payload(R.su2_rep(l), g.payload)
    paper = ortho * R.paper_scale(R.su2_rep(l))
    for j in range(l + 1):
        for k in range(l + 1):
            assert abs(paper[..., j, k] - n[j] * n[k] * ortho[..., j, k]) < 1e-11
    full = R.rep_eval_payload(R.so3_rep(2), g.payload)
    assert np.array_equal(full * R.paper_scale(R.so3_rep(2)), full)


def test_label_validation():
    with pytest.raises(ConfigError):
        R.su2_rep(-1)
    with pytest.raises(ConfigError):
        R.su2_rep(R.L_CAP + 1)
    with pytest.raises(ConfigError):
        R.Representation(G.torus_group(2), (1,))
    # non-integral entries are refused, not truncated
    for bad in (lambda: R.su2_rep(1.5), lambda: R.torus_rep([2.7]),
                lambda: R.Representation(G.SU2_GROUP, (1.5,)),
                lambda: R.u2_rep(2, 0.5), lambda: R.su2_rep(True),
                lambda: R.Representation(G.U2_GROUP, (True, 2)),
                lambda: R.Representation(G.torus_group(2), (1, np.False_)),
                lambda: R.torus_rep([1, True])):
        with pytest.raises(ConfigError, match="must be integers"):
            bad()
    # entries of size 2**31 and more, where round-off in z^q grows to nan or 1e155
    for bad in (lambda: R.torus_rep([2 ** 31]), lambda: R.torus_rep([1, -2 ** 31]),
                lambda: R.u2_rep(2, 2 ** 31), lambda: R.u2_rep(2, 2 ** 62),
                lambda: R.torus_rep([10 ** 23])):
        with pytest.raises(ConfigError, match="must be integers below 2"):
            bad()
    assert R.u2_rep(2, 2 ** 31 - 1).label == (2, 2 ** 31 - 1)
    assert R.torus_rep([2 ** 31 - 1, 1 - 2 ** 31]).dim == 1
    # integral floats pass and are stored as ints
    rep = R.su2_rep(2.0)
    assert rep.label == (2,) and type(rep.label[0]) is int and rep == R.su2_rep(2)


_FUZZ_GROUPS = [G.torus_group(1), G.torus_group(2), G.SU2_GROUP, G.SO3_GROUP, G.U2_GROUP]
_LABEL_ENTRIES = st.one_of(
    st.integers(-2, R.L_CAP + 1), st.integers(),
    st.integers(-2 ** 80, 2 ** 80),  # past int64
    st.sampled_from([2 ** 31 - 1, 2 ** 31, 1 - 2 ** 31, -2 ** 31, 2 ** 63, -2 ** 63]),
    st.floats(), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_GROUPS), st.lists(_LABEL_ENTRIES, max_size=3))
def test_representation_fuzz(group, label):
    """Every label is refused with ConfigError or gives a rep whose
    matrices on Haar samples are finite and unitary; at the largest
    accepted entries, 2**31 - 1, round-off moves them by about 6e-7.
    A label with a bool anywhere in it is refused."""
    if any(isinstance(e, bool) for e in label):
        with pytest.raises(ConfigError):
            R.Representation(group, tuple(label))
        return
    try:
        rep = R.Representation(group, tuple(label))
    except ConfigError:
        return
    assert type(rep.dim) is int
    mats = R.rep_eval_payload(rep, _haar(group, 4).payload)
    assert mats.shape == (4, rep.dim, rep.dim)
    assert np.all(np.isfinite(mats))
    gram = mats @ np.conj(np.swapaxes(mats, -1, -2))
    assert np.max(np.abs(gram - np.eye(rep.dim))) < 1e-4


def test_rep_weight_values():
    assert R.rep_weight(R.torus_rep((2, -3))) == 5
    assert R.rep_weight(R.su2_rep(4)) == 4
    assert R.rep_weight(R.so3_rep(2)) == 2
    assert R.rep_weight(R.u2_rep(2, 1)) == 2
    assert R.rep_weight(R.u2_rep(2, 2)) == 4
