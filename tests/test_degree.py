"""Tests for degree estimation, invariance, straightening, and verdicts."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from liedeg import degree as DG
from liedeg import dynamics as D
from liedeg import groups as G
from liedeg import reps as R
from liedeg import scenarios as S
from liedeg.errors import (ConfigError, DegenerateDegreeError,
                           InconsistentDegreeError, TagMismatchError)

import helpers as H

FLOW = D.default_flow(1)
ALPHA = FLOW.alpha[0]
RNG = np.random.default_rng(20240816)


@pytest.fixture(scope="module")
def manufactured():
    delta = D.su2_diagonal(FLOW, [1])
    zeta = D.su2_twisted_diagonal(FLOW, [1], 0.7)
    phi = D.cohomologous_build(delta, zeta, FLOW)
    return delta, zeta, phi


@pytest.fixture(scope="module")
def manufactured_field(manufactured):
    _, _, phi = manufactured
    pts = D.BasePoint(np.array([[0.13], [0.41], [0.77]]))
    return DG.degree_field(phi, FLOW, pts, 10_000)


# ---------------------------------------------------------------------------
# pointwise Cesaro estimates
# ---------------------------------------------------------------------------

def test_degree_pointwise_zero_m_field():
    c = D.torus_monomial(FLOW, [0])
    est = DG.degree_pointwise(c, FLOW, D.BasePoint([0.3]), 50)
    assert np.max(np.abs(est.value.payload)) == 0.0


def test_degree_pointwise_anzai_exact():
    # constant M-field: the Cesaro average is the constant at every N
    c = D.torus_monomial(FLOW, [3])
    est = DG.degree_pointwise(c, FLOW, D.BasePoint([0.123]), 100)
    assert abs(est.value.payload[0] - 6j * np.pi * ALPHA) < 1e-12
    assert float(np.max(est.diagnostic)) < 1e-12


def test_degree_pointwise_rejects_bad_n():
    c = D.torus_monomial(FLOW, [1])
    with pytest.raises(ConfigError):
        DG.degree_pointwise(c, FLOW, D.BasePoint([0.1]), 0)


def test_manufactured_degree_oracle(manufactured, manufactured_field):
    # degree of the conjugated cocycle is Ad_{zeta^{-1}} of the diagonal one
    _, zeta, _ = manufactured
    fld = manufactured_field
    zt = G.GroupElement(G.SU2_GROUP, zeta.value(fld.points.phases))
    target = G.ad(G.group_inv(zt), G.AlgebraElement(
        G.SU2_GROUP, np.broadcast_to(2 * np.pi * ALPHA * G.E3, (3, 2, 2)).copy()))
    dev = np.max(G.algebra_norm(G.AlgebraElement(
        G.SU2_GROUP, fld.values.payload - target.payload)))
    assert dev <= 5e-3
    # and the degree field genuinely varies over x here
    assert not fld.constant
    assert fld.spread > 1.0


def test_w_invariance_of_estimator(manufactured):
    # Ad_{phi^(1)(x)} est(F_1 x, N) - est(x, N) telescopes to
    # (t_N - t_0)/N, so N * defect stays below twice the sup of ||M||
    # while the defect itself decays like 1/N
    _, _, phi = manufactured
    x = D.BasePoint([0.29])
    x1 = D.flow_advance(FLOW, x, 1.0)
    grid = np.linspace(0, 1, 128, endpoint=False)[:, None]
    m_sup = float(np.max(G.algebra_norm(
        G.AlgebraElement(G.SU2_GROUP, phi.m_field(grid)))))

    def defect(N):
        here = DG.degree_pointwise(phi, FLOW, x, N).value
        there = DG.degree_pointwise(phi, FLOW, x1, N).value
        g1 = G.GroupElement(G.SU2_GROUP, phi.value(x.phases))
        moved = G.ad(g1, there)
        return float(G.algebra_norm(G.AlgebraElement(
            G.SU2_GROUP, moved.payload - here.payload)))

    defects = {N: defect(N) for N in (250, 500, 1000, 2000)}
    for N, d in defects.items():
        assert N * d <= 2 * m_sup * 1.01, (N, d)
    assert defects[2000] < defects[250]


def _sequential_cesaro_sums(c, flow, x, counts):
    """The unblocked sum `_cesaro_sums` replaced, kept as its reference:
    one running sum along one walk of max(counts) steps from x, evaluating
    every point afresh as the M-field walk of `_cesaro_sums` does (a
    character cocycle's value-only walk carries its values instead)."""
    sums, total = {}, None

    def visit(k, phases, g):
        nonlocal total
        term = G.ad(g, G.AlgebraElement(c.group, c.m_field(phases))).payload
        total = term if total is None else total + term
        if k + 1 in counts:
            sums[k + 1] = total

    D.cocycle_iterate(dataclasses.replace(c, step=None), flow, x, max(counts), visit)
    return sums


def _blocked_cases():
    delta = D.su2_diagonal(FLOW, [1])
    zeta = D.su2_twisted_diagonal(FLOW, [1], 0.7)
    flow2 = D.default_flow(2)
    return {"cohomologous-su2": (FLOW, D.cohomologous_build(delta, zeta, FLOW)),
            "su2-two-angle": (FLOW, D.su2_two_angle(FLOW, [1], [2], 0.3, 0.1)),
            "u2-product-matched": (FLOW, D.u2_product(FLOW, [1], [1], 0.3)),
            "u2-product-mismatched": (FLOW, D.u2_product(FLOW, [1], [2], 0.3)),
            "so3-x3-rotation": (FLOW, D.so3_x3_rotation(FLOW, [1], 0.2)),
            "t2-monomial": (flow2, D.torus_monomial(flow2, [[1, 0], [1, 1]]))}


def _block_counts(points, N):
    """1, N/2, N/2 + 1 and N, plus the counts on both sides of the first
    and last block boundaries."""
    blocks, length = DG._block_shape(points, N)
    edges = {length, length + 1, (blocks - 1) * length, (blocks - 1) * length + 1}
    return {1, max(N // 2, 1), N // 2 + 1, N} | {n for n in edges if 1 <= n <= N}


BLOCKED_N = (1, 63, 64, 65, 1500, 10001)


@pytest.mark.parametrize("name", sorted(_blocked_cases()))
def test_blocked_cesaro_sums_match_sequential(name):
    flow, c = _blocked_cases()[name]
    rng = np.random.default_rng(5)
    rows = rng.random((77, flow.dim))
    # a single unbatched point, 6 points and 70 points; one reference walk
    # over all 77 rows serves every set and every N, as rows do not interact
    sets = {(0, 1): rows[0], (1, 7): rows[1:7], (7, 77): rows[7:]}
    wanted = {(rows_of, N): _block_counts(rows_of[1] - rows_of[0], N)
              for rows_of in sets for N in BLOCKED_N}
    ref = _sequential_cesaro_sums(c, flow, D.BasePoint(rows),
                                  set().union(*wanted.values()))
    for ((lo, hi), N), counts in wanted.items():
        got = DG._cesaro_sums(c, flow, D.BasePoint(sets[lo, hi]), counts)
        assert set(got) == counts
        for n in counts:
            want = ref[n][lo:hi].reshape(got[n].shape)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got[n] - want)) <= 1e-12 * scale, (lo, N, n)


@pytest.mark.parametrize("name", sorted(_blocked_cases()))
def test_one_block_repeats_the_sequential_sum_bit_for_bit(name):
    # a single unbatched point is left out: the block axis turns its 0-d
    # arithmetic into 1-element array arithmetic, which rounds complex
    # products differently in the last bit
    flow, c = _blocked_cases()[name]
    rng = np.random.default_rng(6)
    for P in (6, 70):
        x = D.BasePoint(rng.random((P, flow.dim)))
        for N in (1, 63, 64, 65, 127):
            assert DG._block_shape(P, N)[0] == 1
            counts = _block_counts(P, N)
            got = DG._cesaro_sums(c, flow, x, counts)
            ref = _sequential_cesaro_sums(c, flow, x, counts)
            for n in counts:
                assert np.array_equal(got[n], ref[n]), (P, N, n)


def _per_block_join(c, flow, x, counts):
    """`_cesaro_sums` with one Ad call per block, joined block by block:
    the reference for its batched join."""
    blocks, length = DG._block_shape(int(np.prod(x.phases.shape[:-1])), max(counts))
    partial, total = {}, None

    def visit(k, phases, g, m):
        nonlocal total
        term = G.ad(g, G.AlgebraElement(c.group, m)).payload
        total = term if total is None else total + term
        partial[k + 1] = total

    starts = D.BasePoint(DG._block_starts(flow, x, blocks, length))
    products = D.cocycle_iterate(c, flow, starts, length, visit, with_m=True).payload
    lifts = [None]
    for b in range(1, blocks):
        step = G.GroupElement(c.group, products[b - 1])
        lifts.append(step if b == 1 else
                     G.maybe_renormalize(G.group_mul(lifts[-1], step)))

    def moved(b, s):
        return G.ad(lifts[b], G.AlgebraElement(c.group, s)).payload

    before = [None, partial[length][0]]
    for b in range(1, blocks - 1):
        before.append(before[-1] + moved(b, partial[length][b]))
    sums = {}
    for n in counts:
        b = (n - 1) // length
        s = partial[n - b * length][b]
        sums[n] = before[b] + moved(b, s) if b else s
    return sums


@pytest.mark.parametrize("name", sorted(_blocked_cases()))
def test_batched_join_repeats_the_per_block_join_bit_for_bit(name):
    # past three blocks the scan associates the lifts' products otherwise
    # than the block-by-block join: the sums agree to round-off (the worst
    # seen is 2.6e-14 relative), not bit for bit
    flow, c = _blocked_cases()[name]
    rng = np.random.default_rng(8)
    for P, N in ((6, 10_001), (70, 1500)):
        x = D.BasePoint(rng.random((P, flow.dim)))
        counts = _block_counts(P, N)
        assert DG._block_shape(P, N)[0] > 3
        got = DG._cesaro_sums(c, flow, x, counts)
        want = _per_block_join(c, flow, x, counts)
        for n in counts:
            scale = max(1.0, float(np.max(np.abs(want[n]))))
            assert np.max(np.abs(got[n] - want[n])) <= 1e-13 * scale, (P, N, n)


@pytest.mark.parametrize("name", sorted(_blocked_cases()))
def test_scan_join_of_up_to_three_blocks_is_the_per_block_join(name):
    flow, c = _blocked_cases()[name]
    rng = np.random.default_rng(9)
    for P, N, blocks in ((6, 128, 2), (6, 192, 3), (70, 150, 2), (70, 250, 3)):
        x = D.BasePoint(rng.random((P, flow.dim)))
        counts = _block_counts(P, N)
        assert DG._block_shape(P, N)[0] == blocks
        got = DG._cesaro_sums(c, flow, x, counts)
        want = _per_block_join(c, flow, x, counts)
        for n in counts:
            assert np.array_equal(got[n], want[n]), (P, N, n)


def test_block_shape_rule():
    assert DG._block_shape(6, 127) == (1, 127)
    assert DG._block_shape(6, 128) == (2, 64)
    assert DG._block_shape(6, 10_000) == (154, 65)    # 156 asked, 2 past N
    assert DG._block_shape(70, 10_001) == (59, 170)
    assert DG._block_shape(DG.BLOCK_BATCH, 10_000) == (1, 10_000)


def test_block_batch_moves_su2_straighten_by_round_off(monkeypatch):
    """The su2-straighten preset's walk (64 grid + 6 field points) at
    BLOCK_BATCH and at 1024: other block starts and another join order
    move the estimates by round-off only."""
    cfg = S.default_config("su2-straighten")
    flow = D.default_flow(cfg.d)
    phi, _ = S.build_cocycle(flow, cfg.cocycle)
    grid = D.BasePoint(D.quadrature_points(D.QuadratureSpec(64), cfg.d))
    sample = D.BasePoint(np.random.default_rng(3).random((6, cfg.d)))

    def run():
        return DG.su2_straighten(phi, flow, cfg.n_degree, grid, field_points=sample)

    assert DG._block_shape(70, cfg.n_degree)[0] > 15
    new = run()
    monkeypatch.setattr(DG, "BLOCK_BATCH", 1024)
    assert DG._block_shape(70, cfg.n_degree)[0] == 15
    old = run()
    assert abs(new["rho_estimate"] - old["rho_estimate"]) <= 1e-12
    for a, b in ((new["degree_field"].values, old["degree_field"].values),
                 (new["zeta_values"], old["zeta_values"])):
        assert np.max(np.abs(a.payload - b.payload)) <= 1e-12


@pytest.mark.parametrize("N", [1, 65, 200, 10_001])
def test_cesaro_sums_walk_once(monkeypatch, N):
    calls = []
    walk = D.cocycle_iterate

    def counted(*args, **kwargs):
        calls.append(args[3])
        return walk(*args, **kwargs)

    monkeypatch.setattr(D, "cocycle_iterate", counted)
    c = D.su2_two_angle(FLOW, [1], [2], 0.3, 0.1)
    x = D.BasePoint(RNG.random((6, 1)))
    DG._cesaro_sums(c, FLOW, x, {1, max(N // 2, 1), N})
    assert calls == [DG._block_shape(6, N)[1]]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N", [65, 200, 10_001])
def test_cesaro_sums_fused_step_matches_separate_calls(d, N):
    """The cohomologous pair's fused, carried step gives the blocked sums
    of its step-less copy bit for bit."""
    flow = D.default_flow(d)
    if d == 1:
        phi = D.cohomologous_build(D.su2_diagonal(flow, [1]),
                                   D.su2_two_angle(flow, [1], [2], 0.3, 0.1), flow)
    else:
        phi = D.cohomologous_build(D.su2_diagonal(flow, [1, 0]),
                                   D.su2_twisted_diagonal(flow, [1, 1]), flow)
    x = D.BasePoint(RNG.random((6, d)))
    counts = {1, N // 2, N}
    got = DG._cesaro_sums(phi, flow, x, counts)
    want = DG._cesaro_sums(dataclasses.replace(phi, step=None), flow, x, counts)
    for n in counts:
        assert np.array_equal(got[n], want[n]), n


def test_block_starts_are_exactly_rounded_offsets():
    flow = D.default_flow(2)
    x = D.BasePoint(np.zeros(2))
    starts = DG._block_starts(flow, x, 200, 65)
    for b in (1, 17, 199):
        for j, a in enumerate(flow.alpha):
            assert starts[b, j] == float(Fraction(a) * (b * 65) % 1)


@pytest.mark.parametrize("make, N", [
    (lambda: (FLOW, D.so3_x3_rotation(FLOW, [1])), 10_000),
    (lambda: (FLOW, D.torus_monomial(FLOW, [1])), 10_000),
    (lambda: (D.default_flow(2), D.torus_monomial(D.default_flow(2),
                                                   [[1, 0], [1, 1]])), 4000),
], ids=["so3-x3-rotation", "t1-monomial", "t2-monomial"])
def test_constant_degree_estimate_accuracy(make, N):
    # constant M-field: every term of the sum is M, so the estimate is M up
    # to the rounding of the sum; one running sum of N terms lost ~1e-12
    flow, c = make()
    x = D.BasePoint(np.random.default_rng(9).random((6, flow.dim)))
    est = DG.degree_pointwise(c, flow, x, N)
    assert np.max(np.abs(est.value.payload - c.m_field(x.phases))) <= 1e-13


# ---------------------------------------------------------------------------
# degree fields, constancy, spread
# ---------------------------------------------------------------------------

def test_degree_field_constant_flag_for_diagonal():
    c = D.su2_diagonal(FLOW, [1])
    pts = D.BasePoint(RNG.random((5, 1)))
    fld = DG.degree_field(c, FLOW, pts, 200)
    assert fld.constant
    assert fld.spread < 1e-12
    rho = G.algebra_norm(fld.values)
    assert np.max(np.abs(rho - 2 * np.pi * ALPHA)) < 1e-12


def test_degree_field_flags_genuine_variation():
    # rational frequency: the base map is periodic, not uniquely ergodic,
    # and the averaged field keeps genuine x-dependence
    half = D.TranslationFlow((0.5,))
    c = D.su2_two_angle(half, [1], [2], 0.3, 0.1)
    pts = D.BasePoint(np.array([[0.1], [0.3], [0.6]]))
    fld = DG.degree_field(c, half, pts, 64)
    assert not fld.constant
    assert fld.spread > 0.1


@pytest.mark.parametrize("group", [G.SU2_GROUP, G.U2_GROUP])
def test_pairwise_spread_blocks_match_one_shot(group):
    P = 40
    assert P > DG.SPREAD_BLOCK_ROWS
    raw = RNG.standard_normal((P, 2, 2)) + 1j * RNG.standard_normal((P, 2, 2))
    payload = raw - np.conj(np.swapaxes(raw, -1, -2))
    if group == G.SU2_GROUP:
        payload = G.su2_alg_from_components(RNG.standard_normal((P, 3)))
    diff = payload[:, None] - payload[None, :]
    one_shot = float(np.max(G.algebra_norm(G.AlgebraElement(group, diff))))
    assert DG._pairwise_spread(G.AlgebraElement(group, payload)) == one_shot


# ---------------------------------------------------------------------------
# constant closed forms
# ---------------------------------------------------------------------------

def test_constant_diagonal_const_m():
    c = D.su2_twisted_diagonal(FLOW, [1], 0.7)   # constant M-field
    got = DG.degree_constant_diagonal(c, D.QuadratureSpec(8))
    assert np.max(np.abs(got.payload - c.m_field(np.zeros((1, 1)))[0])) < 1e-14


def test_constant_diagonal_anzai_and_su2():
    c = D.torus_monomial(FLOW, [2])
    got = DG.degree_constant_diagonal(c, D.QuadratureSpec(16))
    assert abs(got.payload[0] - 4j * np.pi * ALPHA) < 1e-14
    d = D.su2_diagonal(FLOW, [3])
    got = DG.degree_constant_diagonal(d, D.QuadratureSpec(16))
    want = 6 * np.pi * ALPHA * G.E3
    assert np.max(np.abs(got.payload - want)) < 1e-13
    assert abs(float(G.algebra_norm(got)) - 6 * np.pi * ALPHA) < 1e-12


def test_constant_diagonal_reads_base_dim_from_cocycle():
    # value accepts any trailing dimension, so a d = 1 probe would succeed;
    # the M-field only broadcasts on the 2-torus the cocycle lives over
    flow = D.default_flow(2)
    const = 2j * np.pi * flow.alpha_array
    c = D.Cocycle(G.torus_group(2), lambda ph: np.exp(2j * np.pi * ph),
                  lambda ph: np.broadcast_to(const, ph.shape).copy(), 1, 2,
                  name="T2 identity winding")
    got = DG.degree_constant_diagonal(c, D.QuadratureSpec(4))
    assert np.max(np.abs(got.payload - const)) < 1e-14


def test_constant_ergodic_su2_vanishes(manufactured):
    _, _, phi = manufactured
    got = G.p_ad(DG.degree_constant_diagonal(phi, D.QuadratureSpec(32)))
    assert np.max(np.abs(got.payload)) == 0.0


def test_constant_ergodic_u2_half_trace():
    c = D.u2_product(FLOW, [1], [1], 0.3)
    got = G.p_ad(DG.degree_constant_diagonal(c, D.QuadratureSpec(16)))
    want = np.diag([1j * np.pi * ALPHA, 1j * np.pi * ALPHA])
    assert np.max(np.abs(got.payload - want)) < 1e-13


def test_constant_ergodic_torus_matches_diagonal():
    c = D.torus_monomial(FLOW, [[2], [-1]])
    q = D.QuadratureSpec(8)
    a = DG.degree_constant_diagonal(c, q)
    b = G.p_ad(DG.degree_constant_diagonal(c, q))
    assert np.array_equal(a.payload, b.payload)


# ---------------------------------------------------------------------------
# a_{phi,pi} and kernels
# ---------------------------------------------------------------------------

def test_a_phi_pi_zero_degree():
    rep = R.su2_rep(2)
    assert DG.a_phi_pi(rep, H.algebra_zero(G.SU2_GROUP)) == 0.0


def test_a_phi_pi_su2_parity():
    rho = 1.3
    M = G.AlgebraElement(G.SU2_GROUP, rho * G.E3)   # diag(i rho, -i rho)
    # even line: eigenvalues {2rho, 0, -2rho} -> floor 0
    assert DG.a_phi_pi(R.su2_rep(2), M) < 1e-18
    # odd line: eigenvalues {rho, -rho} -> floor rho^2
    assert abs(DG.a_phi_pi(R.su2_rep(1), M) - rho ** 2) < 1e-10
    assert abs(DG.a_phi_pi(R.su2_rep(3), M) - rho ** 2) < 1e-9


def test_a_phi_pi_field_takes_grid_minimum():
    rho = 1.0
    vals = np.stack([rho * G.E3, 2 * rho * G.E3])
    fld = DG.DegreeField(D.BasePoint(np.array([[0.1], [0.2]])),
                         G.AlgebraElement(G.SU2_GROUP, vals),
                         100, np.zeros(2), 1.0, False)
    got = DG.a_phi_pi(R.su2_rep(1), fld.values)
    assert abs(got - rho ** 2) < 1e-10


@pytest.mark.parametrize("l", [1, 2, 3])
def test_a_phi_pi_field_is_pointwise_minimum(manufactured_field, l):
    rep = R.su2_rep(l)
    values = manufactured_field.values
    per_point = [DG.a_phi_pi(rep, G.AlgebraElement(values.group, p))
                 for p in values.payload]
    assert DG.a_phi_pi(rep, values) == min(per_point)


def _kernel(rep, M):
    """Kernel indices of i dpi(M), as the pipeline's one split gives them."""
    return DG.kernel_split(R.multiplication_matrix(rep, M))[2]


def _splits(M, reps):
    return [DG.kernel_split(R.multiplication_matrix(rep, M)) for rep in reps]


def test_kernel_indices_su2_parity():
    M = G.AlgebraElement(G.SU2_GROUP, 0.9 * G.E3)
    assert _kernel(R.su2_rep(2), M) == [1]
    assert _kernel(R.su2_rep(4), M) == [2]
    assert _kernel(R.su2_rep(1), M) == []
    assert _kernel(R.su2_rep(3), M) == []


def test_kernel_indices_u2_balanced():
    s = 0.7
    M = G.AlgebraElement(G.U2_GROUP, 1j * s * np.eye(2))
    # 2m - l = 0: the differential kills the central direction entirely
    assert _kernel(R.u2_rep(2, 1), M) == [0, 1, 2]
    # 2m - l != 0: no kernel
    assert _kernel(R.u2_rep(1, 1), M) == []


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

def test_invariance_cohomology_trivial_zeta():
    delta = D.su2_diagonal(FLOW, [1])
    e = D.Cocycle(G.SU2_GROUP,
                  lambda ph: np.broadcast_to(np.array([1.0 + 0j, 0.0]),
                                             ph.shape[:-1] + (2,)).copy(),
                  lambda ph: np.zeros(ph.shape[:-1] + (2, 2), dtype=complex),
                  0, 1, name="identity")
    phi = D.cohomologous_build(delta, e, FLOW)
    rep = DG.invariance_check_cohomology(phi, delta, e, FLOW, 200,
                                         D.BasePoint(RNG.random((4, 1))))
    assert rep["max_conjugation_deviation"] < 1e-12
    assert rep["max_norm_deviation"] < 1e-12


def test_invariance_cohomology_manufactured(manufactured):
    delta, zeta, phi = manufactured
    pts = D.BasePoint(np.array([[0.13], [0.41], [0.77]]))
    rep = DG.invariance_check_cohomology(phi, delta, zeta, FLOW, 10_000, pts)
    assert rep["max_conjugation_deviation"] <= 5e-3
    assert rep["max_norm_deviation"] <= 5e-3
    assert rep["n_used"] == 10_000


def test_a_invariance_under_cohomology(manufactured, manufactured_field):
    delta, _, _ = manufactured
    pts = D.BasePoint(np.array([[0.13], [0.41], [0.77]]))
    fld_d = DG.degree_field(delta, FLOW, pts, 400)
    for ell in (1, 2):
        a_d = DG.a_phi_pi(R.su2_rep(ell), fld_d.values)
        a_p = DG.a_phi_pi(R.su2_rep(ell), manufactured_field.values)
        assert abs(a_d - a_p) < 5e-2


def test_invariance_hom_identity():
    c = D.su2_diagonal(FLOW, [1])
    rep = H.invariance_check_homomorphism(
        c, H.hom_identity(G.SU2_GROUP), FLOW, 50, D.BasePoint([0.2]))
    assert rep["max_deviation"] < 1e-14


def test_invariance_hom_torus_power():
    c = D.torus_monomial(FLOW, [2])
    rep = H.invariance_check_homomorphism(
        c, H.hom_torus_power(1, 3), FLOW, 50, D.BasePoint([0.2]))
    assert rep["max_deviation"] < 1e-13
    assert abs(rep["pushed_degree"][0] - 3 * 4j * np.pi * ALPHA) < 1e-12


def test_invariance_hom_so3_circle_u2():
    rot = D.so3_x3_rotation(FLOW, [1])
    tor = D.torus_monomial(FLOW, [1])
    rep = H.invariance_check_homomorphism(
        (rot, tor), H.hom_so3_circle_u2(), FLOW, 64, D.BasePoint([0.2]))
    assert rep["max_deviation"] < 1e-10
    pushed = rep["pushed_degree"]
    # trace component = twice the half-lifted circle degree
    assert abs(np.trace(pushed) - 2j * np.pi * ALPHA) < 1e-12
    # full matrix: diag(i pi alpha (kT+kR), i pi alpha (kT-kR))
    want = np.diag([2j * np.pi * ALPHA, 0.0])
    assert np.max(np.abs(pushed - want)) < 1e-12
    # its traceless part is the rotation's degree 2 pi alpha J3, lifted from
    # the 3x3 form by the inverse of the cover's differential
    lift = H.d_cover_inv(H.so3_skew(np.array([0.0, 0.0, 2 * np.pi * ALPHA])))
    assert np.max(np.abs(pushed - np.trace(pushed) / 2 * np.eye(2) - lift)) < 1e-12


def test_hom_pair_requires_so3_torus():
    c = D.su2_diagonal(FLOW, [1])
    with pytest.raises(TagMismatchError):
        H.hom_apply_cocycle(H.hom_so3_circle_u2(), (c, c))


# ---------------------------------------------------------------------------
# rho_phi, the norm of the SU(2) degree field (constant a.e. in the limit)
# ---------------------------------------------------------------------------

def _norm_deviation(field):
    return float(np.max(np.abs(field.norms - np.mean(field.norms))))


def test_rho_phi_manufactured(manufactured, manufactured_field):
    assert abs(np.mean(manufactured_field.norms) - 2 * np.pi * ALPHA) <= 5e-3
    assert _norm_deviation(manufactured_field) < 1e-3


def test_rho_phi_constancy_improves_with_n(manufactured):
    _, _, phi = manufactured
    pts = D.BasePoint(np.array([[0.13], [0.41], [0.77]]))
    small = _norm_deviation(DG.degree_field(phi, FLOW, pts, 250))
    big = _norm_deviation(DG.degree_field(phi, FLOW, pts, 1000))
    assert big <= small + 1e-12


# ---------------------------------------------------------------------------
# transfer construction and straightening
# ---------------------------------------------------------------------------

def test_transfer_zeta_degenerate_branches():
    rho = 1.3
    plus = DG.su2_transfer_zeta(G.AlgebraElement(G.SU2_GROUP, rho * G.E3), rho)
    assert np.max(np.abs(plus.payload - np.array([1.0 + 0j, 0.0]))) < 1e-15
    minus = DG.su2_transfer_zeta(G.AlgebraElement(G.SU2_GROUP, -rho * G.E3), rho)
    mat = G.su2_matrix(minus.payload)
    assert np.max(np.abs(mat - np.array([[0, -1], [1, 0]]))) < 1e-15


def test_transfer_zeta_generic_random():
    rho = 1.7
    rng = np.random.default_rng(11)
    v = rng.standard_normal((20, 3))
    v = rho * v / np.linalg.norm(v, axis=1, keepdims=True)
    Dm = G.su2_alg_from_components(
        np.stack([v[:, 1], -v[:, 2], v[:, 0]], axis=-1))
    # sanity: components map back as intended (a, b, c)
    a = np.imag(Dm[..., 0, 0])
    assert np.max(np.abs(a - v[:, 0])) < 1e-14
    zeta = DG.su2_transfer_zeta(G.AlgebraElement(G.SU2_GROUP, Dm), rho)
    moved = G.ad(zeta, G.AlgebraElement(G.SU2_GROUP, Dm)).payload
    target = rho * G.E3
    assert np.max(np.abs(moved - target)) <= 1e-8


def test_transfer_zeta_guards():
    rho = 1.0
    with pytest.raises(InconsistentDegreeError):
        DG.su2_transfer_zeta(G.AlgebraElement(G.SU2_GROUP, 0.5 * G.E3), rho)
    with pytest.raises(DegenerateDegreeError):
        DG.su2_transfer_zeta(G.AlgebraElement(G.SU2_GROUP, 0.0 * G.E3), 0.0)


def test_straighten_already_diagonal():
    c = D.su2_diagonal(FLOW, [1])
    grid = D.BasePoint(np.linspace(0, 1, 16, endpoint=False)[:, None])
    out = DG.su2_straighten(c, FLOW, 300, grid)
    assert out["max_off_diagonal"] == 0.0
    assert np.max(np.abs(out["zeta_values"].payload
                         - np.array([1.0 + 0j, 0.0]))) == 0.0


def _shift_cases():
    delta = D.su2_diagonal(FLOW, [1])
    zeta = D.su2_twisted_diagonal(FLOW, [1], 0.7)
    return {"manufactured": D.cohomologous_build(delta, zeta, FLOW),
            "su2-two-angle": D.su2_two_angle(FLOW, [1], [2], 0.3, 0.1),
            "su2-diagonal": delta}


@pytest.mark.parametrize("name", sorted(_shift_cases()))
def test_shift_identity_matches_walk_from_shifted_points(name):
    c = _shift_cases()[name]
    x = D.BasePoint(RNG.random((5, 1)))
    rest = D.BasePoint(RNG.random((2, 1)))
    n = 1500
    both = D.BasePoint(np.concatenate([x.phases, rest.phases]))
    est, at_rest = DG._walk_with_shift(c, FLOW, both, 5, n)
    here = DG.degree_pointwise(c, FLOW, x, n)
    there = DG.degree_pointwise(c, FLOW, D.flow_advance(FLOW, x, 1.0), n)
    others = DG.degree_pointwise(c, FLOW, rest, n)
    for got, want in ((est.value.payload[:5], here.value.payload),
                      (est.half.payload[:5], here.half.payload),
                      (est.value.payload[5:], there.value.payload),
                      (est.half.payload[5:], there.half.payload),
                      (at_rest.value.payload, others.value.payload),
                      (at_rest.half.payload, others.half.payload)):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_straighten_manufactured(manufactured):
    _, _, phi = manufactured
    grid = D.BasePoint(np.linspace(0, 1, 64, endpoint=False)[:, None])
    coarse = DG.su2_straighten(phi, FLOW, 1000, grid)
    fine = DG.su2_straighten(phi, FLOW, 10_000, grid)
    assert fine["max_off_diagonal"] <= 1e-2
    assert fine["max_off_diagonal"] < coarse["max_off_diagonal"]
    # recovered diagonal winds like x^k with k = 1, up to constant phase
    d00 = fine["delta_values"].payload[:, 0]
    angles = np.unwrap(np.angle(d00))
    slope = np.polyfit(grid.phases[:, 0], angles, 1)[0] / (2 * np.pi)
    assert abs(slope - 1.0) < 0.05
    assert abs(fine["rho_estimate"] - 2 * np.pi * ALPHA) < 5e-3


def test_straighten_degenerate_raises():
    c = D.su2_diagonal(FLOW, [0])   # constant cocycle, zero degree
    grid = D.BasePoint(np.linspace(0, 1, 8, endpoint=False)[:, None])
    with pytest.raises(DegenerateDegreeError):
        DG.su2_straighten(c, FLOW, 100, grid)


def test_straighten_wrong_group():
    c = D.torus_monomial(FLOW, [1])
    with pytest.raises(TagMismatchError):
        DG.su2_straighten(c, FLOW, 100, D.BasePoint(np.array([[0.1]])))


# ---------------------------------------------------------------------------
# verdicts and reporting
# ---------------------------------------------------------------------------

def test_verdict_su2_semisimple():
    out = DG.ergodicity_verdict(G.SU2_GROUP, H.algebra_zero(G.SU2_GROUP), True)
    assert out["verdict"] == DG.NOT_UNIQUELY_ERGODIC_B


def test_verdict_u2_traceless():
    M = G.AlgebraElement(G.U2_GROUP, 1j * np.diag([1.0, -1.0]))
    out = DG.ergodicity_verdict(G.U2_GROUP, M, True)
    assert out["verdict"] == DG.NOT_UNIQUELY_ERGODIC_A


def test_verdict_u2_with_trace_no_obstruction():
    M = G.AlgebraElement(G.U2_GROUP, 1j * np.diag([1.0, 0.0]))
    out = DG.ergodicity_verdict(G.U2_GROUP, M, True)
    assert out["verdict"] == DG.NO_OBSTRUCTION


def test_verdict_torus_no_obstruction():
    M = G.AlgebraElement(G.torus_group(1), np.array([2j]))
    out = DG.ergodicity_verdict(G.torus_group(1), M, True)
    assert out["verdict"] == DG.NO_OBSTRUCTION


def test_verdict_zero_degree_no_obstruction():
    out = DG.ergodicity_verdict(G.SU2_GROUP, H.algebra_zero(G.SU2_GROUP), False)
    assert out["verdict"] == DG.NO_OBSTRUCTION


def test_degree_report_serializes():
    M = G.AlgebraElement(G.SU2_GROUP, 1.1 * G.E3)
    verdict = DG.ergodicity_verdict(G.SU2_GROUP, M, True)
    reps = [R.su2_rep(1), R.su2_rep(2)]
    rep = DG.degree_report(G.SU2_GROUP, M, reps, _splits(M, reps),
                           verdict, 10_000, "manufactured",
                           diagnostics={"spread": 1e-7})
    text = json.dumps(rep, sort_keys=True)
    back = json.loads(text)
    assert back["group"] == "SU2"
    assert back["N_used"] == 10_000
    assert back["verdict"] == DG.NOT_UNIQUELY_ERGODIC_B
    labels = [r["label"] for r in back["per_rep"]]
    assert labels == ["su2 l=1", "su2 l=2"]
    even = back["per_rep"][1]
    assert even["kernel_indices"] == [1]
    assert even["a_phi_pi"] < 1e-15
    odd = back["per_rep"][0]
    assert abs(odd["a_phi_pi"] - 1.1 ** 2) < 1e-10
    eigs = np.array(even["eigenvalues"])
    assert np.all(np.diff(eigs) >= 0)
    assert abs(eigs[-1] - 2.2) < 1e-10


def test_degree_report_torus_vector():
    M = G.AlgebraElement(G.torus_group(2), np.array([2j * np.pi, 0.0j]))
    verdict = DG.ergodicity_verdict(G.torus_group(2), M, True)
    reps = [R.torus_rep([1, 0])]
    rep = DG.degree_report(G.torus_group(2), M, reps, _splits(M, reps),
                           verdict, 100, "diagonal-route", {})
    json.dumps(rep)
    assert rep["M_star"][0][1] == pytest.approx(2 * np.pi)
