"""Fiber correlations, commutator averages, and spectral verdicts."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedeg.degree as DG
import liedeg.dynamics as D
import liedeg.groups as G
import liedeg.koopman as K
import liedeg.reps as R
from liedeg.errors import ConfigError, NonHermitianError, TagMismatchError

import helpers as H

FLOW = D.default_flow(1)
ALPHA = FLOW.alpha[0]
QUAD = D.QuadratureSpec(16)


@pytest.fixture(scope="module")
def manufactured():
    delta = D.su2_diagonal(FLOW, 1)
    zeta = D.su2_twisted_diagonal(FLOW, 1)
    phi = D.cohomologous_build(delta, zeta, FLOW)
    return delta, zeta, phi


@pytest.fixture(scope="module")
def manufactured_degree(manufactured):
    _, _, phi = manufactured
    grid = D.BasePoint(D.quadrature_points(D.QuadratureSpec(8), 1))
    return DG.degree_field(phi, FLOW, grid, 2000)


# ---------------------------------------------------------------------------
# fiber vectors and inner products
# ---------------------------------------------------------------------------

def test_fiber_vector_validation():
    rep = R.su2_rep(1)
    with pytest.raises(ConfigError):
        K.constant_fiber(rep, [1.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        K.monomial_fiber(rep, [[1], [0], [2]])
    # non-integral windings are refused, not truncated to [[1], [0]]
    with pytest.raises(ConfigError):
        K.monomial_fiber(rep, [[1.5], [0.7]])
    assert K.monomial_fiber(rep, [[1.0], [0.0]]).degree_bound == 1
    # one length-d_pi vector per two-dimensional mode row, or a refusal
    with pytest.raises(ConfigError):
        K.FiberVector(rep, np.zeros((1, 1), dtype=int), np.ones((1, 3)))
    with pytest.raises(ConfigError):
        K.FiberVector(rep, np.zeros(2, dtype=int), np.ones((2, 2)))


def test_mode_dimension_guard():
    # windings sized for the wrong base torus are refused with exit code 2,
    # while a constant's zero mode fits any d
    anzai = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep((0,))
    psi = K.monomial_fiber(rep, [[1, 0]])
    zero = G.AlgebraElement(G.torus_group(1), np.zeros(1, dtype=complex))
    for run in (lambda: K.correlation_series(psi, psi, anzai, FLOW, 4, QUAD),
                lambda: K.koopman_apply_corr(psi, psi, anzai, FLOW, 1, QUAD),
                lambda: K.mixing_verdict(rep, anzai, FLOW, _split(rep, zero), 50, QUAD, [psi],
                                         _bound(rep, anzai)),
                lambda: K.fiber_coefficients(psi, np.zeros((1, 1)))):
        with pytest.raises(ConfigError, match="do not fit a d = 1 base torus"):
            run()
    const = K.constant_fiber(rep, [1.0])
    flow2 = D.default_flow(2)
    for flow in (FLOW, flow2):
        c = D.torus_monomial(flow, [[1] * flow.dim])
        s = K.correlation_series(const, const, c, flow, 4, QUAD)
        assert np.max(np.abs(np.abs(s.values) - 1.0)) < 1e-14


def test_coefficient_shapes():
    rep = R.su2_rep(2)
    psi = K.constant_fiber(rep, [1.0, 2.0, 3.0])
    pts = np.random.default_rng(0).random((7, 1))
    assert K.fiber_coefficients(psi, pts).shape == (7, 3)
    mono = K.monomial_fiber(rep, [[1], [0], [-2]])
    vals = K.fiber_coefficients(mono, pts)
    assert vals.shape == (7, 3)
    assert np.allclose(vals[:, 1], 1.0)
    assert np.allclose(vals[:, 2], np.exp(-4j * np.pi * pts[:, 0]))
    assert mono.degree_bound == 2


def _norm(psi, quadrature, d):
    return np.sqrt(H.inner_product(psi, psi, quadrature, d).real)


def test_inner_product_orthonormality():
    rep = R.su2_rep(1)
    psi1 = K.monomial_fiber(rep, [[1], [2]])
    psi2 = K.monomial_fiber(rep, [[3], [-1]])
    assert abs(H.inner_product(psi1, psi1, QUAD, 1) - 1.0) < 1e-12
    assert abs(H.inner_product(psi1, psi2, QUAD, 1)) < 1e-12
    assert abs(_norm(psi1, QUAD, 1) - 1.0) < 1e-12
    # a winding row of length 2 needs the T^2 grid, which `d` selects
    psi = K.monomial_fiber(R.torus_rep([1]), [[1, 2]])
    assert abs(_norm(psi, QUAD, 2) - 1.0) < 1e-12


def test_inner_product_guards(manufactured):
    # a pair must share the representation
    _, _, phi = manufactured
    with pytest.raises(TagMismatchError):
        K.correlation_series(K.constant_fiber(R.su2_rep(1), [1, 0]),
                             K.constant_fiber(R.su2_rep(2), [1, 0, 0]), phi, FLOW, 1, QUAD)


# ---------------------------------------------------------------------------
# correlations: closed-form oracles
# ---------------------------------------------------------------------------

def test_constant_cocycle_closed_form():
    # For phi(x) = w0 constant and unit-monomial coefficients of winding q1
    # on the torus rep of weight q:  c_N = w0^(q N) exp(2 pi i q1 N alpha).
    const = D.torus_monomial(FLOW, [[0]], theta0=[0.3])
    rep = R.torus_rep((2,))
    psi = K.monomial_fiber(rep, [[1]])
    w0 = np.exp(2j * np.pi * 0.3)
    for N in range(0, 7):
        expected = w0 ** (2 * N) * np.exp(2j * np.pi * N * ALPHA)
        got, err = K.koopman_apply_corr(psi, psi, const, FLOW, N, QUAD)
        assert abs(got - expected) < 1e-12
        assert err < 1e-12


def test_corr_at_zero_matches_inner_product(manufactured):
    _, _, phi = manufactured
    rep = R.su2_rep(1)
    psi1 = K.monomial_fiber(rep, [[1], [0]])
    psi2 = K.monomial_fiber(rep, [[0], [2]])
    c0, _ = K.koopman_apply_corr(psi1, psi2, phi, FLOW, 0, QUAD)
    assert abs(c0 - H.inner_product(psi1, psi2, QUAD, 1)) < 1e-13
    self0, _ = K.koopman_apply_corr(psi1, psi1, phi, FLOW, 0, QUAD)
    assert abs(self0.imag) < 1e-13


def test_winding_fiber_correlations_vanish():
    # phi(x) = e(x) acting on the weight-1 fiber kills every constant probe
    # exactly: the integrand winds N full turns.
    anzai = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep((1,))
    probe = K.constant_fiber(rep, [1.0])
    for N in range(1, 21):
        c, err = K.koopman_apply_corr(probe, probe, anzai, FLOW, N, QUAD)
        assert abs(c) < 1e-12
        assert err < 1e-12


def test_zero_weight_fiber_is_pure_point():
    # On the weight-0 fiber the cocycle does not act; the base rotation's
    # own eigenfunction returns c_N = exp(2 pi i N alpha), |c_N| = 1.
    anzai = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep((0,))
    psi = K.monomial_fiber(rep, [[1]])
    for N in range(1, 9):
        c, _ = K.koopman_apply_corr(psi, psi, anzai, FLOW, N, QUAD)
        assert abs(c - np.exp(2j * np.pi * N * ALPHA)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(q1=st.integers(-3, 3), q2=st.integers(-3, 3), N=st.integers(1, 6))
def test_correlation_conjugation_symmetry(q1, q2, N):
    anzai = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep((1,))
    psi1 = K.monomial_fiber(rep, [[q1]])
    psi2 = K.monomial_fiber(rep, [[q2]])
    a, _ = K.koopman_apply_corr(psi1, psi2, anzai, FLOW, N, QUAD)
    b, _ = K.koopman_apply_corr(psi2, psi1, anzai, FLOW, -N, QUAD)
    assert abs(a - np.conj(b)) < 1e-10


def test_correlation_norm_bound(manufactured):
    _, _, phi = manufactured
    rep = R.su2_rep(1)
    psi1 = K.monomial_fiber(rep, [[1], [0]])
    psi2 = K.monomial_fiber(rep, [[0], [2]])
    bound = _norm(psi1, QUAD, 1) * _norm(psi2, QUAD, 1)
    for N in range(0, 8):
        c, _ = K.koopman_apply_corr(psi1, psi2, phi, FLOW, N, QUAD)
        assert abs(c) <= bound + 1e-12


def test_correlation_linear_in_second_argument(manufactured):
    _, _, phi = manufactured
    rep = R.su2_rep(1)
    psi1 = K.monomial_fiber(rep, [[1], [0]])
    psi2 = K.monomial_fiber(rep, [[0], [2]])
    psi3 = K.constant_fiber(rep, [0.5, -1.0])
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    # a psi2 + b psi3 as a two-term mode sum: mode 0 carries a e_0 + b v3
    vectors = a * psi2.vectors + b * np.array([psi3.vectors[0], [0.0, 0.0]])
    psi_mix = K.FiberVector(rep, psi2.modes, vectors)
    assert psi_mix.degree_bound == psi2.degree_bound
    for N in (0, 1, 3, 5):
        mixed, _ = K.koopman_apply_corr(psi1, psi_mix, phi, FLOW, N, QUAD)
        c2, _ = K.koopman_apply_corr(psi1, psi2, phi, FLOW, N, QUAD)
        c3, _ = K.koopman_apply_corr(psi1, psi3, phi, FLOW, N, QUAD)
        assert abs(mixed - (a * c2 + b * c3)) < 1e-12


def test_correlation_group_guard(manufactured):
    _, _, phi = manufactured
    rep = R.torus_rep((1,))
    psi = K.constant_fiber(rep, [1.0])
    with pytest.raises(TagMismatchError):
        K.koopman_apply_corr(psi, psi, phi, FLOW, 1, QUAD)


def test_sizing_rule_beats_aliasing():
    # With too few nodes the winding integrand aliases to a spurious value;
    # the sizing rule lifts the node count so the result is exact.
    anzai = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep((1,))
    probe = K.constant_fiber(rep, [1.0])
    sized, _ = K.koopman_apply_corr(probe, probe, anzai, FLOW, 10, D.QuadratureSpec(4))
    assert abs(sized) < 1e-12
    aliased = K._corr_on_grid(probe, probe, anzai, FLOW, 10, 5)
    assert abs(aliased) > 1e-3


# ---------------------------------------------------------------------------
# correlation series
# ---------------------------------------------------------------------------

def test_series_structure_and_csv(manufactured):
    _, _, phi = manufactured
    rep = R.su2_rep(1)
    psi = K.monomial_fiber(rep, [[1], [0]])
    s = K.correlation_series(psi, psi, phi, FLOW, 12, QUAD)
    assert s.n_max == 12
    assert len(s.values) == len(s.err_estimates) == 13
    assert s.flagged == []
    assert abs(s.values[0].imag) < 1e-12
    text = s.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "N,re,im,abs,err_estimate"
    assert len(lines) == 14
    for n, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert int(parts[0]) == n
        re, im, mag, err = map(float, parts[1:])
        assert abs(complex(re, im) - s.values[n]) < 1e-15
        assert abs(mag - abs(s.values[n])) < 1e-15


def test_series_flags_discontinuous_integrands():
    # the parity-mismatched lift has branch jumps, so pi o phi has a Fourier
    # tail of order one above its declared degree at odd l: every N >= 1 is
    # flagged, and N = 0, where no factor of phi enters, is not
    u2m = D.u2_product(FLOW, [1], [2])
    n_max = 20
    for l, tail in ((1, 0.99), (3, 1.25)):
        rep = R.u2_rep(l, 1)
        assert abs(K.fourier_tail(u2m, rep, FLOW) - tail) < 0.01, l
        probe = K.constant_fiber(rep, np.ones(rep.dim) / np.sqrt(rep.dim))
        s = K.correlation_series(probe, probe, u2m, FLOW, n_max, QUAD)
        assert s.flagged == list(range(1, n_max + 1)), l
        assert s.err_estimates[0] == 0.0, l


def test_series_flags_an_understated_degree():
    # a cocycle that declares one degree too few has a tail of order one
    # above it on the (4F+1)-node grid, so its series is flagged at every
    # N >= 1; the grid it is sized by is then no longer exact
    c = D.su2_two_angle(FLOW, [1], [2])
    assert c.freq_bound == 3  # exp(theta1 E1) exp(theta2 E2) has degree 1 + 2
    low = dataclasses.replace(c, freq_bound=c.freq_bound - 1)
    rep = R.su2_rep(1)
    assert K.fourier_tail(c, rep, FLOW) < 1e-14
    assert K.fourier_tail(low, rep, FLOW) > 0.1
    probe = K.constant_fiber(rep, [1.0, 0.0])
    n_max = 6
    s = K.correlation_series(probe, probe, low, FLOW, n_max, D.QuadratureSpec(4))
    assert s.flagged == list(range(1, n_max + 1)) and s.err_estimates[0] == 0.0
    exact = K.correlation_series(probe, probe, c, FLOW, n_max, D.QuadratureSpec(4))
    assert exact.flagged == [] and np.max(exact.err_estimates) < 1e-12


def _series_reference_case(name, manufactured):
    if name == "su2-manufactured":
        rep = R.su2_rep(2)
        return (manufactured[2], FLOW,
                K.monomial_fiber(rep, [[1], [0], [-1]]),
                K.monomial_fiber(rep, [[0], [1], [1]]))
    if name == "u2-product":
        rep = R.u2_rep(2, 1)
        return (D.u2_product(FLOW, [1], [0], 0.7), FLOW,
                K.constant_fiber(rep, np.array([1.0, 1.0, 1.0]) / np.sqrt(3)),
                K.monomial_fiber(rep, [[1], [0], [2]]))
    flow2 = D.default_flow(2)
    rep = R.torus_rep((1, -1))
    return (D.torus_monomial(flow2, [[1, 0], [1, 1]]), flow2,
            K.monomial_fiber(rep, [[1, 0]]),
            K.monomial_fiber(rep, [[1, -1]]))


@pytest.mark.parametrize("name", ["su2-manufactured", "u2-product", "torus-d2"])
def test_series_matches_per_n_reference(manufactured, name):
    # one walk per grid reproduces the per-N path at every N
    c, flow, psi1, psi2 = _series_reference_case(name, manufactured)
    s = K.correlation_series(psi1, psi2, c, flow, 8, QUAD)
    assert s.flagged == []
    assert np.max(s.err_estimates) < K.ERR_FLAG_THRESHOLD
    for n in range(9):
        ref, err = K.koopman_apply_corr(psi1, psi2, c, flow, n, QUAD)
        assert err < K.ERR_FLAG_THRESHOLD
        assert abs(s.values[n] - ref) < 1e-12, (n, s.values[n], ref)


def test_series_validation(manufactured):
    _, _, phi = manufactured
    psi = K.constant_fiber(R.su2_rep(1), [1.0, 0.0])
    with pytest.raises(ConfigError):
        K.correlation_series(psi, psi, phi, FLOW, 0, QUAD)


def _unit(dim, seed):
    v = np.random.default_rng(seed).normal(size=(dim, 2)) @ np.array([1.0, 1j])
    return v / np.linalg.norm(v)


def _mean_series_cases(manufactured):
    """(name, cocycle, flow, psi1, psi2)."""
    _, zeta, phi = manufactured
    for l in (1, 2, 3, 4):
        psi = K.conjugate_vector(K.constant_fiber(R.su2_rep(l), _unit(l + 1, l)), zeta)
        yield f"su2-l{l}-conjugated", phi, FLOW, psi, psi
    so3 = K.constant_fiber(R.so3_rep(2), _unit(5, 7))
    yield "so3-l2", D.so3_x3_rotation(FLOW, [1], 0.5), FLOW, so3, so3
    u2 = K.constant_fiber(R.u2_rep(2, 1), _unit(3, 8))
    yield "u2-2-1", D.u2_product(FLOW, [1], [0], 0.7), FLOW, u2, u2
    rep = R.su2_rep(2)
    a = K.conjugate_vector(K.constant_fiber(rep, [1.0, 0.0, 0.0]), zeta)
    b = K.conjugate_vector(K.constant_fiber(rep, _unit(3, 9)), zeta)
    yield "cross-pair", phi, FLOW, a, b
    mono = K.monomial_fiber(rep, [[1], [0], [-1]])
    yield "constant-monomial", phi, FLOW, a, mono
    plain = K.constant_fiber(rep, _unit(3, 10))
    yield "plain-conjugated", phi, FLOW, plain, a


@pytest.mark.parametrize("name", [
    "su2-l1-conjugated", "su2-l2-conjugated", "su2-l3-conjugated",
    "su2-l4-conjugated", "so3-l2", "u2-2-1", "cross-pair", "constant-monomial",
    "plain-conjugated"])
def test_mean_series_matches_per_point_walk(manufactured, name):
    # every pair kind reads one mean-series walk, which agrees with the
    # per-point evaluation on its grid and with the per-N reference, and
    # whose error bound is the per-N route's, at round-off for built-ins
    cases = {case[0]: case[1:] for case in _mean_series_cases(manufactured)}
    c, flow, psi1, psi2 = cases[name]
    n_max = 12
    K._STAGE.clear()
    with mock.patch.object(D, "cocycle_iterate", wraps=D.cocycle_iterate) as walk:
        s = K.correlation_series(psi1, psi2, c, flow, n_max, QUAD)
    assert walk.call_count == 1
    assert len(K._STAGE) == 1  # a plan of the pair's fiber alone
    nodes = K._fiber(psi1, psi2, c, flow, n_max, QUAD)[-1]
    for n in range(n_max + 1):
        ref = K._corr_on_grid(psi1, psi2, c, flow, n, nodes)
        assert abs(s.values[n] - ref) <= 1e-14, (name, n)
    assert np.all(np.diff(s.err_estimates) >= 0) and s.err_estimates[-1] <= 1e-12
    for n in (0, 1, 5, n_max):
        value, err = K.koopman_apply_corr(psi1, psi2, c, flow, n, QUAD)
        assert abs(s.values[n] - value) <= 1e-14, (name, n)
        assert abs(err - s.err_estimates[n]) <= 1e-15 * s.err_estimates[n], (name, n)


def _mode_differences(psi1, psi2, d):
    return tuple(sorted({tuple((a - b).tolist()) for a in K._modes(psi1, d)
                         for b in K._modes(psi2, d)}))


def _fiber_key(psi1, psi2, c, flow, n_max, nodes):
    """The `K._fiber` key of the pair's walk on the nodes^d grid."""
    return (c, flow, n_max, psi1.rep, psi1.transfers, psi2.transfers,
            _mode_differences(psi1, psi2, flow.dim), nodes)


def _walk_alone(key):
    """Mhat of one fiber key from a walk of that fiber alone."""
    means = {key: None}
    K._walk_means(means)
    return means[key]


def _one_grid_mean_series(psi1, psi2, c, flow, n_max, nodes):
    """M^_0(m)..M^_n_max(m) from a per-point walk of the nodes^d grid as one
    batch: the reference for the engine's blocked walk."""
    rep, diffs = psi1.rep, _mode_differences(psi1, psi2, flow.dim)
    pts = D.quadrature_points(D.QuadratureSpec(nodes), flow.dim)
    out = np.empty((len(diffs), n_max + 1, rep.dim, rep.dim), dtype=complex)

    def visit(k, phases, g):
        # zeta1 g zeta2^{-1}, one factor of each pointwise product at a time
        for t in reversed(psi1.transfers):
            g = G.group_mul(G.GroupElement(t.group, t.value(pts)), g)
        for t in reversed(psi2.transfers):
            g = G.group_mul(g, G.group_inv(G.GroupElement(t.group, t.value(phases))))
        P = R.rep_eval_payload(rep, g.payload)
        for i, m in enumerate(diffs):
            w = np.exp(-2j * np.pi * (pts @ m))[:, None, None] if any(m) else 1.0
            out[i, k] = np.mean(w * P, axis=0)

    D.cocycle_iterate(c, flow, D.BasePoint(pts), n_max + 1, visit)
    return out


def _nested_cases(manufactured):
    """(name, cocycle, flow, psi1, psi2) at d = 1 and d = 2; the first of
    each pair has the zero mode difference only, the second a weighted one."""
    _, zeta, phi = manufactured
    rep = R.su2_rep(2)
    conj = K.conjugate_vector(K.constant_fiber(rep, _unit(3, 11)), zeta)
    yield "su2-d1-mean", phi, FLOW, conj, conj
    yield "su2-d1-grid", phi, FLOW, K.monomial_fiber(rep, [[1], [0], [-1]]), conj
    flow2 = D.default_flow(2)
    torus = D.torus_monomial(flow2, [[1, 0], [1, 1]])
    plain = K.constant_fiber(R.torus_rep((1, -1)), [1.0])
    yield "torus-d2-mean", torus, flow2, plain, plain
    yield "torus-d2-grid", torus, flow2, *_series_reference_case("torus-d2", manufactured)[2:]


@pytest.mark.parametrize("nodes", [6, 7])
@pytest.mark.parametrize("name", ["su2-d1-mean", "su2-d1-grid", "torus-d2-mean",
                                  "torus-d2-grid"])
def test_nested_walk_matches_one_grid_walks(manufactured, name, nodes):
    # on the n^d grid and on the (2n)^d grid that nests it, the engine's
    # means are the one-grid walk's up to the order of the sums, and its
    # series is the per-N evaluation on that grid
    cases = {case[0]: case[1:] for case in _nested_cases(manufactured)}
    c, flow, psi1, psi2 = cases[name]
    n_max = 6
    diffs = _mode_differences(psi1, psi2, flow.dim)
    assert (diffs == ((0,) * flow.dim,)) == name.endswith("mean")
    for grid in (nodes, 2 * nodes):
        key = _fiber_key(psi1, psi2, c, flow, n_max, grid)
        M, _ = _walk_alone(key)
        ref = _one_grid_mean_series(psi1, psi2, c, flow, n_max, grid)
        assert np.allclose(M, ref, rtol=0.0, atol=1e-15)
        values, _ = K._series(psi1, psi2, key)
        for n in range(n_max + 1):
            assert abs(values[n] - K._corr_on_grid(psi1, psi2, c, flow, n, grid)) <= 1e-14



@pytest.mark.parametrize("name", ["su2-d1-grid", "torus-d2-grid"])
def test_mean_series_blocks_match_one_block(manufactured, name, monkeypatch):
    # the grid walked in blocks of SERIES_BLOCK points, the last one short,
    # gives the means of one whole-grid walk up to the order of the sums,
    # which are the one-grid per-point walk's
    cases = {case[0]: case[1:] for case in _nested_cases(manufactured)}
    c, flow, psi1, psi2 = cases[name]
    key = _fiber_key(psi1, psi2, c, flow, 6, 7)
    assert 7 ** flow.dim <= K.SERIES_BLOCK and 7 ** flow.dim % 5
    whole, excess = _walk_alone(key)
    monkeypatch.setattr(K, "SERIES_BLOCK", 5)
    with mock.patch.object(D, "cocycle_iterate", wraps=D.cocycle_iterate) as walk:
        blocked, blocked_excess = _walk_alone(key)
    assert walk.call_count == -(-7 ** flow.dim // 5)
    assert np.max(np.abs(blocked - whole)) <= 1e-15 * max(1.0, np.max(np.abs(whole)))
    assert np.array_equal(blocked_excess, excess)
    ref = _one_grid_mean_series(psi1, psi2, c, flow, 6, 7)
    assert np.allclose(blocked, ref, rtol=0.0, atol=1e-15)


def test_walk_means_packs_whole_blocks_and_matches_lone_walks(monkeypatch):
    # blocks of 8 points: grid 6 fills one walk, grid 10 gives a full block
    # and a 2-point one that shares the last walk with grid 4; every key's
    # means are a walk of that key alone bit for bit, the conjugated key's
    # and the plain one on its grid too
    c = D.cohomologous_build(D.su2_diagonal(FLOW, 1), D.su2_twisted_diagonal(FLOW, 1), FLOW)
    zeta = D.su2_twisted_diagonal(FLOW, 2, c0=1.1)
    n, l1, l2 = 4, R.su2_rep(1), R.su2_rep(2)
    keys = [(c, FLOW, n, l1, (), (), ((-1,), (0,), (1,)), 6),
            (c, FLOW, n, l1, (), (), ((0,),), 10),
            (c, FLOW, n, l1, (zeta,), (zeta,), ((0,),), 10),
            (c, FLOW, n, l2, (), (), ((0,), (2,)), 4)]
    monkeypatch.setattr(K, "SERIES_BLOCK", 8)
    walk, batches = D.cocycle_iterate, []

    def recorded(c, flow, x, n, visit=None, **kwargs):
        batches.append(len(x.phases))
        return walk(c, flow, x, n, visit, **kwargs)

    means, before = dict.fromkeys(keys), dict(D.WALKS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "cocycle_iterate", recorded)
        K._walk_means(means)
    assert batches == [6, 8, 6]
    assert D.WALKS["walks"] - before["walks"] == 3
    assert D.WALKS["point_steps"] - before["point_steps"] == 20 * (n + 1)
    for key in keys:
        M, excess = means[key]
        assert M.shape == (len(key[6]), n + 1, key[3].dim, key[3].dim)
        assert excess.shape == (n + 1,)
        alone = _walk_alone(key)
        assert np.array_equal(M, alone[0]) and np.array_equal(excess, alone[1]), key


def test_transfer_is_the_ordered_pointwise_product():
    z1, z2 = D.su2_twisted_diagonal(FLOW, 1), D.su2_twisted_diagonal(FLOW, 2, c0=1.1)
    pts = np.random.default_rng(20240816).random((7, 1))
    assert K.transfer((), pts) is None
    want = G.group_mul(G.GroupElement(G.SU2_GROUP, z1.value(pts)),
                       G.GroupElement(G.SU2_GROUP, z2.value(pts)))
    assert np.array_equal(K.transfer((z1, z2), pts).payload, want.payload)


def test_orbit_phases_and_mode_waves():
    flow = D.default_flow(2)
    q = np.array([2, -1])
    turns = D.orbit_turns(flow, q[None])
    want = [np.exp(2j * np.pi * turns(k)[0]) for k in range(6)]
    assert np.array_equal(D.orbit_phases(flow, q, 6), want)
    pts = np.random.default_rng(20240816).random((5, 2))
    waves = K.mode_waves(pts, ((0, 0), (1, -2)))
    assert np.array_equal(waves[0], np.ones(5))
    assert np.max(np.abs(waves[1] - np.exp(-2j * np.pi * (pts @ [1, -2])))) < 1e-15


def test_nested_conjugation_walks_once(manufactured):
    # zeta then zeta is one more factor of the transfer, read off one walk
    _, zeta, phi = manufactured
    rep = R.su2_rep(1)
    psi = K.conjugate_vector(K.constant_fiber(rep, [1.0, 0.0]), zeta)
    assert psi.transfers == (zeta,) and psi.degree_bound == zeta.freq_bound
    nested = K.conjugate_vector(psi, zeta)
    assert nested.transfers == (zeta, zeta)
    assert nested.degree_bound == 2 * zeta.freq_bound
    mono = K.conjugate_vector(K.monomial_fiber(rep, [[1], [0]]), zeta)
    assert mono.transfers == (zeta,) and mono.degree_bound == 1 + zeta.freq_bound
    # conjugating by a second transfer applies pi(zeta2(x)^{-1}) on the left
    zeta2 = D.su2_twisted_diagonal(FLOW, 2, c0=1.1)
    pts = np.random.default_rng(1).random((9, 1))
    z2 = G.GroupElement(G.SU2_GROUP, zeta2.value(pts))
    want = np.einsum("...lk,...k->...l", R.rep_eval_payload(rep, G.group_inv(z2).payload),
                     K.fiber_coefficients(mono, pts))
    got = K.fiber_coefficients(K.conjugate_vector(mono, zeta2), pts)
    assert np.max(np.abs(got - want)) < 1e-14
    for psi1, psi2 in ((nested, nested), (mono, nested), (psi, nested)):
        K._STAGE.clear()
        with mock.patch.object(D, "cocycle_iterate", wraps=D.cocycle_iterate) as walk:
            s = K.correlation_series(psi1, psi2, phi, FLOW, 6, QUAD)
        assert walk.call_count == 1
        for n in range(7):
            ref, _ = K.koopman_apply_corr(psi1, psi2, phi, FLOW, n, QUAD)
            assert abs(s.values[n] - ref) < 1e-12
    # doubly conjugated probes of one fiber still share one walk
    M_star = G.AlgebraElement(G.SU2_GROUP, 2 * np.pi * ALPHA * G.E3)
    split = _split(R.su2_rep(4), M_star)
    probes = [K.conjugate_vector(K.conjugate_vector(pr, zeta), zeta)
              for pr in K.default_probes(R.su2_rep(4), split)]
    K._STAGE.clear()
    with mock.patch.object(D, "cocycle_iterate", wraps=D.cocycle_iterate) as walk:
        K.mixing_verdict(R.su2_rep(4), phi, FLOW, split, 10, QUAD, probes,
                         _bound(R.su2_rep(4), phi))
    assert len(probes) == 4 and walk.call_count == 1


def _differential_setting(group, d, l):
    """(rep, cocycle, two transfers that do not commute, flow) for the
    engine-against-reference test."""
    flow = D.default_flow(d)
    k, k2 = [1] * d, [1] + [0] * (d - 1)
    if group == "torus":
        return (R.torus_rep((l - 1,)), D.torus_monomial(flow, [k]),
                [D.torus_monomial(flow, [k2], theta0=[0.2]), D.torus_monomial(flow, [k])],
                flow)
    su2 = D.su2_twisted_diagonal(flow, k)
    transfers = [D.su2_twisted_diagonal(flow, k2, c0=0.3),
                 D.su2_twisted_diagonal(flow, k, c0=1.1)]
    if group == "su2":
        return R.su2_rep(l), su2, transfers, flow
    return (R.u2_rep(l, 1), D.u2_scalar_su2(flow, k2, su2),
            [D.u2_scalar_su2(flow, k, t) for t in transfers], flow)


@st.composite
def _probe(draw, rep, transfers, d):
    """A random probe: a constant or 1-3 modes with |q| <= 2, then no
    conjugation, one, or two nested ones (zeta then zeta, or zeta then
    a second transfer)."""
    count = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2 ** 16))
    vectors = np.random.default_rng(seed).normal(size=(max(count, 1), rep.dim, 2)) @ [1, 1j]
    if count == 0:
        psi = K.constant_fiber(rep, vectors[0])
    else:
        modes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                              min_size=count, max_size=count))
        psi = K.FiberVector(rep, np.array(modes), vectors)
    zeta, other = transfers
    for t in draw(st.sampled_from([(), (zeta,), (zeta, zeta), (zeta, other)])):
        psi = K.conjugate_vector(psi, t)
    return psi


@settings(max_examples=40, deadline=None)
@given(data=st.data(), group=st.sampled_from(["torus", "su2", "u2"]),
       d=st.sampled_from([1, 2]), l=st.integers(1, 2))
def test_engine_matches_per_point_reference(data, group, d, l):
    # every pair kind, from one walk, against the per-point route at each N
    rep, c, transfers, flow = _differential_setting(group, d, l)
    psi1 = data.draw(_probe(rep, transfers, d))
    psi2 = data.draw(_probe(rep, transfers, d))
    n_max = 3
    K._STAGE.clear()
    with mock.patch.object(D, "cocycle_iterate", wraps=D.cocycle_iterate) as walk:
        s = K.correlation_series(psi1, psi2, c, flow, n_max, D.QuadratureSpec(4))
    assert walk.call_count == 1
    for n in range(n_max + 1):
        ref, _ = K.koopman_apply_corr(psi1, psi2, c, flow, n, D.QuadratureSpec(4))
        assert abs(s.values[n] - ref) <= 1e-12, (n, s.values[n], ref)


def test_mixing_verdict_walks_one_fiber_once(manufactured, monkeypatch):
    # four conjugated probes of su2 l=4 share one walk of their grid and
    # one representation evaluation per step, beside one evaluation per
    # Fourier tail: the cocycle's and the transfer's
    _, zeta, phi = manufactured
    rep, n_max = R.su2_rep(4), 10
    M_star = G.AlgebraElement(G.SU2_GROUP, 2 * np.pi * ALPHA * G.E3)
    split = _split(rep, M_star)
    probes = [K.conjugate_vector(pr, zeta) for pr in K.default_probes(rep, split)]
    assert len(probes) == 4
    calls = {"walks": 0, "evals": 0}
    walk, evaluate = D.cocycle_iterate, R.rep_eval_payload

    def counted_walk(*args, **kwargs):
        calls["walks"] += 1
        return walk(*args, **kwargs)

    def counted_eval(*args, **kwargs):
        calls["evals"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(D, "cocycle_iterate", counted_walk)
    monkeypatch.setattr(R, "rep_eval_payload", counted_eval)
    K._STAGE.clear()
    verdict, walked = K.mixing_verdict(rep, phi, FLOW, split, n_max, QUAD, probes,
                                       _bound(rep, phi))
    assert verdict["verdict"] == K.SUPPORTED
    assert all(w is not None for w in walked)
    assert calls["walks"] == 1
    assert calls["evals"] <= (n_max + 1) + 4
    assert len(K._STAGE) == 1  # the memo holds one plan: this fiber's
    nodes = K._fiber(probes[0], probes[0], phi, FLOW, n_max, QUAD)[-1]
    M, _ = K._STAGE[(phi, FLOW, n_max, rep, (zeta,), (zeta,), ((0,),), nodes)]
    assert calls["walks"] == 1  # read off the memo
    assert M.shape == (1, n_max + 1, 5, 5) and not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0, 0, 0] = 0.0


# ---------------------------------------------------------------------------
# cohomology on fibers
# ---------------------------------------------------------------------------

def test_conjugate_vector_preserves_norm(manufactured):
    _, zeta, _ = manufactured
    rep = R.su2_rep(2)
    psi = K.monomial_fiber(rep, [[1], [0], [-1]])
    conj = K.conjugate_vector(psi, zeta)
    n1 = _norm(psi, D.QuadratureSpec(32), 1)
    n2 = _norm(conj, D.QuadratureSpec(32), 1)
    assert abs(n1 - n2) < 1e-10
    assert conj.degree_bound >= psi.degree_bound


def test_intertwining_matches_diagonal_model(manufactured):
    # phi = zeta^{-1} delta (zeta o F1)  ==>  correlations of
    # (U_phi; S psi1, S psi2) equal those of (U_delta; psi1, psi2)
    delta, zeta, phi = manufactured
    for l in (1, 2):
        rep = R.su2_rep(l)
        psi1 = K.monomial_fiber(rep, [[1]] * rep.dim)
        psi2 = K.monomial_fiber(rep, [[k - 1] for k in range(rep.dim)])
        s1 = K.conjugate_vector(psi1, zeta)
        s2 = K.conjugate_vector(psi2, zeta)
        for N in range(0, 11):
            a, _ = K.koopman_apply_corr(s1, s2, phi, FLOW, N, QUAD)
            b, _ = K.koopman_apply_corr(psi1, psi2, delta, FLOW, N, QUAD)
            assert abs(a - b) < 1e-10


def test_diagonal_model_weight_series_vanishes(manufactured):
    delta, _, _ = manufactured
    rep = R.su2_rep(1)
    probe = K.constant_fiber(rep, [1.0, 0.0])
    s = K.correlation_series(probe, probe, delta, FLOW, 15, QUAD)
    assert np.max(np.abs(s.values[1:])) < 1e-12


def test_conjugate_vector_group_guard(manufactured):
    _, zeta, _ = manufactured
    psi = K.constant_fiber(R.torus_rep((1,)), [1.0])
    with pytest.raises(TagMismatchError):
        K.conjugate_vector(psi, zeta)


# ---------------------------------------------------------------------------
# commutator average
# ---------------------------------------------------------------------------

def _d_n_average(rep, c, x, N):
    # (i/N) sum_{n<N} Ad_{pi(phi^(n)(x))} dpi(M(F_n x)) = i dpi(Cesaro average)
    return 1j * R.rep_differential(rep, DG.degree_pointwise(c, FLOW, x, N).value)


def test_d_n_average_single_step(manufactured):
    _, _, phi = manufactured
    rep = R.su2_rep(2)
    x = D.BasePoint([0.2345])
    got = _d_n_average(rep, phi, x, 1)
    Z = G.AlgebraElement(phi.group, phi.m_field(np.array(x.phases)))
    expected = 1j * R.rep_differential(rep, Z)
    assert np.max(np.abs(got - expected)) < 1e-9


@pytest.mark.parametrize("N", [1, 7, 25])
def test_d_n_average_two_routes_agree(manufactured, N):
    # route 1: i dpi of the blocked Cesaro sum of `degree_pointwise`;
    # route 2: i dpi of a sequential Ad-average at group level
    _, _, phi = manufactured
    rep = R.su2_rep(2)
    x = D.BasePoint([0.37])
    route1 = _d_n_average(rep, phi, x, N)
    phases = np.array(x.phases)
    g = G.identity(phi.group)
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(N):
        acc = acc + G.ad(g, G.AlgebraElement(phi.group, phi.m_field(phases))).payload
        g = G.group_mul(g, G.GroupElement(phi.group, phi.value(phases)))
        phases = np.mod(phases + FLOW.alpha_array, 1.0)
    route2 = 1j * R.rep_differential(rep, G.AlgebraElement(phi.group, acc / N))
    assert np.max(np.abs(route1 - route2)) < 1e-9


def test_d_n_average_converges_to_degree_limit(manufactured):
    delta, zeta, phi = manufactured
    rep = R.su2_rep(2)
    x = D.BasePoint([0.37])
    got = _d_n_average(rep, phi, x, 10_000)
    assert np.max(np.abs(got - np.conj(got.T))) < 1e-9
    zx = G.GroupElement(G.SU2_GROUP, zeta.value(np.array(x.phases)))
    M_true = G.ad(G.group_inv(zx),
                  G.AlgebraElement(G.SU2_GROUP, 2 * np.pi * ALPHA * G.E3))
    limit = 1j * R.rep_differential(rep, M_true)
    assert np.max(np.abs(got - limit)) < 5e-3


# ---------------------------------------------------------------------------
# multiplication matrix and kernel split
# ---------------------------------------------------------------------------

def test_multiplication_matrix_weight_pattern():
    s = 2 * np.pi * ALPHA
    M_star = G.AlgebraElement(G.SU2_GROUP, s * G.E3)
    Dm = R.multiplication_matrix(R.su2_rep(2), M_star)
    Q, lam, kernel = DG.kernel_split(Dm)
    assert np.allclose(lam, [-2 * s, 0.0, 2 * s], atol=1e-10)
    assert kernel == [1]
    assert np.max(np.abs(np.conj(Q.T) @ Q - np.eye(3))) < 1e-12


def _bound(rep, c, flow=FLOW):
    """rep's entry of the regularity certificate of c's M-field alone."""
    return K.dini_modulus(c, [rep], flow)[0]


def _split(rep, M):
    """The pipeline's one split of i dpi(M) on rep's fiber."""
    return DG.kernel_split(R.multiplication_matrix(rep, M))


def test_kernel_split_guards():
    with pytest.raises(NonHermitianError):
        DG.kernel_split(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        DG.kernel_split(np.zeros((2, 3)))
    # a defect below the relative guard is absorbed by symmetrization
    A = np.diag([1.0, -1.0]).astype(complex)
    A[0, 1] = 1e-12
    Q, lam, kernel = DG.kernel_split(A)
    assert kernel == []


def test_kernel_split_u2_patterns():
    s = 2 * np.pi * ALPHA
    M_full = G.AlgebraElement(G.U2_GROUP, np.diag([1j * s, 0.0]))
    expected_full = {(1, 1): [1], (2, 1): [1], (1, 0): [0]}
    for (l, m), ker in expected_full.items():
        got = _split(R.u2_rep(l, m), M_full)[2]
        assert got == ker, (l, m)
    M_central = G.p_ad(M_full)
    assert _split(R.u2_rep(1, 1), M_central)[2] == []
    assert _split(R.u2_rep(2, 1), M_central)[2] == [0, 1, 2]


def test_kernel_split_matches_degree_lab(manufactured_degree):
    # the averaged manufactured degree keeps the SU(2) weight parity:
    # a zero weight (kernel slot) exactly for even l
    M_star = manufactured_degree.mean_value
    expected = {1: [], 2: [1], 3: []}
    for l, kernel in expected.items():
        Dm = R.multiplication_matrix(R.su2_rep(l), M_star)
        assert DG.kernel_split(Dm)[2] == kernel, l


# ---------------------------------------------------------------------------
# spectral diagnostics
# ---------------------------------------------------------------------------

def test_wiener_average_separates_point_and_mixing():
    anzai = D.torus_monomial(FLOW, [[1]])
    probe = K.constant_fiber(R.torus_rep((1,)), [1.0])
    s_mix = K.correlation_series(probe, probe, anzai, FLOW, 40, QUAD)
    A_mix = K.wiener_average(s_mix)
    assert len(A_mix) == 40
    assert A_mix[-1] < 1e-20
    psi = K.monomial_fiber(R.torus_rep((0,)), [[1]])
    s_pp = K.correlation_series(psi, psi, anzai, FLOW, 40, QUAD)
    A_pp = K.wiener_average(s_pp)
    assert np.all(A_pp > 0.999)


def _field(fld, d=1, freq_bound=0):
    """A cocycle that carries only the M-field `fld`, for `dini_modulus`."""
    return D.Cocycle(G.SU2_GROUP, None, fld, freq_bound, d)


def _peak(rep, payload):
    """max |dpi(Z)| over the entries, for one su(2) payload Z."""
    return float(np.max(np.abs(R.rep_differential(rep, G.AlgebraElement(G.SU2_GROUP, payload)))))


def test_dini_modulus_constant_field():
    # a field of declared degree 0 is read at one node, as its own c_0
    calls = []

    def fld(ph):
        calls.append(len(ph))
        return np.broadcast_to(0.5 * G.E3, np.shape(ph)[:-1] + (2, 2))

    rep = R.su2_rep(2)
    out, = K.dini_modulus(_field(fld, 2), [rep], D.default_flow(2))
    assert calls == [1]
    assert (out["m_sup"], out["dm_sup"], out["integral"]) == (0.5, _peak(rep, 0.5 * G.E3), 0.0)


def test_dini_modulus_trig_field_is_lipschitz():
    # M = sin(2 pi x) E3 has the coefficients -+i/2 E3 at k = +-1 alone, so
    # the bounds come out in closed form, and the modulus bound is
    # Lipschitz below t = 2 / a and bounds the sampled modulus
    rep = R.su2_rep(1)
    c = _field(lambda ph: np.sin(2 * np.pi * np.asarray(ph))[..., None] * G.E3, freq_bound=1)
    out, = K.dini_modulus(c, [rep], FLOW)
    peak, a = _peak(rep, G.E3), 2 * np.pi * ALPHA
    assert abs(out["m_sup"] - 1.0) < 1e-14 and abs(out["dm_sup"] - peak) < 1e-14
    g = a if a <= 2 else 2 + 2 * np.log(a / 2)
    assert abs(out["integral"] - peak * g) < 1e-13
    t = np.asarray(H.DINI_SHIFTS)
    bound = H.modulus_bound(out, t)
    np.testing.assert_allclose(bound[t < 2 / a] / t[t < 2 / a], peak * a, rtol=1e-12)
    sampled, = H.sampled_modulus(c, [rep], FLOW)
    assert np.all(sampled > 0) and np.all(sampled <= bound * (1 + 1e-12))


def test_dini_modulus_validation():
    # the certificate's grid is refused before the field is sampled
    def refuse(ph):
        raise AssertionError("sampled before the size check")

    with pytest.raises(ConfigError, match=r"40001\^2-point regularity grid needs"):
        K.dini_modulus(_field(refuse, 2, 10 ** 4), [R.su2_rep(1)], D.default_flow(2))


FLOW2 = D.default_flow(2)
DINI_REPS = (R.su2_rep(1), R.su2_rep(2))


@pytest.fixture(scope="module")
def varying_su2():
    """The cohomologous SU(2) pair on T^2: an x-dependent M-field."""
    return D.cohomologous_build(D.su2_diagonal(FLOW2, [1, 0]),
                                D.su2_twisted_diagonal(FLOW2, [1, 1]), FLOW2)


def test_dini_modulus_bounds_the_whole_grid_pass(varying_su2):
    # the sampled pass the certificate replaced, on its own 256^2 grid
    c = varying_su2
    outs = K.dini_modulus(c, DINI_REPS, FLOW2)
    for out, sampled in zip(outs, H.sampled_modulus(c, DINI_REPS, FLOW2)):
        assert np.all(sampled > 0)
        assert np.all(sampled <= H.modulus_bound(out, H.DINI_SHIFTS) * (1 + 1e-12))


def test_dini_modulus_peak_below_one_grid_field(varying_su2):
    # one sample of M on the 13^2 grid, far below one field on the 256^2
    # grid of the sampled pass
    c = varying_su2
    field_bytes = 256 ** 2 * np.asarray(c.m_field(np.zeros((1, 2)))).nbytes
    tracemalloc.start()
    try:
        K.dini_modulus(c, DINI_REPS, FLOW2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field_bytes / 16


def _constant_built_ins(flow):
    """name -> (a built-in whose M-field is constant, representations of its
    group)."""
    k = np.arange(1, flow.dim + 1)
    su2 = [R.su2_rep(l) for l in (1, 2, 3)]
    u2 = [R.u2_rep(l, m) for l, m in ((2, 2), (2, 1), (1, 0), (0, 1))]
    return {
        "torus-monomial": (D.torus_monomial(flow, [k, -k[::-1]], [0.3, 0.1]),
                           [R.torus_rep(q) for q in ((1, 0), (0, 1), (2, -1))]),
        "su2-diagonal": (D.su2_diagonal(flow, k, 0.4), su2),
        "su2-twisted-diagonal": (D.su2_twisted_diagonal(flow, 2 * k, 0.7), su2),
        "so3-x3-rotation": (D.so3_x3_rotation(flow, k, 0.2), [R.so3_rep(1), R.so3_rep(2)]),
        "u2-product": (D.u2_product(flow, k, k + 2, 0.7), u2),
        "u2-product-mismatch": (D.u2_product(flow, k, k + 1, 0.7), u2),
        "u2-scalar-su2": (D.u2_scalar_su2(flow, k, D.su2_twisted_diagonal(flow, k)), u2),
    }


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(_constant_built_ins(FLOW)))
def test_constant_field_shortcut_matches_the_sampled_pass(name, d):
    """A built-in with a constant M-field carries it, and the certificate
    never evaluates its field: its sups are the sampled grid sups bit for
    bit, and its modulus integral is 0, as the sampled modulus is."""
    flow = D.default_flow(d)
    c, reps = _constant_built_ins(flow)[name]
    assert c.m_const is not None

    def refuse(phases):
        raise AssertionError("a constant M-field was sampled")

    got = K.dini_modulus(dataclasses.replace(c, m_field=refuse), reps, flow)
    assert not np.any(H.sampled_modulus(c, reps, flow, nodes=32))
    for rep, out in zip(reps, got):
        assert (out["m_sup"], out["dm_sup"]) == H.grid_sups(rep, H.sampled(c), flow)
        assert out["integral"] == 0.0


def _x_dependent(kind, flow, k1, k2, c0):
    """(an x-dependent built-in, representations of its group)."""
    su2 = (D.su2_two_angle(flow, k1, k2, c0, 0.1) if kind.endswith("two-angle") else
           D.cohomologous_build(D.su2_diagonal(flow, k1), D.su2_twisted_diagonal(flow, k2, c0),
                                flow))
    if kind.startswith("u2"):
        return D.u2_scalar_su2(flow, k2, su2), [R.u2_rep(2, 1), R.u2_rep(1, 0)]
    return su2, [R.su2_rep(1), R.su2_rep(2)]


@settings(max_examples=24, deadline=None)
@given(d=st.sampled_from([1, 2]), kind=st.sampled_from(["two-angle", "pair", "u2-two-angle",
                                                        "u2-pair"]),
       k1=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
       k2=st.lists(st.integers(-2, 2), min_size=2, max_size=2), c0=st.floats(0.0, 1.5))
def test_certificate_bounds_the_sampled_pass(d, kind, k1, k2, c0):
    """The certificate bounds the sampled modulus at every shift and both
    grid sups, on x-dependent built-ins; grids coarser at d = 2 keep the
    sampled reference quick, and any grid is a lower bound."""
    flow, nodes = D.default_flow(d), 256 if d == 1 else 48
    c, reps = _x_dependent(kind, flow, k1[:d], k2[:d], c0)
    outs = K.dini_modulus(c, reps, flow)
    for rep, out, sampled in zip(reps, outs, H.sampled_modulus(c, reps, flow, nodes=nodes)):
        assert np.all(sampled <= H.modulus_bound(out, H.DINI_SHIFTS) * (1 + 1e-12) + 1e-13)
        m_sup, dm_sup = H.grid_sups(rep, c, flow, nodes)
        assert m_sup <= out["m_sup"] * (1 + 1e-12) and dm_sup <= out["dm_sup"] * (1 + 1e-12)
        assert out["integral"] <= out["dm_sup"] * (2 + 2 * np.log(max(1, np.max(out["rates"]))))


@pytest.mark.parametrize("d", [1, 2])
def test_x_dependent_fields_carry_no_constant(d):
    flow = D.default_flow(d)
    k = np.arange(1, d + 1)
    two_angle = D.su2_two_angle(flow, k, 2 * k, 0.3, 0.1)
    pair = D.cohomologous_build(D.su2_diagonal(flow, k), D.su2_twisted_diagonal(flow, k), flow)
    for c in (two_angle, pair, D.u2_scalar_su2(flow, k, two_angle),
              D.u2_scalar_su2(flow, k, pair)):
        assert c.m_const is None, c.name


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _mixing(rep, c, M_star, N_max, probes=None):
    """mixing_verdict on a 32-node rule, by default with the pipeline's probes."""
    split = _split(rep, M_star)
    return K.mixing_verdict(rep, c, FLOW, split, N_max, D.QuadratureSpec(32),
                            K.default_probes(rep, split) if probes is None else probes,
                            _bound(rep, c))


def _ac(rep, field, M_star, bound):
    """ac_verdict with the kernel of i dpi(M_star), as the pipeline passes it."""
    return K.ac_verdict(rep, field, M_star, _split(rep, M_star)[2], bound)


def test_mixing_verdict_winding_fiber_supported():
    anzai = D.torus_monomial(FLOW, [[1]])
    M_star = DG.degree_constant_diagonal(anzai, D.QuadratureSpec(32))
    v, series = _mixing(R.torus_rep((1,)), anzai, M_star, 50)
    assert v["verdict"] == K.SUPPORTED
    assert len(series) == 1 and series[0].n_max == 50
    assert v["kernel_indices"] == []
    assert [p["status"] for p in v["probes"]] == [K.SUPPORTED]
    assert all("value" in h for h in v["hypotheses"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), group=st.sampled_from(["torus", "su2", "u2"]),
       d=st.sampled_from([1, 2]), count=st.integers(1, 6))
def test_parseval_mass_matches_the_grid_form(seed, group, d, count):
    # modes drawn with repeats, so some vectors add up before their mass is
    # taken; the grid form's own round-off over 64^d points sets the bound
    # (measured at most 1.3e-15 of the mass at d = 1, 7.7e-14 at d = 2)
    rng = np.random.default_rng(seed)
    rep = {"torus": R.torus_rep((1,)), "su2": R.su2_rep(3), "u2": R.u2_rep(2, 1)}[group]
    modes = rng.integers(-2, 3, size=(count, d))
    probe = K.FiberVector(rep, modes, rng.normal(size=(count, rep.dim, 2)) @ [1, 1j])
    Q, _ = np.linalg.qr(rng.normal(size=(rep.dim, rep.dim, 2)) @ [1, 1j])
    got, want = K._slot_mass(probe, Q, d), H.grid_slot_mass(probe, Q, d)
    assert np.max(np.abs(got - want)) <= {1: 1e-14, 2: 2e-13}[d] * float(np.sum(want))


def test_conjugated_probes_keep_the_grid_mass(manufactured):
    _, zeta, _ = manufactured
    rep = R.su2_rep(2)
    probe = K.conjugate_vector(K.monomial_fiber(rep, [[1], [0], [-1]]), zeta)
    Q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    assert np.array_equal(K._slot_mass(probe, Q, 1), H.grid_slot_mass(probe, Q, 1))


def test_mixing_verdict_kernel_probe_not_in_scope():
    anzai = D.torus_monomial(FLOW, [[1]])
    rep0 = R.torus_rep((0,))
    zero = G.AlgebraElement(G.torus_group(1), np.zeros(1, dtype=complex))
    probe = K.monomial_fiber(rep0, [[1]])
    v, series = _mixing(rep0, anzai, zero, 50, [probe])
    assert v["verdict"] == K.NO_CLAIM
    assert series == [None]
    assert v["probes"][0]["status"] == K.NOT_IN_SCOPE


def test_mixing_verdict_rotating_kernel_scope(manufactured, manufactured_degree):
    # The averaged multiplication matrix is NOT the fiber operator when the
    # degree field varies with x: constant probes genuinely recur, while
    # conjugated weight probes decay to machine zero.
    _, zeta, phi = manufactured
    rep = R.su2_rep(2)
    M_star = manufactured_degree.mean_value
    v_const, _ = _mixing(rep, phi, M_star, 30)
    assert v_const["verdict"] == K.VIOLATED
    probes = [K.conjugate_vector(K.constant_fiber(rep, np.eye(3)[j]), zeta)
              for j in (0, 2)]
    v_conj, _ = _mixing(rep, phi, M_star, 30, probes)
    assert v_conj["verdict"] == K.SUPPORTED
    assert all(p["tail_max"] < 1e-12 for p in v_conj["probes"])
    middle = [K.conjugate_vector(K.constant_fiber(rep, np.eye(3)[1]), zeta)]
    v_mid, _ = _mixing(rep, phi, M_star, 30, middle)
    assert v_mid["verdict"] == K.VIOLATED
    assert abs(v_mid["probes"][0]["tail_max"] - 1.0 / 3.0) < 1e-10


def test_mixing_verdict_u2_fibers():
    u2 = D.u2_product(FLOW, [1], [1])
    M_star = DG.degree_constant_diagonal(u2, D.QuadratureSpec(64))
    v, _ = _mixing(R.u2_rep(1, 1), u2, M_star, 40)
    assert v["kernel_indices"] == [1]
    assert v["verdict"] == K.SUPPORTED
    central = G.p_ad(M_star)
    v2, _ = _mixing(R.u2_rep(2, 1), u2, central, 40)
    assert v2["kernel_indices"] == [0, 1, 2]
    assert v2["verdict"] == K.NO_CLAIM
    assert v2["probes"] == []


def test_mixing_verdict_validation():
    anzai = D.torus_monomial(FLOW, [[1]])
    M_star = DG.degree_constant_diagonal(anzai, D.QuadratureSpec(16))
    with pytest.raises(ConfigError):
        _mixing(R.torus_rep((1,)), anzai, M_star, 2)


def test_ac_verdict_winding_fiber_predicted():
    anzai = D.torus_monomial(FLOW, [[1]])
    M_star = DG.degree_constant_diagonal(anzai, D.QuadratureSpec(32))
    rep = R.torus_rep((1,))
    v = _ac(rep, None, M_star, _bound(rep, anzai))
    assert v["verdict"] == K.AC_PREDICTED
    assert v["kernel_indices"] == []
    assert "input assumption" in v["notes"]
    assert "certified for the cocycle's declared degree" in v["notes"]
    assert [(h["name"], h["status"], h["value"]) for h in v["hypotheses"]][1] == (
        "modulus integral finite (certified bound)", "pass", 0.0)


def test_ac_verdict_zero_degree_no_claim():
    anzai = D.torus_monomial(FLOW, [[1]])
    zero = G.AlgebraElement(G.torus_group(1), np.zeros(1, dtype=complex))
    rep = R.torus_rep((1,))
    v = _ac(rep, None, zero, _bound(rep, anzai))
    assert v["verdict"] == K.NO_CLAIM
    assert "no claim" in v["notes"]


def test_ac_verdict_manufactured_fibers(manufactured, manufactured_degree):
    _, _, phi = manufactured
    field = manufactured_degree
    v1 = _ac(R.su2_rep(1), field, field.mean_value, _bound(R.su2_rep(1), phi))
    assert v1["verdict"] == K.AC_PREDICTED
    assert v1["kernel_indices"] == []
    v2 = _ac(R.su2_rep(2), field, field.mean_value, _bound(R.su2_rep(2), phi))
    assert v2["verdict"] == K.NO_CLAIM
    assert "unmet hypotheses" in v2["notes"]
    assert v2["kernel_indices"] == [1]


def test_ac_verdict_unbounded_modulus_blocks_prediction():
    # a regularity bound that is not finite settles nothing
    anzai = D.torus_monomial(FLOW, [[1]])
    M_star = DG.degree_constant_diagonal(anzai, D.QuadratureSpec(32))
    rep = R.torus_rep((1,))
    v = _ac(rep, None, M_star, {**_bound(rep, anzai), "integral": np.inf})
    assert v["verdict"] == K.NO_CLAIM
    assert v["notes"].startswith("unmet hypotheses: modulus integral finite (certified bound);")
    assert [h["status"] for h in v["hypotheses"]] == ["pass", "fail", "pass"]


@pytest.mark.parametrize("l, kernel, verdict", [(1, [], K.AC_PREDICTED), (2, [1], K.NO_CLAIM)])
def test_ac_and_mixing_share_the_kernel_of_m_star(l, kernel, verdict):
    # a field of two half-turn conjugates rho E3, -rho E3 has sample mean 0,
    # yet M* = rho E3 does not vanish: both verdicts read the kernel of
    # i dpi(M*), and the AC entry makes no "degree vanishes" exception
    c = D.su2_diagonal(FLOW, [1])
    M_star = DG.degree_constant_diagonal(c, D.QuadratureSpec(32))
    field = DG.DegreeField(D.BasePoint(np.array([[0.1], [0.6]])),
                           G.AlgebraElement(G.SU2_GROUP, np.stack([M_star.payload,
                                                                   -M_star.payload])),
                           100, np.zeros(2), 2 * float(G.algebra_norm(M_star)), False)
    assert float(G.algebra_norm(field.mean_value)) == 0.0
    rep = R.su2_rep(l)
    mixing, _ = _mixing(rep, c, M_star, 8)
    ac = _ac(rep, field, M_star, _bound(rep, c))
    assert mixing["kernel_indices"] == ac["kernel_indices"] == kernel
    assert ac["verdict"] == verdict
    assert "degree vanishes" not in ac["notes"]
