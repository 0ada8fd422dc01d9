"""Degree estimation and its consequences.

The degree field of a cocycle phi is the Cesaro limit of transferred
M-fields,

    (P M)(x) = lim_N (1/N) sum_{n<N} Ad_{phi^(n)(x)} M(F_n x),

estimated here at finite N with an N/2 partial as convergence
diagnostic.  The sum is walked in blocks (see `_cesaro_sums`): block b
covers n in [bL, (b+1)L) and starts at F_{bL} x = x + bL alpha mod 1,
a closed form with the offset exactly rounded, so all blocks ride in one
orbit walk as an extra batch axis.  The blocks are joined by prefix
products of their cocycle products (Blelloch, "Prefix sums and their
applications", 1990):

    S_{bL+j}(x) = sum_{b'<b} Ad_{G_b'} s_b'(L) + Ad_{G_b} s_b(j),
    G_b = phi^(bL)(x) = P_0 P_1 ... P_{b-1},

with s_b the running sum and P_b = phi^(L)(F_{bL} x) the product of
block b alone.  For diagonalizable situations the limit collapses to closed
forms (the plain integral of M, or its Ad-average projection), and the
module provides: invariance checks under cohomology and homomorphisms,
the SU(2) straightening that conjugates a nondegenerate cocycle to
diagonal form, the spectral floor a_{phi,pi}, and obstruction verdicts
for unique ergodicity / ergodicity of the skew product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dynamics as D
from . import groups as G
from . import reps as R
from .errors import (ConfigError, DegenerateDegreeError,
                     InconsistentDegreeError, NonHermitianError,
                     NumericGuardError, TagMismatchError)

DEFAULT_N = 10_000
CONSTANT_SPREAD_FACTOR = 10.0
# guards of the SU(2) transfer construction: the smallest rho
# `su2_straighten` accepts, and `su2_transfer_zeta`'s tolerances on
# |a -+ rho| (branch choice) and on ||D|| - rho
RHO_THRESHOLD = 1e-3
BRANCH_TOL = 1e-9
NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# pointwise Cesaro estimation
# ---------------------------------------------------------------------------

@dataclass
class DegreeEstimate:
    """Cesaro average at N with its half-length partial for diagnostics."""

    value: G.AlgebraElement
    half: G.AlgebraElement
    n_used: int

    @property
    def diagnostic(self) -> np.ndarray:
        """Per-point ||estimate_N - estimate_{N/2}||; shrinks as N grows."""
        return G.algebra_norm(G.AlgebraElement(
            self.value.group, self.value.payload - self.half.payload))


# the blocked walk aims at this batch of (block, point) pairs, and gives
# every block at least MIN_BLOCK_STEPS steps (see `_block_shape`)
BLOCK_BATCH = 4096
MIN_BLOCK_STEPS = 64


def _block_shape(points: int, n_max: int) -> tuple[int, int]:
    """(B, L): B blocks of L steps cover n < n_max for `points` points.

    B = max(1, min(ceil(BLOCK_BATCH / points), floor(n_max / MIN_BLOCK_STEPS)))
    and L = ceil(n_max / B); B then drops the blocks that would start at
    or past n_max.  Below n_max = 2 * MIN_BLOCK_STEPS there is one block.

    BLOCK_BATCH = 4096 was measured on su2-straighten's 70-point walk
    (N = 10^4): at 1024 (15 blocks x 667 steps) per-call overhead
    dominates each step's numpy calls, and the strided SU(2) `ad` costs
    about 1.5 times as much per element as at 4096 (59 x 170 steps).  The
    benchmark's peak RSS is flat at 4096 and rose 4 MB at 8192.  Walks of
    6 points stay capped by MIN_BLOCK_STEPS (154 blocks at N = 10^4).
    """
    blocks = max(1, min(-(-BLOCK_BATCH // points), n_max // MIN_BLOCK_STEPS))
    length = -(-n_max // blocks)
    return -(-n_max // length), length


def _block_starts(flow: D.TranslationFlow, x: D.BasePoint, blocks: int,
                  length: int) -> np.ndarray:
    """Phases of F_{bL} x for b < blocks, shape (blocks,) + x.phases.shape.

    Each offset b L alpha mod 1 is computed exactly from alpha's integer
    ratio and rounded once: a double product near 1e3 would carry an
    ulp of 1e-13 into every later step of its block.
    """
    ratios = [a.as_integer_ratio() for a in flow.alpha]
    offsets = np.array([[num * b * length % den / den for num, den in ratios]
                        for b in range(blocks)])
    offsets = offsets.reshape((blocks,) + (1,) * (x.phases.ndim - 1) + (flow.dim,))
    return np.mod(x.phases + offsets, 1.0)


def _cesaro_sums(c: D.Cocycle, flow: D.TranslationFlow, x: D.BasePoint, counts) -> dict:
    """Running sums S_n(x) = sum_{k<n} Ad_{phi^(k)(x)} M(F_k x) for each n
    in `counts`, batched over x, from one orbit walk.

    The n_max = max(counts) steps are split into B blocks of L steps
    (`_block_shape`), which start at the closed-form points F_{bL} x
    (`_block_starts`) and are walked together as a leading batch axis.
    The visitor keeps each block's local running sum s_b(j) at the local
    indices j where a requested n = bL + j falls (1 <= j <= L), and at
    j = L.  The walk also returns each block's product P_b, and the sums
    are joined as S_n = sum_{b'<b} Ad_{G_b'} s_b'(L) + Ad_{G_b} s_b(j)
    with G_0 = e and G_{b+1} = maybe_renormalize(G_b P_b).  With one
    block (n_max < 2 * MIN_BLOCK_STEPS, or BLOCK_BATCH points) a batch of
    points gets the plain sequential sums bit for bit; otherwise the block
    count (set by BLOCK_BATCH, see `_block_shape`) moves the sums by
    round-off only.
    """
    if min(counts) < 1:
        raise ConfigError("N must be >= 1")
    n_max = max(counts)
    blocks, length = _block_shape(math.prod(x.phases.shape[:-1]), n_max)
    local = {length} | {n - (n - 1) // length * length for n in counts}
    partial, total = {}, None

    def visit(k, phases, g, m):
        nonlocal total
        term = G.ad(g, G.AlgebraElement(c.group, m)).payload
        total = term if total is None else total + term
        if k + 1 in local:
            partial[k + 1] = total

    starts = D.BasePoint(_block_starts(flow, x, blocks, length))
    products = D.cocycle_iterate(c, flow, starts, length, visit, with_m=True).payload
    if blocks == 1:
        return {n: partial[n][0] for n in counts}
    lifts = [G.GroupElement(c.group, products[0])]  # G_b as lifts[b - 1]
    for b in range(2, blocks):
        step = G.GroupElement(c.group, products[b - 1])
        lifts.append(G.maybe_renormalize(G.group_mul(lifts[-1], step)))
    lifts = np.stack([g.payload for g in lifts])

    def moved(g, s):
        return G.ad(G.GroupElement(c.group, g), G.AlgebraElement(c.group, s)).payload

    # before[b - 1] = S_{bL}, the whole blocks 0..b-1 joined: one Ad call
    # for all blocks (Ad is elementwise over the batch, so its bits do not
    # depend on it), summed in block order by the sequential cumsum
    full = partial[length]
    before = np.cumsum(np.concatenate([full[:1], moved(lifts[:-1], full[1:-1])]), axis=0)
    sums = {}
    for n in counts:
        b = (n - 1) // length
        s = partial[n - b * length][b]
        sums[n] = before[b - 1] + moved(lifts[b - 1], s) if b else s
    return sums


def degree_pointwise(c: D.Cocycle, flow: D.TranslationFlow, x: D.BasePoint,
                     N: int = DEFAULT_N) -> DegreeEstimate:
    """(1/N) sum_{n<N} Ad_{phi^(n)(x)} M(F_n x), batched over x, with the
    partial sum at floor(N/2) as convergence diagnostic."""
    half_n = max(N // 2, 1)
    sums = _cesaro_sums(c, flow, x, {half_n, N})
    return DegreeEstimate(G.AlgebraElement(c.group, sums[N] / N),
                          G.AlgebraElement(c.group, sums[half_n] / half_n), N)


@dataclass
class DegreeField:
    """Degree estimates on a family of sample points.

    `constant` is granted when the cross-point spread stays within
    CONSTANT_SPREAD_FACTOR times the worst per-point convergence
    diagnostic — a self-consistency criterion, not a proof.
    """

    points: D.BasePoint
    values: G.AlgebraElement
    n_used: int
    diagnostics: np.ndarray
    spread: float
    constant: bool

    @property
    def mean_value(self) -> G.AlgebraElement:
        return G.AlgebraElement(self.values.group,
                                np.mean(self.values.payload, axis=0))

    @property
    def norms(self) -> np.ndarray:
        return G.algebra_norm(self.values)


SPREAD_BLOCK_ROWS = 16


def _pairwise_spread(values: G.AlgebraElement) -> float:
    """max_{i,j} ||values_i - values_j||, over blocks of rows so memory
    stays O(P * SPREAD_BLOCK_ROWS) for P points."""
    payload = values.payload
    worst = 0.0
    for start in range(0, payload.shape[0], SPREAD_BLOCK_ROWS):
        diff = payload[start:start + SPREAD_BLOCK_ROWS, None] - payload[None, :]
        worst = max(worst, float(np.max(G.algebra_norm(
            G.AlgebraElement(values.group, diff)))))
    return worst


def _field_from_estimate(points: D.BasePoint, est: DegreeEstimate) -> DegreeField:
    diags, spread = est.diagnostic, _pairwise_spread(est.value)
    tol = CONSTANT_SPREAD_FACTOR * max(float(np.max(diags)), 1e-12)
    return DegreeField(points, est.value, est.n_used, diags, spread,
                       constant=spread <= tol)


def degree_field(c: D.Cocycle, flow: D.TranslationFlow, points: D.BasePoint,
                 N: int = DEFAULT_N) -> DegreeField:
    """Degree estimates over a point family, in one batched orbit walk."""
    points = D.BasePoint(np.atleast_2d(points.phases))
    return _field_from_estimate(points, degree_pointwise(c, flow, points, N))


# ---------------------------------------------------------------------------
# constant closed forms
# ---------------------------------------------------------------------------

def degree_constant_diagonal(c: D.Cocycle, quadrature: D.QuadratureSpec) -> G.AlgebraElement:
    """Quadrature of the M-field over the base torus: the constant-degree
    closed form on the diagonal route (base map uniquely ergodic and the
    composed representation diagonal)."""
    pts = D.quadrature_points(quadrature, c.base_dim)
    return G.AlgebraElement(c.group, np.mean(c.m_field(pts), axis=0))


def degree_constant_ergodic(c: D.Cocycle, quadrature: D.QuadratureSpec) -> G.AlgebraElement:
    """Ad-average projection of the integrated M-field: the constant-degree
    closed form on the ergodic route (whole skew product uniquely ergodic).
    Identically zero for SU(2)/SO(3), where no Ad-invariant vector exists."""
    return G.p_ad(degree_constant_diagonal(c, quadrature))


# ---------------------------------------------------------------------------
# kernel split and spectral floor a_{phi,pi}
# ---------------------------------------------------------------------------

KERNEL_REL_TOL = 1e-9


def kernel_split(Dm: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Diagonalize a Hermitian multiplication matrix.

    Returns (Q, eigenvalues, kernel indices): columns of Q are
    eigenvectors in ascending eigenvalue order; the kernel collects
    slots with |lambda| <= KERNEL_REL_TOL * max(1, max |lambda|).  Raises
    NonHermitianError when the input is not Hermitian within 1e-9.
    """
    Dm = np.asarray(Dm, dtype=complex)
    if Dm.ndim != 2 or Dm.shape[0] != Dm.shape[1]:
        raise ConfigError("expected a square matrix")
    defect = float(np.max(np.abs(Dm - np.conj(Dm.T))))
    if defect > 1e-9 * max(1.0, float(np.max(np.abs(Dm)))):
        raise NonHermitianError(f"matrix is not Hermitian (defect {defect:.3e})")
    sym = 0.5 * (Dm + np.conj(Dm.T))
    lam, Q = np.linalg.eigh(sym)
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    kernel = [int(i) for i in np.where(np.abs(lam) <= KERNEL_REL_TOL * scale)[0]]
    residual = float(np.max(np.abs(np.conj(Q.T) @ sym @ Q - np.diag(lam))))
    if residual > 1e-10 * scale:
        raise NumericGuardError(f"diagonalization residual {residual:.3e}")
    return Q, lam, kernel


def a_phi_pi(rep: R.Representation, degree) -> float:
    """Spectral floor: the smallest eigenvalue of (i dpi(degree))^2.

    For a constant degree this is (min |eigenvalue of i dpi(M_star)|)^2;
    for a DegreeField it is the minimum over the sample points — a grid
    surrogate for the essential infimum (see DegreeReport diagnostics).
    """
    values = degree.values if isinstance(degree, DegreeField) else degree
    lam = np.linalg.eigvalsh(R.multiplication_matrix(rep, values))
    return float(np.min(lam ** 2))


def kernel_indices(rep: R.Representation, M_star: G.AlgebraElement) -> list[int]:
    """Indices of near-zero eigenvalues of i dpi(M_star), ascending by
    eigenvalue; empty when the differential is injective on the line."""
    return kernel_split(R.multiplication_matrix(rep, M_star))[2]


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

def invariance_check_cohomology(phi: D.Cocycle, delta: D.Cocycle,
                                zeta: D.Cocycle, flow: D.TranslationFlow,
                                N: int, points: D.BasePoint) -> dict:
    """Degrees of cohomologous cocycles are conjugate:
    (P_delta M_delta)(x) = Ad_{zeta(x)} (P_phi M_phi)(x), with equal norms.

    Reports the max deviation of both statements at estimator level,
    alongside the Cesaro diagnostics that bound what 'zero' means here.
    """
    est_d = degree_pointwise(delta, flow, points, N)
    est_p = degree_pointwise(phi, flow, points, N)
    z = G.GroupElement(zeta.group, zeta.value(points.phases))
    moved = G.ad(z, est_p.value)
    dev_conj = G.algebra_norm(G.AlgebraElement(
        delta.group, est_d.value.payload - moved.payload))
    dev_norm = np.abs(G.algebra_norm(est_d.value) - G.algebra_norm(est_p.value))
    return {
        "max_conjugation_deviation": float(np.max(dev_conj)),
        "max_norm_deviation": float(np.max(dev_norm)),
        "cesaro_diagnostic_delta": float(np.max(est_d.diagnostic)),
        "cesaro_diagnostic_phi": float(np.max(est_p.diagnostic)),
        "n_used": N,
    }


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism h with its differential dh, in the payload
    calculus: `value_map` sends domain group payload(s) to codomain
    payload, `alg_map` the same on algebra payloads."""

    name: str
    codomain: G.GroupSpec
    value_map: Callable
    alg_map: Callable


def hom_identity(group: G.GroupSpec) -> Homomorphism:
    return Homomorphism("identity", group, lambda p: p, lambda z: z)


def hom_torus_power(d: int, p: int) -> Homomorphism:
    """y -> y^p componentwise on the d-torus; dh = p * id."""
    return Homomorphism(f"torus-power p={p}", G.torus_group(d),
                        lambda payload: payload ** p,
                        lambda z: p * z)


def hom_so3_circle_u2() -> Homomorphism:
    """(R, w) -> sqrt(w) lift(R) into U(2) (defined up to central sign).

    Payloads are pairs: value_map takes (R_payload, w_payload) with w the
    unit-circle coordinate of shape (..., 1); alg_map takes
    (S_payload, v_payload) and returns lift(S)/1 + (v/2) I with lift the
    inverse of the double-cover differential.  The differential is
    single-valued even though the value map has a sign ambiguity.
    """
    def value_map(pair):
        Rp, wp = pair
        return G.iso_so3_torus_to_u2(
            G.GroupElement(G.SO3_GROUP, Rp), wp[..., 0], +1).payload

    def alg_map(pair):
        Sp, vp = pair
        half_lift = G.d_cover_inv(G.AlgebraElement(G.SO3_GROUP, Sp)).payload
        return half_lift + 0.5 * vp[..., 0][..., None, None] * np.eye(2)

    return Homomorphism("so3-circle-to-u2", G.U2_GROUP, value_map, alg_map)


def hom_apply_cocycle(h: Homomorphism, delta) -> D.Cocycle:
    """Compose a cocycle (or an (so3, torus) pair) with a homomorphism."""
    if isinstance(delta, tuple):
        rot, tor = delta
        if rot.group.tag != G.SO3 or tor.group.tag != G.TORUS or tor.group.torus_dim != 1:
            raise TagMismatchError("pair homomorphisms expect (so3, torus-1) cocycles")

        def value(ph):
            return h.value_map((rot.value(ph), tor.value(ph)))

        def m_field(ph):
            return h.alg_map((rot.m_field(ph), tor.m_field(ph)))

        return D.Cocycle(h.codomain, value, m_field,
                         rot.freq_bound + tor.freq_bound, rot.base_dim,
                         name=f"{h.name}[{rot.name}, {tor.name}]",
                         branch_discontinuous=True)
    return D.Cocycle(h.codomain, lambda ph: h.value_map(delta.value(ph)),
                     lambda ph: h.alg_map(delta.m_field(ph)),
                     delta.freq_bound, delta.base_dim, name=f"{h.name}[{delta.name}]",
                     branch_discontinuous=delta.branch_discontinuous)


def invariance_check_homomorphism(delta, h: Homomorphism,
                                  flow: D.TranslationFlow, N: int,
                                  points: D.BasePoint) -> dict:
    """Degrees intertwine with homomorphisms: P(h.delta) = dh(P delta).

    `delta` is a cocycle or an (so3, torus) pair; the composed cocycle's
    degree is estimated directly and compared with dh applied to the
    component degree estimate(s), pointwise.
    """
    composed = hom_apply_cocycle(h, delta)
    est_comp = degree_pointwise(composed, flow, points, N)
    if isinstance(delta, tuple):
        est_parts = tuple(degree_pointwise(c, flow, points, N) for c in delta)
        pushed = h.alg_map(tuple(e.value.payload for e in est_parts))
        diag = max(float(np.max(e.diagnostic)) for e in est_parts)
    else:
        est = degree_pointwise(delta, flow, points, N)
        pushed = h.alg_map(est.value.payload)
        diag = float(np.max(est.diagnostic))
    dev = G.algebra_norm(G.AlgebraElement(
        composed.group, est_comp.value.payload - pushed))
    return {
        "max_deviation": float(np.max(dev)),
        "cesaro_diagnostic_composed": float(np.max(est_comp.diagnostic)),
        "cesaro_diagnostic_domain": diag,
        "n_used": N,
        "hom": h.name,
        "pushed_degree": pushed,
        "composed_degree": est_comp.value.payload,
    }


# ---------------------------------------------------------------------------
# SU(2): the norm invariant and the straightening construction
# ---------------------------------------------------------------------------

def rho_phi(field: DegreeField) -> dict:
    """Norm of the SU(2) degree field: mean of ||degree(x)|| with the max
    deviation from that mean (the norm is constant a.e. in the limit)."""
    if field.values.group.tag != G.SU2:
        raise TagMismatchError("rho_phi is an SU(2) invariant")
    norms = field.norms
    rho = float(np.mean(norms))
    return {
        "rho": rho,
        "max_norm_deviation": float(np.max(np.abs(norms - rho))),
        "n_used": field.n_used,
        "cesaro_diagnostic": float(np.max(field.diagnostics)),
    }


def su2_transfer_zeta(Dz: G.AlgebraElement, rho) -> G.GroupElement:
    """The unitary that conjugates D in su(2) to diag(i rho, -i rho).

    Three branches: a = rho (identity), a = -rho (quarter turn), and the
    generic closed form dividing by |b + ic|; `rho` may be scalar or
    per-point.  Guards: ||D|| must equal rho within NORM_TOL; the
    generic branch cannot meet b + ic = 0 when the norms are consistent.
    Post-condition Ad_zeta(D) = diag(i rho, -i rho) is verified to 1e-8.
    """
    if Dz.group.tag != G.SU2:
        raise TagMismatchError("transfer construction lives in su(2)")
    # D = [[i a, b + i c], [-b + i c, -i a]]
    b, minus_c, a = np.moveaxis(G.su2_alg_components(Dz.payload), -1, 0)
    cc = -minus_c
    rho_arr = np.broadcast_to(np.asarray(rho, dtype=float), a.shape)
    if np.any(rho_arr <= 0):
        raise DegenerateDegreeError("transfer requires rho > 0")
    norms = np.sqrt(a * a + b * b + cc * cc)
    if np.max(np.abs(norms - rho_arr)) > NORM_TOL:
        raise InconsistentDegreeError(
            f"||D|| deviates from rho by {np.max(np.abs(norms - rho_arr)):.3e}")

    plus = np.abs(a - rho_arr) <= BRANCH_TOL
    minus = np.abs(a + rho_arr) <= BRANCH_TOL
    generic = ~(plus | minus)
    bc_abs = np.hypot(b, cc)
    if np.any(generic & (bc_abs == 0.0)):
        raise InconsistentDegreeError(
            "b + ic vanished on a non-degenerate branch; degree data corrupt")

    z1 = np.where(plus, 1.0 + 0j, 0.0 + 0j).astype(complex)
    z2 = np.where(minus, -1.0 + 0j, 0.0 + 0j).astype(complex)
    if np.any(generic):
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = np.where(bc_abs > 0, (b - 1j * cc) / np.where(bc_abs > 0, bc_abs, 1.0), 0.0)
            zg1 = 1j * np.sqrt(np.clip((rho_arr + a) / (2 * rho_arr), 0.0, None)) * unit
            zg2 = np.sqrt(np.clip((rho_arr - a) / (2 * rho_arr), 0.0, None)) + 0j
        z1 = np.where(generic, zg1, z1)
        z2 = np.where(generic, zg2, z2)
    zeta = G.GroupElement(G.SU2_GROUP, np.stack([z1, z2], axis=-1))

    target = rho_arr[..., None, None] * G.E3  # diag(i rho, -i rho)
    moved = G.ad(zeta, Dz).payload
    worst = float(np.max(np.abs(moved - target)))
    if worst > 1e-8:
        raise NumericGuardError(f"transfer post-condition failed at {worst:.3e}")
    return zeta


def _walk_with_shift(c: D.Cocycle, flow: D.TranslationFlow, x: D.BasePoint,
                     n_shift: int, N: int) -> tuple[DegreeEstimate, DegreeEstimate]:
    """One walk of N + 1 steps over x: estimates on the rows [y; F_1 y] for
    y the first `n_shift` points, F_1 y unwalked by the cocycle identity
    S_n(F_1 y) = Ad_{phi(y)^-1}(S_{n+1}(y) - M(y)), and at the other points."""
    half_n = max(N // 2, 1)
    S = _cesaro_sums(c, flow, x, {1, half_n, half_n + 1, N, N + 1})
    phi_inv = G.group_inv(G.GroupElement(c.group, c.value(x.phases[:n_shift])))

    def with_shift(n):
        moved = G.ad(phi_inv, G.AlgebraElement(
            c.group, S[n + 1][:n_shift] - S[1][:n_shift])).payload
        return G.AlgebraElement(c.group, np.concatenate(
            [S[n][:n_shift] / n, moved / n], axis=0))

    def rest(n):
        return G.AlgebraElement(c.group, S[n][n_shift:] / n)

    return (DegreeEstimate(with_shift(N), with_shift(half_n), N),
            DegreeEstimate(rest(N), rest(half_n), N))


def su2_straighten(phi: D.Cocycle, flow: D.TranslationFlow, N: int,
                   grid: D.BasePoint, field_points: D.BasePoint | None = None) -> dict:
    """Conjugate an SU(2) cocycle toward diagonal form on a grid.

    Estimates the degree at the grid points and their unit-time shifts,
    builds the pointwise transfer unitaries zeta, and forms
    delta(x) = zeta(x) phi(x) zeta(F_1 x)^{-1}; for exact degree data
    delta is exactly diagonal, so the reported max off-diagonal magnitude
    measures the degree-estimation error amplified by the conditioning of
    the transfer construction.

    Only the grid is walked (`_walk_with_shift`); `field_points` ride along
    and their DegreeField is returned as "degree_field" (else None).
    """
    if phi.group.tag != G.SU2:
        raise TagMismatchError("straightening lives in SU(2)")
    phases = np.atleast_2d(grid.phases)
    n_pts = phases.shape[0]
    walked = phases if field_points is None else np.concatenate(
        [phases, np.atleast_2d(field_points.phases)], axis=0)
    est, at_field = _walk_with_shift(phi, flow, D.BasePoint(walked), n_pts, N)
    field = None if field_points is None else _field_from_estimate(
        D.BasePoint(walked[n_pts:]), at_field)
    norms = G.algebra_norm(est.value)
    rho_est = float(np.mean(norms[:n_pts]))
    if rho_est <= RHO_THRESHOLD:
        raise DegenerateDegreeError(
            f"estimated rho {rho_est:.3e} below threshold {RHO_THRESHOLD:.0e}")
    # per-point norms as rho: keeps the transfer guards self-consistent
    zeta_all = su2_transfer_zeta(est.value, norms)
    zeta_here = G.GroupElement(G.SU2_GROUP, zeta_all.payload[:n_pts])
    zeta_next = G.GroupElement(G.SU2_GROUP, zeta_all.payload[n_pts:])
    phi_vals = G.GroupElement(G.SU2_GROUP, phi.value(phases))
    delta = G.group_mul(G.group_mul(zeta_here, phi_vals), G.group_inv(zeta_next))
    off_diag = float(np.max(np.abs(delta.payload[..., 1])))
    diag_mag = float(np.min(np.abs(delta.payload[..., 0])))
    cesaro = float(np.max(est.diagnostic))
    return {
        "delta_values": delta,
        "zeta_values": zeta_here,
        "grid": D.BasePoint(phases),
        "rho_estimate": rho_est,
        "max_off_diagonal": off_diag,
        "min_diagonal_magnitude": diag_mag,
        "cesaro_diagnostic": cesaro,
        "conditioning_ratio": off_diag / cesaro if cesaro > 0 else float("inf"),
        "n_used": N,
        "degree_field": field,
        "interpolation_note": ("delta sampled on the grid only; use the "
                               "manufactured pathway for a closed form"),
    }


# ---------------------------------------------------------------------------
# ergodicity obstructions
# ---------------------------------------------------------------------------

NOT_UNIQUELY_ERGODIC_A = "NOT_UNIQUELY_ERGODIC(a)"
NOT_UNIQUELY_ERGODIC_B = "NOT_UNIQUELY_ERGODIC(b)"
NOT_ERGODIC_C = "NOT_ERGODIC(c)"
NO_OBSTRUCTION = "NO_OBSTRUCTION"


def ergodicity_verdict(group: G.GroupSpec, integral_M: G.AlgebraElement,
                       degree_nonzero: bool,
                       flow_uniquely_ergodic: bool = False) -> dict:
    """Obstruction verdict for the skew product.

    (a) nonzero degree whose Ad-average projection vanishes rules out
    unique ergodicity; (b) nonzero degree over a centerless connected
    group (SU(2), SO(3)) does the same; either upgrades to a failure of
    plain ergodicity (c) when the base flow is flagged uniquely ergodic.
    These are necessary-condition reports, never ergodicity certificates.
    """
    verdict = NO_OBSTRUCTION
    why = "no obstruction detected (not an ergodicity certificate)"
    if degree_nonzero:
        centered = float(G.algebra_norm(G.p_ad(integral_M)))
        if group.tag in (G.SU2, G.SO3):
            verdict = NOT_UNIQUELY_ERGODIC_B
            why = ("nonzero degree over a group with trivial center "
                   "direction: no invariant vector survives averaging")
        elif centered <= 1e-9:
            verdict = NOT_UNIQUELY_ERGODIC_A
            why = ("nonzero degree while the Ad-averaged integral of the "
                   "M-field vanishes")
        if verdict != NO_OBSTRUCTION and flow_uniquely_ergodic:
            verdict = NOT_ERGODIC_C
            why += "; base flow uniquely ergodic, so ergodicity itself fails"
    return {"verdict": verdict, "justification": why}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _matrix_json(payload: np.ndarray):
    arr = np.atleast_1d(payload)
    if arr.ndim == 1:
        return [[float(np.real(v)), float(np.imag(v))] for v in arr]
    return [[[float(np.real(v)), float(np.imag(v))] for v in row]
            for row in arr]


def degree_report(group: G.GroupSpec, M_star: G.AlgebraElement,
                  reps: Sequence[R.Representation], verdict: dict,
                  n_used: int, constant_form: str,
                  diagnostics: dict | None = None) -> dict:
    """JSON-ready summary of a degree computation.

    `constant_form` names the route that justified treating the degree as
    constant: 'diagonal-route', 'ergodic-route', 'pointwise-cesaro', or
    'manufactured'.
    """
    per_rep = []
    for rep in reps:
        Dm = R.multiplication_matrix(rep, M_star)
        lam = np.linalg.eigvalsh(Dm)
        per_rep.append({
            "label": rep.name,
            "eigenvalues": [float(v) for v in lam],
            "a_phi_pi": float(np.min(lam ** 2)),
            "kernel_indices": kernel_split(Dm)[2],
        })
    return {
        "group": group.name,
        "M_star": _matrix_json(M_star.payload),
        "per_rep": per_rep,
        "verdict": verdict["verdict"],
        "justification": verdict["justification"],
        "N_used": n_used,
        "constant_form": constant_form,
        "diagnostics": diagnostics or {},
    }
