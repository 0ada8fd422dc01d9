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
applications", 1990), taken by a log-depth doubling scan:

    S_{bL+j}(x) = sum_{b'<b} Ad_{G_b'} s_b'(L) + Ad_{G_b} s_b(j),
    G_b = phi^(bL)(x) = P_0 P_1 ... P_{b-1},

with s_b the running sum and P_b = phi^(L)(F_{bL} x) the product of
block b alone.  For diagonalizable situations the limit collapses to closed
forms (the plain integral of M, or its Ad-average projection), and the
module provides: the invariance check under cohomology, the SU(2)
straightening that conjugates a nondegenerate cocycle to
diagonal form, the spectral floor a_{phi,pi}, and obstruction verdicts
for unique ergodicity / ergodicity of the skew product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics as D
from . import groups as G
from . import reps as R
from .errors import (ConfigError, DegenerateDegreeError,
                     InconsistentDegreeError, NonHermitianError,
                     NumericGuardError, TagMismatchError)

CONSTANT_SPREAD_FACTOR = 10.0
# guards of the SU(2) transfer construction: the smallest rho
# `su2_straighten` accepts, and `su2_transfer_zeta`'s tolerances on
# |a -+ rho| (branch choice) and on ||D|| - rho
RHO_THRESHOLD = 1e-3
BRANCH_TOL = 1e-9
NORM_TOL = 1e-6
# the one "degree vanishes" rule of the ergodicity and AC verdicts
DEGREE_NONZERO_THRESHOLD = 1e-3


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
    """Phases of F_{bL} x for b < blocks, shape (blocks,) + x.phases.shape;
    each offset b L alpha mod 1 is exactly rounded (`D.orbit_turns`)."""
    turns = D.orbit_turns(flow)
    offsets = np.array([turns(b * length) for b in range(blocks)])
    offsets = offsets.reshape((blocks,) + (1,) * (x.phases.ndim - 1) + (flow.dim,))
    return D.wrap_phases(x.phases + offsets)


def _cesaro_sums(c: D.Cocycle, flow: D.TranslationFlow, x: D.BasePoint, counts) -> dict:
    """Running sums S_n(x) = sum_{k<n} Ad_{phi^(k)(x)} M(F_k x) for each n
    in `counts`, batched over x, from one orbit walk.

    The n_max = max(counts) steps are split into B blocks of L steps
    (`_block_shape`), which start at the closed-form points F_{bL} x
    (`_block_starts`) and are walked together as a leading batch axis.
    The visitor keeps each block's local running sum s_b(j) at the local
    indices j where a requested n = bL + j falls (1 <= j <= L), and at
    j = L.  The walk also returns each block's product P_b, and the sums
    are joined as S_n = sum_{b'<b} Ad_{G_b'} s_b'(L) + Ad_{G_b} s_b(j),
    G_0 = e and G_b = P_0 ... P_{b-1} by a doubling scan (ceil(log2(B - 1))
    batched rounds; the sequential join bit for bit up to B = 3).  One block
    (n_max < 2 * MIN_BLOCK_STEPS, or BLOCK_BATCH points) gives a batch of
    points the plain sequential sums bit for bit; otherwise the block count
    (BLOCK_BATCH, see `_block_shape`) and the scan move them by round-off.
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
    # G_b as lifts[b - 1], by doubling: round d sets lifts[i] = lifts[i - d] lifts[i]
    lifts, d = products[:-1], 1
    while d < blocks - 1:
        g = G.group_mul(G.GroupElement(c.group, lifts[:-d]), G.GroupElement(c.group, lifts[d:]))
        lifts[d:] = G.maybe_renormalize(g).payload
        d *= 2

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
                     N: int) -> DegreeEstimate:
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
# the spread compares every pair of points: 4,096 SU(2) points take about 1 s
SPREAD_MAX_POINTS = 2 ** 12


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
    # the spread's blocks peak before the diagnostics exist
    spread, diags = _pairwise_spread(est.value), est.diagnostic
    tol = CONSTANT_SPREAD_FACTOR * max(float(np.max(diags)), 1e-12)
    return DegreeField(points, est.value, est.n_used, diags, spread,
                       constant=spread <= tol)


def degree_field(c: D.Cocycle, flow: D.TranslationFlow, points: D.BasePoint,
                 N: int) -> DegreeField:
    """Degree estimates over a point family, in one batched orbit walk."""
    points = points if points.phases.ndim > 1 else D.BasePoint(points.phases[None])
    return _field_from_estimate(points, degree_pointwise(c, flow, points, N))


# ---------------------------------------------------------------------------
# constant closed forms
# ---------------------------------------------------------------------------

def degree_constant_diagonal(c: D.Cocycle, quadrature: D.QuadratureSpec) -> G.AlgebraElement:
    """Quadrature of the M-field over the base torus: the constant-degree
    closed form on the diagonal route (base map uniquely ergodic and the
    composed representation diagonal).  On the ergodic route (whole skew
    product uniquely ergodic) the closed form is its `G.p_ad` projection."""
    pts = D.quadrature_points(quadrature, c.base_dim)
    return G.AlgebraElement(c.group, np.mean(c.m_field(pts), axis=0))


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


def a_phi_pi(rep: R.Representation, values: G.AlgebraElement) -> float:
    """Spectral floor: the smallest eigenvalue of (i dpi(Z))^2 over the
    batch of algebra elements Z in `values`.

    Pass M* for a constant degree, or a DegreeField's `values` for the
    minimum over its sample points — a grid surrogate for the essential
    infimum, unchanged when the field is conjugated pointwise.
    """
    lam = np.linalg.eigvalsh(R.multiplication_matrix(rep, values))
    return float(np.min(lam ** 2))


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


# ---------------------------------------------------------------------------
# SU(2): the straightening construction
# ---------------------------------------------------------------------------

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
NO_OBSTRUCTION = "NO_OBSTRUCTION"


def degree_vanishes(M_star: G.AlgebraElement) -> bool:
    """Whether the verdicts treat the degree M_star as zero: its norm is at
    most DEGREE_NONZERO_THRESHOLD."""
    return float(G.algebra_norm(M_star)) <= DEGREE_NONZERO_THRESHOLD


def ergodicity_verdict(group: G.GroupSpec, integral_M: G.AlgebraElement,
                       degree_nonzero: bool) -> dict:
    """Obstruction verdict for the skew product.

    (a) nonzero degree whose Ad-average projection vanishes rules out
    unique ergodicity; (b) nonzero degree over a centerless connected
    group (SU(2), SO(3)) does the same.  The paper's (c), a failure of
    plain ergodicity, needs the base flow uniquely ergodic, which is an
    input assumption here and never verified, so it is not reported.
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
    return {"verdict": verdict, "justification": why}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def report_payload(Z: G.AlgebraElement) -> np.ndarray:
    """Z's payload as reports show it: so(3) as its real skew-symmetric 3x3."""
    return G.so3_alg_matrix(Z.payload) if Z.group.tag == G.SO3 else Z.payload


def _matrix_json(payload: np.ndarray):
    arr = np.atleast_1d(payload)
    if arr.ndim == 1:
        return [[float(np.real(v)), float(np.imag(v))] for v in arr]
    return [[[float(np.real(v)), float(np.imag(v))] for v in row]
            for row in arr]


def degree_report(group: G.GroupSpec, M_star: G.AlgebraElement,
                  reps: Sequence[R.Representation], splits: Sequence[tuple],
                  verdict: dict, n_used: int, constant_form: str,
                  diagnostics: dict) -> dict:
    """JSON-ready summary of a degree computation.

    `splits[i]` is `kernel_split` of i dpi(M_star) on `reps[i]`.
    `constant_form` names the route that justified treating the degree
    as constant: 'diagonal-route', 'ergodic-route', 'pointwise-cesaro',
    or 'manufactured'.
    """
    per_rep = []
    for rep, (_, lam, kernel) in zip(reps, splits):
        per_rep.append({
            "label": rep.name,
            "eigenvalues": [float(v) for v in lam],
            "a_phi_pi": float(np.min(lam ** 2)),
            "kernel_indices": kernel,
        })
    return {
        "group": group.name,
        "M_star": _matrix_json(report_payload(M_star)),
        "per_rep": per_rep,
        "verdict": verdict["verdict"],
        "justification": verdict["justification"],
        "N_used": n_used,
        "constant_form": constant_form,
        "diagnostics": diagnostics,
    }
