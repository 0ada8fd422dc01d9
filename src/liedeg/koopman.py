"""Koopman restrictions on matrix-element fibers and their spectra.

L^2 of the skew product splits into fibers spanned by matrix elements of
the irreducible representations; on the row-j fiber of a d-dimensional
representation pi, a vector is psi = sum_k phi_k(x) pi_jk and the
Koopman operator sends the coefficient stack phi to
pi(cocycle(x)) phi(F_1 x).

Correlations <psi1, U^N psi2> reduce to base-torus integrals evaluated
by equispaced quadrature, sized so trig-polynomial integrands are
integrated exactly; a check grid with twice the nodes per dimension,
which nests the grid so one walk yields both rules, supplies an error
estimate for everything else.  For constant coefficient vectors v1, v2,
plain or conjugated by one transfer function zeta (zeta = e for plain
ones), the integrand collapses because pi is a unitary homomorphism:

    c_N = d_pi^{-1} v1^H M_N v2,
    M_N = mean_x pi(zeta(x) phi^(N)(x) zeta(F_N x)^{-1}),

so all such probes of a fiber read one walk of the mean
representation-matrix series M_0..M_N.  The walk still runs under phi,
so the check stays numerical and never assumes the cohomology.

The finite-N commutator average D_N converges to a Hermitian
multiplication matrix whose kernel separates the (conjecturally)
mixing complement from the unresolved part.
Verdict builders run probe correlations and report three-valued
outcomes with explicit hypothesis flags; they check observable
consequences, never assert theorems.

Every representation is unitary (see `reps`), as the spectral
identities below require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import degree as DG
from . import dynamics as D
from . import groups as G
from . import reps as R
from .errors import ConfigError, NumericGuardError, TagMismatchError

ERR_FLAG_THRESHOLD = 1e-6
MAX_GRID_BYTES = 2 ** 28  # representation values on one (2n)^d check grid
# Dini grid points per block: the cohomologous SU(2) pair's M-field keeps ~7
# block-sized temporaries, so a 256^2 pass stays below one whole-grid field
DINI_BLOCK = 4096
DINI_NODES = 256  # Dini grid points per dimension
DINI_SHIFTS = tuple(np.logspace(-4, 0, 17).tolist())  # t grid of the AC check

SUPPORTED = "SUPPORTED"
NO_CLAIM = "NO-CLAIM"
VIOLATED = "VIOLATED"
NOT_IN_SCOPE = "NOT-IN-SCOPE"
AC_PREDICTED = "AC-PREDICTED"


# ---------------------------------------------------------------------------
# fiber vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberVector:
    """psi = sum_k phi_k(x) pi_jk on the row-j fiber of rep.

    `coefficients` maps a raw phase array (..., d) to the coefficient
    stack (..., d_pi); `degree_bound` is the per-dimension trig degree
    of the coefficients, consumed by the quadrature sizing rule.

    `vector` is set when the coefficients are pi(zeta(x)^{-1}) v for a
    constant read-only v, with `transfer` = zeta or None for plain
    constants; `correlation_series` then reads the pair off the shared
    mean representation-matrix series.
    """

    rep: R.Representation
    j: int
    coefficients: Callable[[np.ndarray], np.ndarray]
    degree_bound: int
    name: str = ""
    # left out of == and hash, which an array cannot take part in
    vector: np.ndarray | None = field(default=None, compare=False)
    transfer: D.Cocycle | None = None

    def __post_init__(self):
        if not 0 <= self.j < self.rep.dim:
            raise ConfigError(f"row index {self.j} outside [0, {self.rep.dim})")
        if self.degree_bound < 0:
            raise ConfigError("degree_bound must be >= 0")


def constant_fiber(rep: R.Representation, j: int, vector,
                   name: str = "") -> FiberVector:
    vec = np.array(vector, dtype=complex)
    if vec.shape != (rep.dim,):
        raise ConfigError(f"coefficient vector must have length {rep.dim}")
    vec.flags.writeable = False

    def coefficients(phases: np.ndarray) -> np.ndarray:
        return np.broadcast_to(vec, phases.shape[:-1] + (rep.dim,)).copy()

    return FiberVector(rep, j, coefficients, 0, name or "constant-fiber", vec)


def monomial_fiber(rep: R.Representation, j: int, windings,
                   name: str = "") -> FiberVector:
    """Coefficients phi_k(x) = exp(2 pi i q_k . x); `windings` is a
    (d_pi, d) integer array, one winding row per coefficient."""
    q = np.atleast_2d(D._integers(windings))
    if q.shape[0] != rep.dim:
        raise ConfigError(f"need {rep.dim} winding rows, got {q.shape[0]}")

    def coefficients(phases: np.ndarray) -> np.ndarray:
        return np.exp(2j * np.pi * (np.asarray(phases, dtype=float) @ q.T))

    return FiberVector(rep, j, coefficients, int(np.max(np.abs(q))),
                       name or f"monomial-fiber q={q.tolist()}")


def _check_pair(psi1: FiberVector, psi2: FiberVector):
    if psi1.rep != psi2.rep:
        raise TagMismatchError("fiber vectors live on different representations")
    if psi1.j != psi2.j:
        raise TagMismatchError("fiber vectors live on different rows")


def _check_fiber_cocycle(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle):
    _check_pair(psi1, psi2)
    if psi1.rep.group != c.group:
        raise TagMismatchError("fiber and cocycle live on different groups")


def inner_product(psi1: FiberVector, psi2: FiberVector,
                  quadrature: D.QuadratureSpec, d: int) -> complex:
    """<psi1, psi2> = d_pi^{-1} sum_k integral conj(phi1_k) phi2_k."""
    _check_pair(psi1, psi2)
    nodes = max(quadrature.nodes_per_dim,
                psi1.degree_bound + psi2.degree_bound + 1)
    pts = D.quadrature_points(D.QuadratureSpec(nodes), d)
    v1 = psi1.coefficients(pts)
    v2 = psi2.coefficients(pts)
    return complex(np.mean(np.sum(np.conj(v1) * v2, axis=-1)) / psi1.rep.dim)


def fiber_norm(psi: FiberVector, quadrature: D.QuadratureSpec, d: int) -> float:
    return math.sqrt(max(inner_product(psi, psi, quadrature, d).real, 0.0))


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def _sizing_nodes(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                  flow: D.TranslationFlow, N: int, floor: int) -> int:
    """Node count guaranteeing exactness for trig-polynomial data: the
    integrand conj(phi1) pi(phi^(N)) (phi2 o F_N) has per-dimension trig
    degree at most max(B1, B2) + |N| * freq(cocycle) * weight(pi), and an
    equispaced rule with more than twice that many nodes is exact.

    Raises ConfigError, before any grid exists, when the representation
    values on the (2 nodes)^d check grid would exceed MAX_GRID_BYTES."""
    f_eff = c.freq_bound * R.rep_weight(psi1.rep)
    nodes = max(floor, 2 * (max(psi1.degree_bound, psi2.degree_bound)
                            + abs(N) * f_eff) + 1)
    check = 2 * nodes
    need = check ** flow.dim * psi1.rep.dim ** 2 * 16
    if need > MAX_GRID_BYTES:
        raise ConfigError(
            f"correlation at N={N} needs a {check}^{flow.dim}-node check grid "
            f"({need} bytes of representation values, cap {MAX_GRID_BYTES}); "
            f"lower the horizon, the cocycle degree or the representation")
    return nodes


def _integrand(rep: R.Representation, conj_v1: np.ndarray,
               g: G.GroupElement, v2: np.ndarray) -> np.ndarray:
    """conj(phi1) pi(g) phi2 at every grid point."""
    P = R.rep_eval_payload(rep, g.payload)
    return np.einsum("...l,...lk,...k->...", conj_v1, P, v2)


def _check_grid(nodes: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2 nodes)^d check grid and, in grid order, the flat indices of
    its even-indexed nodes: node i sits at i/m, so they are the nodes^d
    grid bit for bit."""
    pts = D.quadrature_points(D.QuadratureSpec(2 * nodes), d)
    fine = np.arange(len(pts)).reshape((2 * nodes,) * d)
    return pts, fine[(slice(None, None, 2),) * d].ravel()


def _corr_on_grid(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                  flow: D.TranslationFlow, N: int, nodes: int) -> complex:
    pts = D.quadrature_points(D.QuadratureSpec(nodes), flow.dim)
    x = D.BasePoint(pts)
    gN = D.cocycle_iterate(c, flow, x, N)
    v2 = psi2.coefficients(D.flow_advance(flow, x, float(N)).phases)
    vals = _integrand(psi1.rep, np.conj(psi1.coefficients(pts)), gN, v2)
    return complex(np.mean(vals) / psi1.rep.dim)


def _series_on_grid(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                    flow: D.TranslationFlow, N_max: int, nodes: int) -> np.ndarray:
    """Rows c_0..c_N_max on the nodes^d grid and its check grid, one walk."""
    pts, coarse = _check_grid(nodes, flow.dim)
    conj_v1 = np.conj(psi1.coefficients(pts))
    out = np.empty((2, N_max + 1), dtype=complex)

    def visit(k, phases, g):
        vals = _integrand(psi1.rep, conj_v1, g, psi2.coefficients(phases))
        out[:, k] = np.mean(vals[coarse]) / psi1.rep.dim, np.mean(vals) / psi1.rep.dim

    D.cocycle_iterate(c, flow, D.BasePoint(pts), N_max + 1, visit)
    return out


@lru_cache(maxsize=1)  # one fiber's walk
def _mean_rep_series(rep: R.Representation, transfer: D.Cocycle | None,
                     c: D.Cocycle, flow: D.TranslationFlow, N_max: int,
                     nodes: int) -> np.ndarray:
    """Rows M_0..M_N_max on the nodes^d grid and its check grid, M_N =
    mean_x pi(zeta(x) phi^(N)(x) zeta(F_N x)^{-1}) (zeta = e when `transfer`
    is None), from one walk with one representation evaluation per step;
    read-only, since every constant probe of the fiber shares it."""
    pts, coarse = _check_grid(nodes, flow.dim)
    out = np.empty((2, N_max + 1, rep.dim, rep.dim), dtype=complex)
    if transfer is not None:
        z0 = G.GroupElement(transfer.group, transfer.value(pts))

    def visit(k, phases, g):
        if transfer is not None:
            zk = G.GroupElement(transfer.group, transfer.value(phases))
            g = G.group_mul(G.group_mul(z0, g), G.group_inv(zk))
        P = R.rep_eval_payload(rep, g.payload)
        out[:, k] = np.mean(P[coarse], axis=0), np.mean(P, axis=0)

    D.cocycle_iterate(c, flow, D.BasePoint(pts), N_max + 1, visit)
    out.flags.writeable = False
    return out


def koopman_apply_corr(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                       flow: D.TranslationFlow, N: int,
                       quadrature: D.QuadratureSpec) -> tuple[complex, float]:
    """c_N = <psi1, U^N psi2> by quadrature, plus a grid-doubling error
    estimate |value - value on the (2 nodes)^d grid|, each walked apart.
    Any integer N; the reference for `correlation_series`."""
    _check_fiber_cocycle(psi1, psi2, c)
    nodes = _sizing_nodes(psi1, psi2, c, flow, N, quadrature.nodes_per_dim)
    value = _corr_on_grid(psi1, psi2, c, flow, N, nodes)
    check = _corr_on_grid(psi1, psi2, c, flow, N, 2 * nodes)
    return value, abs(value - check)


@dataclass
class CorrelationSeries:
    """c_N for N = 0..N_max with per-N error estimates and node counts."""

    values: np.ndarray
    err_estimates: np.ndarray
    node_counts: np.ndarray
    flagged: list[int] = field(default_factory=list)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def to_csv_text(self) -> str:
        lines = ["N,re,im,abs,err_estimate"]
        for n, (v, e) in enumerate(zip(self.values, self.err_estimates)):
            v = complex(v)
            lines.append(f"{n},{v.real!r},{v.imag!r},{abs(v)!r},{float(e)!r}")
        return "\n".join(lines) + "\n"


def correlation_series(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                       flow: D.TranslationFlow, N_max: int,
                       quadrature: D.QuadratureSpec) -> CorrelationSeries:
    """c_N for N = 0..N_max; entries whose grid-doubling estimate exceeds
    ERR_FLAG_THRESHOLD are listed in `flagged` (and kept, not hidden).

    One grid sized for N_max serves every N (an equispaced rule exact
    at N_max's degree is exact below it).  Its check grid has twice the
    nodes per dimension and nests it, so one walk yields both rules; the
    blind spot is aliasing onto even multiples of the node count only,
    which moves both rules alike.  Two constant-vector probes that share
    a transfer function zeta (or have none) read
    c_N = d_pi^{-1} v1^H M_N v2 off the memoised mean series M_N of
    `_mean_rep_series`, so every such probe of a fiber shares one walk;
    the identity needs pi unitary and multiplicative.
    Every other pair walks its own check grid with per-point coefficients.
    """
    if N_max < 1:
        raise ConfigError("N_max must be >= 1")
    _check_fiber_cocycle(psi1, psi2, c)
    nodes = _sizing_nodes(psi1, psi2, c, flow, N_max, quadrature.nodes_per_dim)
    if (psi1.vector is not None and psi2.vector is not None
            and psi1.transfer == psi2.transfer):
        M = _mean_rep_series(psi1.rep, psi1.transfer, c, flow, N_max, nodes)
        values, check = (np.einsum("l,nlk,k->n", np.conj(psi1.vector), M_r,
                                   psi2.vector) / psi1.rep.dim for M_r in M)
    else:
        values, check = _series_on_grid(psi1, psi2, c, flow, N_max, nodes)
    errs = np.abs(values - check)
    return CorrelationSeries(values, errs, np.full(N_max + 1, nodes),
                             np.flatnonzero(errs > ERR_FLAG_THRESHOLD).tolist())


# ---------------------------------------------------------------------------
# finite-N commutator average
# ---------------------------------------------------------------------------

def d_n_average(rep: R.Representation, c: D.Cocycle, flow: D.TranslationFlow,
                x: D.BasePoint, N: int) -> np.ndarray:
    """(i/N) sum_{n<N} Ad_{pi(phi^(n)(x))} dpi(M(F_n x)): the finite-N
    multiplication matrix on the fiber at a single base point.

    Since Ad_{pi(g)} dpi(M) = dpi(Ad_g M), this is i dpi of the Cesaro
    average `degree_pointwise` accumulates at group level.  The result
    must be Hermitian within 1e-9 relative or a numeric guard trips.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    if np.ndim(x.phases) != 1:
        raise ConfigError("expected a single base point, not a batch")
    out = 1j * R.rep_differential(rep, DG.degree_pointwise(c, flow, x, N).value)
    defect = float(np.max(np.abs(out - np.conj(out.T))))
    if defect > 1e-9 * max(1.0, float(np.max(np.abs(out)))):
        raise NumericGuardError(
            f"commutator average drifted off Hermitian by {defect:.3e}")
    return out


# ---------------------------------------------------------------------------
# cohomology on fibers
# ---------------------------------------------------------------------------

def conjugate_vector(psi: FiberVector, zeta: D.Cocycle) -> FiberVector:
    """The unitary fiber intertwiner induced by a transfer function.

    If phi = zeta^{-1} delta (zeta o F_1), the substitution
    (x, g) -> (x, g zeta(x)^{-1}) conjugates the two skew products, and
    on the row-j fiber it sends coefficient stacks to
    phi'(x) = pi(zeta(x)^{-1}) phi(x).  Correlations then match:
    <S psi1, U_phi^N S psi2> = <psi1, U_delta^N psi2>.

    A constant psi keeps its vector and records zeta as its transfer; a
    psi that already has a transfer, or no constant vector, keeps
    neither, and its correlations walk per-point coefficients.
    """
    if psi.rep.group != zeta.group:
        raise TagMismatchError("transfer function lives on a different group")

    def coefficients(phases: np.ndarray) -> np.ndarray:
        z = G.GroupElement(zeta.group, zeta.value(np.asarray(phases, dtype=float)))
        P = R.rep_eval_payload(psi.rep, G.group_inv(z).payload)
        return np.einsum("...lk,...k->...l", P, psi.coefficients(phases))

    bound = psi.degree_bound + zeta.freq_bound * R.rep_weight(psi.rep)
    constant = psi.vector is not None and psi.transfer is None
    return FiberVector(psi.rep, psi.j, coefficients, bound,
                       name=f"conjugated[{psi.name}]",
                       vector=psi.vector if constant else None,
                       transfer=zeta if constant else None)


# ---------------------------------------------------------------------------
# spectral diagnostics
# ---------------------------------------------------------------------------

def wiener_average(series: CorrelationSeries) -> np.ndarray:
    """A_N = (1/N) sum_{n=1}^N |c_n|^2 for N = 1..N_max.  The limit is
    the total squared atom mass of the pair's spectral measure, so decay
    to 0 is the observable surrogate for a purely continuous spectrum
    and A_N near |c_0|^2-scale mass indicates dominant point spectrum."""
    sq = np.abs(series.values[1:]) ** 2
    if sq.size == 0:
        return np.zeros(0)
    return np.cumsum(sq) / np.arange(1, len(sq) + 1)


def differential_map(rep: R.Representation,
                     group: G.GroupSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The linear map M -> dpi(M) on `group` algebra payloads: one of
    `dini_modulus`'s maps."""
    return lambda payload: R.rep_differential(rep, G.AlgebraElement(group, payload))


def dini_modulus(field_fn: Callable[[np.ndarray], np.ndarray],
                 maps: Sequence[Callable[[np.ndarray], np.ndarray]],
                 flow: D.TranslationFlow, t_grid: Sequence[float]) -> list[dict]:
    """Per linear map L in `maps` (dpi per representation, or the identity):
    samples of t -> sup_x |L(field(F_t x) - field(x))| (entrywise sup on
    the DINI_NODES^d grid) and a trapezoid estimate of
    integral_0^1 modulus(t)/t dt.

    One field difference per shift serves every map.  The grid is walked
    in blocks of DINI_BLOCK points, so no whole-grid field is alive.

    The tail below the smallest grid point is modeled as Lipschitz
    (modulus ~ C t), contributing C * t_min = modulus(t_min).  Finite
    grids certify neither the sup nor the integral, so each result is
    permanently flagged heuristic.
    """
    t = np.asarray(sorted(float(v) for v in t_grid), dtype=float)
    if t.size == 0 or t[0] <= 0 or t[-1] > 1.0:
        raise ConfigError("t_grid must be sorted inside (0, 1]")
    # the grid is already in [0, 1); only the shifted phases need wrapping
    pts = D.quadrature_points(D.QuadratureSpec(DINI_NODES), flow.dim)
    shifts = t[:, None] * flow.alpha_array
    sups = np.zeros((len(maps), t.size))
    for start in range(0, pts.shape[0], DINI_BLOCK):
        block = pts[start:start + DINI_BLOCK]
        base = np.asarray(field_fn(block))
        for i, shift in enumerate(shifts):
            diff = np.asarray(field_fn(D.wrap_phases(block + shift)))
            diff -= base
            np.maximum(sups[:, i], [np.max(np.abs(L(diff))) for L in maps],
                       out=sups[:, i])
    out = []
    for samples in sups:
        integral = float(np.trapezoid(samples / t, t)) if t.size > 1 else 0.0
        integral += float(samples[0])  # Lipschitz tail below t_min
        out.append({
            "t": t,
            "samples": samples,
            "integral_estimate": integral,
            "lipschitz_constant_estimate": float(samples[0] / t[0]),
            "heuristic": True,
            "note": ("finite-grid estimate of the modulus integral; cannot "
                     "certify the integrability condition"),
        })
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _hypothesis(name: str, status: str, value) -> dict:
    return {"name": name, "status": status, "value": value}


@lru_cache(maxsize=1)  # every representation of a scenario reads it
def _hypothesis_field(c: D.Cocycle, flow: D.TranslationFlow, nodes: int) -> np.ndarray:
    """The M-field on the nodes^d grid of `_grid_hypotheses`, read-only."""
    out = np.asarray(c.m_field(D.quadrature_points(D.QuadratureSpec(nodes), flow.dim)))
    out.flags.writeable = False
    return out


def _grid_hypotheses(rep: R.Representation, c: D.Cocycle,
                     flow: D.TranslationFlow, nodes: int = 128) -> list[dict]:
    M = G.AlgebraElement(c.group, _hypothesis_field(c, flow, nodes))
    m_sup = float(np.max(G.algebra_norm(M)))
    dm_sup = float(np.max(np.abs(R.rep_differential(rep, M))))
    return [
        _hypothesis("derivative field bounded (grid sup)", "checked-on-grid", m_sup),
        _hypothesis("fiber multiplication bounded (grid sup)", "checked-on-grid", dm_sup),
    ]


def _kernel_mass_fraction(probe: FiberVector, Q: np.ndarray, kernel: list[int],
                          d: int, nodes: int = 64) -> float:
    """Fraction of the probe's L^2 coefficient mass lying in the kernel
    eigendirections (1.0 means entirely out of the claim's scope)."""
    pts = D.quadrature_points(D.QuadratureSpec(max(nodes, 2 * probe.degree_bound + 1)), d)
    coeffs = probe.coefficients(pts)
    comps = np.einsum("ls,...l->...s", np.conj(Q), coeffs)
    mass = np.mean(np.abs(comps) ** 2, axis=0)
    total = float(np.sum(mass))
    if total <= 0.0:
        return 1.0
    return float(np.sum(mass[kernel])) / total


def default_probes(rep: R.Representation, M_star: G.AlgebraElement,
                   j: int = 0) -> list[FiberVector]:
    """Constant probes spanning the kernel complement of D = i dpi(M*).

    One constant-coefficient fiber vector per non-kernel eigenslot of D
    (empty when D vanishes on the whole fiber).  Meaningful for constant
    degree fields only; see `mixing_verdict` for the scope discussion.
    """
    Q, _, kernel = DG.kernel_split(R.multiplication_matrix(rep, M_star))
    return [constant_fiber(rep, j, Q[:, s], name=f"eigenslot-{s}")
            for s in range(rep.dim) if s not in kernel]


def mixing_verdict(rep: R.Representation, j: int, c: D.Cocycle,
                   flow: D.TranslationFlow, M_star: G.AlgebraElement,
                   N_max: int = 50,
                   quadrature: D.QuadratureSpec | None = None,
                   probes: Sequence[FiberVector] | None = None,
                   ) -> tuple[dict, list[CorrelationSeries | None]]:
    """Correlation-decay check on the kernel complement of D = i dpi(M*).

    Default probes are the non-kernel eigenvectors of D as constant
    coefficient vectors (each with c_0 = 1/d_pi).  That construction is
    meaningful when the degree field is constant in x (so D really is
    the fiber multiplication matrix); for a cocycle whose degree field
    rotates with x — e.g. one cohomologous to a diagonal model — the
    kernel direction rotates too, constant probes overlap it almost
    everywhere and genuinely recur, and honest probes must be supplied
    explicitly (conjugate_vector of the diagonal model's weight vectors).

    A probe supports the mixing prediction when max over N in
    [N_max/2, N_max] of |c_N| is at most 1e-3 * c_0 and the late-window
    maximum does not exceed the early-window maximum.  Probes whose
    coefficient mass lies entirely in the kernel directions are out of
    the claim's scope and reported NOT-IN-SCOPE; if no probe is in
    scope the verdict is NO-CLAIM.

    Returns (verdict, series): series[i] is probe i's correlation series,
    None when probe i is NOT-IN-SCOPE.
    """
    quadrature = quadrature or D.QuadratureSpec(32)
    if N_max < 4:
        raise ConfigError("N_max must be >= 4")
    Q, lam, kernel = DG.kernel_split(R.multiplication_matrix(rep, M_star))
    if probes is None:
        probes = default_probes(rep, M_star, j)

    probe_reports = []
    walked = []
    for probe in probes:
        if _kernel_mass_fraction(probe, Q, kernel, flow.dim) >= 1.0 - 1e-12:
            probe_reports.append({"probe": probe.name, "status": NOT_IN_SCOPE,
                                  "reason": "coefficients lie in ker D"})
            walked.append(None)
            continue
        series = correlation_series(probe, probe, c, flow, N_max, quadrature)
        walked.append(series)
        c0 = abs(series.values[0])
        head = np.abs(series.values[1:N_max // 2])
        tail = np.abs(series.values[N_max // 2:])
        decayed = bool(np.max(tail) <= 1e-3 * c0) if c0 > 0 else True
        # growth test with a c0-relative floor so noise is not compared to noise
        not_growing = (bool(np.max(tail) <= np.max(head) + 1e-9 * max(c0, 1.0))
                       if head.size else True)
        status = SUPPORTED if (decayed and not_growing) else VIOLATED
        probe_reports.append({
            "probe": probe.name,
            "status": status,
            "c0": c0,
            "tail_max": float(np.max(tail)),
            "flagged_entries": series.flagged,
        })

    statuses = [p["status"] for p in probe_reports]
    if any(s == VIOLATED for s in statuses):
        verdict = VIOLATED
    elif any(s == SUPPORTED for s in statuses):
        verdict = SUPPORTED
    else:
        verdict = NO_CLAIM
    return {
        "rep_label": rep.name,
        "j": j,
        "kernel_indices": kernel,
        "eigenvalues": [float(v) for v in lam],
        "hypotheses": _grid_hypotheses(rep, c, flow),
        "probes": probe_reports,
        "verdict": verdict,
        "notes": ("decay of probe correlations on the kernel complement is "
                  "an observable consequence of the mixing prediction, not "
                  "a proof"),
    }, walked


def ac_verdict(rep: R.Representation, j: int, c: D.Cocycle,
               flow: D.TranslationFlow, degree,
               dini: dict | None = None) -> dict:
    """Hypothesis-flag assembly for the absolutely-continuous prediction
    on the kernel complement of a fiber.

    Flags: (convergence) the degree data's orbit-average diagnostic;
    (regularity) a finite-grid modulus-integral estimate, heuristic by
    construction; (spectral floor) the squared-multiplication floor
    a > 0.  Emits AC-PREDICTED only when all flags pass, explicitly
    conditional on the heuristic ones; a vanishing degree yields
    NO-CLAIM because the theory is silent there.

    `dini` is this rep's entry of a shared `dini_modulus` pass; None runs
    the pass for this rep alone.
    """
    hypotheses = []
    if isinstance(degree, DG.DegreeField):
        conv = float(np.max(degree.diagnostics))
        M_rep = degree.mean_value
        hypotheses.append(_hypothesis(
            "orbit averages converged (grid diagnostic)",
            "pass" if conv <= 1e-2 else "fail", conv))
    elif isinstance(degree, G.AlgebraElement):
        M_rep = degree
        hypotheses.append(_hypothesis(
            "orbit averages converged (constant closed form)", "pass", 0.0))
    else:
        raise ConfigError("degree must be an AlgebraElement or a DegreeField")

    if dini is None:
        dini, = dini_modulus(c.m_field, [differential_map(rep, c.group)],
                             flow, DINI_SHIFTS)
    samples = np.asarray(dini["samples"])
    peak = float(np.max(samples)) if samples.size else 0.0
    shrinking = bool(samples[0] <= 0.5 * peak + 1e-12) if peak > 0 else True
    hypotheses.append(_hypothesis(
        "modulus integral finite (HEURISTIC)",
        "heuristic-pass" if shrinking else "heuristic-fail",
        float(dini["integral_estimate"])))

    a_val = DG.a_phi_pi(rep, degree)
    hypotheses.append(_hypothesis(
        "spectral floor positive", "pass" if a_val > 1e-12 else "fail",
        float(a_val)))

    degree_zero = float(G.algebra_norm(M_rep)) <= 1e-12
    if degree_zero:
        verdict = NO_CLAIM
        notes = "degree vanishes; the theory makes no claim on this fiber"
    elif all(h["status"] in ("pass", "heuristic-pass") for h in hypotheses):
        verdict = AC_PREDICTED
        notes = "conditional on the heuristic regularity flags"
    else:
        verdict = NO_CLAIM
        failing = [h["name"] for h in hypotheses
                   if h["status"] not in ("pass", "heuristic-pass")]
        notes = "unmet hypotheses: " + "; ".join(failing)
    notes += ("; base is a torus translation, so for irrational frequency "
              "(an input assumption, not verified numerically) the "
              "prediction sharpens to Lebesgue spectrum of uniform "
              "countable multiplicity on the kernel complement")
    return {
        "rep_label": rep.name,
        "j": j,
        "kernel_indices": DG.kernel_indices(rep, M_rep),
        "hypotheses": hypotheses,
        "verdict": verdict,
        "notes": notes,
    }
