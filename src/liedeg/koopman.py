"""Koopman restrictions on matrix-element fibers and their spectra.

L^2 of the skew product splits into fibers spanned by matrix elements of
the irreducible representations; on the row-j fiber of a d-dimensional
representation pi, a vector is psi = sum_k phi_k(x) pi_jk and the
Koopman operator sends the coefficient stack phi to
pi(cocycle(x)) phi(F_1 x).  That rule is the same for every row j, so
the row is a label, not an input: the module works on one fiber per
representation, which the reports call row 0.

Correlations <psi1, U^N psi2> reduce to base-torus integrals evaluated
by equispaced quadrature, sized so trig-polynomial integrands are
integrated exactly; a check grid with twice the nodes per dimension,
which nests the grid so one walk yields both rules, supplies an error
estimate for everything else.  Every fiber vector is a finite Fourier
sum psi(x) = pi(zeta(x)^{-1}) sum_a e(q_a.x) v_a, e(t) = exp(2 pi i t),
with zeta = e unless it was conjugated; as pi is a unitary homomorphism,

    c_N = d_pi^{-1} sum_{a,b} e(q2_b.N alpha) v1_a^H Mhat_N(q1_a - q2_b) v2_b,
    Mhat_N(m) = mean_x e(-m.x) pi(zeta1(x) phi^(N)(x) zeta2(F_N x)^{-1}),

so every pair reads the mean representation-matrix series.  phi^(N) on
a grid does not depend on pi, so there is one walk per stage: the pairs
that `plan_series` names share one walk of their fibers' check grids,
each grid once, and each fiber's means are reduced from its term
products before they are scattered into a matrix.  The walk still runs
under phi, so the check stays numerical and never assumes the
cohomology; a per-point evaluation of psi stays as the reference.

The fiber multiplication matrix D = i dpi(degree), the limit of the
finite-N commutator averages, is Hermitian, and its kernel separates
the (conjecturally) mixing complement from the unresolved part.
Verdict builders run probe correlations and report three-valued
outcomes with explicit hypothesis flags; they check observable
consequences, never assert theorems.  The regularity flags are certified
bounds: `dini_modulus` reads the Fourier coefficients of dpi(M) off one
rule that is exact for the cocycle's declared degree.

Every representation is unitary (see `reps`), as the spectral
identities below require.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import degree as DG
from . import dynamics as D
from . import groups as G
from . import reps as R
from .errors import ConfigError, TagMismatchError

ERR_FLAG_THRESHOLD = 1e-6
MAX_GRID_BYTES = 2 ** 28  # one config-scaled array: grid points or their values
# check-grid points per walk of `_walk_means`: a walk's arrays stay near
# 0.3 MB for a two-row torus payload, and every d = 1 preset grid is one block
SERIES_BLOCK = 8192

SUPPORTED = "SUPPORTED"
NO_CLAIM = "NO-CLAIM"
VIOLATED = "VIOLATED"
NOT_IN_SCOPE = "NOT-IN-SCOPE"
AC_PREDICTED = "AC-PREDICTED"


# ---------------------------------------------------------------------------
# fiber vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # arrays cannot take part in == or hash
class FiberVector:
    """The coefficient stack psi(x) = pi(zeta(x)^{-1}) sum_a e(q_a.x) v_a of
    sum_k psi_k(x) pi_jk on a row fiber of rep: `modes` holds the q_a
    as an (A, d) integer array (d = 0 for a constant's zero mode, which
    fits any d), `vectors` the (A, d_pi) v_a, and zeta is the pointwise
    product of the `transfers` (e when there are none)."""

    rep: R.Representation
    modes: np.ndarray
    vectors: np.ndarray
    name: str = ""
    transfers: tuple[D.Cocycle, ...] = ()

    def __post_init__(self):
        if self.modes.ndim != 2 or self.vectors.shape != (len(self.modes), self.rep.dim):
            raise ConfigError(f"need one length-{self.rep.dim} vector per mode row")

    @property
    def degree_bound(self) -> int:
        """Per-dimension trig degree of the coefficients, for the sizing rule."""
        zeta = sum(t.freq_bound for t in self.transfers) * R.rep_weight(self.rep)
        return int(np.abs(self.modes).max(initial=0)) + zeta


def constant_fiber(rep: R.Representation, vector, name: str = "") -> FiberVector:
    vec = np.array(vector, dtype=complex)
    if vec.shape != (rep.dim,):
        raise ConfigError(f"coefficient vector must have length {rep.dim}")
    return FiberVector(rep, np.zeros((1, 0), dtype=int), vec[None], name or "constant-fiber")


def monomial_fiber(rep: R.Representation, windings, name: str = "") -> FiberVector:
    """Coefficients phi_k(x) = e(q_k.x): mode q_k carries the k-th unit
    vector; `windings` is a (d_pi, d) integer array of the rows q_k."""
    q = np.atleast_2d(D._integers(windings))
    if q.shape[0] != rep.dim:
        raise ConfigError(f"need {rep.dim} winding rows, got {q.shape[0]}")
    return FiberVector(rep, q, np.eye(rep.dim, dtype=complex),
                       name or f"monomial-fiber q={q.tolist()}")


def _modes(psi: FiberVector, d: int) -> np.ndarray:
    """psi's modes as an (A, d) array, the one check that its windings fit
    the base torus: every path reads them here before using them."""
    q = psi.modes
    if q.shape[1] not in (0, d):
        raise ConfigError(f"windings of {psi.name!r} do not fit a d = {d} base torus")
    return q if q.shape[1] else np.zeros((len(q), d), dtype=int)


def fiber_coefficients(psi: FiberVector, phases: np.ndarray) -> np.ndarray:
    """psi's coefficient stack (..., d_pi) at raw phases (..., d), point by
    point: the independent reference for the mean-series engine."""
    out = np.exp(2j * np.pi * (phases @ _modes(psi, phases.shape[-1]).T)) @ psi.vectors
    z = D.transfer(psi.transfers, phases)
    if z is not None:
        P = R.rep_eval_payload(psi.rep, G.group_inv(z).payload)
        out = np.einsum("...lk,...k->...l", P, out)
    return out


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def check_bytes(field: str, need: int) -> None:
    """The one size check of a config-scaled allocation, made before it:
    a ConfigError naming the field, the bytes and the cap when `need`
    exceeds MAX_GRID_BYTES."""
    if need > MAX_GRID_BYTES:
        raise ConfigError(f"{field} needs {need} bytes, above the cap of {MAX_GRID_BYTES}")


def _sizing_nodes(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                  flow: D.TranslationFlow, N: int, floor: int) -> int:
    """Node count of the correlation rule for trig-polynomial data.  The
    integrand conj(phi1) pi(phi^(N)) (phi2 o F_N) has per-dimension trig
    degree at most D = B1 + B2 + |N| * freq(cocycle) * weight(pi), and an
    equispaced rule with m > D nodes per dimension integrates a trig
    polynomial of degree D exactly (L. N. Trefethen and J. A. C. Weideman,
    SIAM Review 56 (2014)).  The count 2 (max(B1, B2) + |N| freq weight)
    + 1, at least `floor`, is the sizing in use, with a margin over that
    condition; it is not the exactness condition itself.

    Raises TagMismatchError for a pair off one representation of c's group
    and, through `check_bytes` before any grid exists, ConfigError when the
    representation values on the (2 nodes)^d check grid would not fit."""
    if psi1.rep != psi2.rep:
        raise TagMismatchError("fiber vectors live on different representations")
    if psi1.rep.group != c.group:
        raise TagMismatchError("fiber and cocycle live on different groups")
    f_eff = c.freq_bound * R.rep_weight(psi1.rep)
    nodes = max(floor, 2 * (max(psi1.degree_bound, psi2.degree_bound)
                            + abs(N) * f_eff) + 1)
    check = 2 * nodes
    check_bytes(f"correlation at N={N} (a {check}^{flow.dim}-node check grid of "
                f"representation values)", check ** flow.dim * psi1.rep.dim ** 2 * 16)
    return nodes


def _corr_on_grid(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                  flow: D.TranslationFlow, N: int, nodes: int) -> complex:
    """c_N on the nodes^d grid from per-point coefficients."""
    pts = D.quadrature_points(D.QuadratureSpec(nodes), flow.dim)
    x = D.BasePoint(pts)
    conj_v1 = np.conj(fiber_coefficients(psi1, pts))
    v2 = fiber_coefficients(psi2, D.flow_advance(flow, x, float(N)).phases)
    P = R.rep_eval_payload(psi1.rep, D.cocycle_iterate(c, flow, x, N).payload)
    return complex(np.mean(np.einsum("...l,...lk,...k->...", conj_v1, P, v2)) / psi1.rep.dim)


def _fiber(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle, flow: D.TranslationFlow,
           N_max: int, quadrature: D.QuadratureSpec) -> tuple:
    """The walk the pair's series reads: (c, flow, N_max, rep, transfers1,
    transfers2, mode differences q1_a - q2_b, nodes)."""
    nodes = _sizing_nodes(psi1, psi2, c, flow, N_max, quadrature.nodes_per_dim)
    diffs = {tuple(qa - qb) for qa in _modes(psi1, flow.dim) for qb in _modes(psi2, flow.dim)}
    return c, flow, N_max, psi1.rep, psi1.transfers, psi2.transfers, tuple(sorted(diffs)), nodes


# the planned walk: Mhat per fiber key of `_fiber`, None until it is walked
_STAGE = {}


def plan_series(pairs: Sequence[tuple], c: D.Cocycle,
                flow: D.TranslationFlow, N_max: int, quadrature: D.QuadratureSpec) -> None:
    """Plan one walk for the series of every (psi1, psi2) in `pairs`, taken
    by the first `correlation_series` that reads one of them; it replaces
    the walk planned before.  A series outside the plan plans its own."""
    _STAGE.clear()
    _STAGE.update(dict.fromkeys(_fiber(*pair, c, flow, N_max, quadrature) for pair in pairs))


def _walk_means(means: dict) -> None:
    """Mhat_0(m)..Mhat_N_max(m) of the module docstring per mode difference
    m of each fiber key in `means`, on its nodes^d grid and check grid, from
    one `D.walk_grids` pass over the distinct grids.  A block has one (r, n)
    weight matrix e(-m_i.x) per mode set and its nodes^d share is a leading
    slice; each step adds the two weighted sums of `R.rep_mean_payload`, in
    block order as a lone walk adds them, divided as np.mean divides.
    `means` takes the read-only results once the walk is done."""
    c, flow, N_max = next(iter(means))[:3]
    walked = {key: np.empty((2, len(key[6]), N_max + 1, key[3].dim, key[3].dim), dtype=complex)
              for key in means}

    def visitors(nodes, start, block):
        split = min(max(nodes ** flow.dim - start, 0), len(block))
        fibers = [(key, out) for key, out in walked.items() if key[-1] == nodes]
        # fibers with one set of mode differences share its waves
        waves = {key[6]: D.mode_waves(block, key[6]) for key, _ in fibers}
        return [(key[4], key[5], partial(_add_means, key[3], waves[key[6]], split, start, out))
                for key, out in fibers]

    D.walk_grids(c, flow, dict.fromkeys(key[-1] for key in means), N_max + 1,
                 SERIES_BLOCK, visitors)
    for key, out in walked.items():
        out[0] /= key[-1] ** flow.dim
        out[1] /= (2 * key[-1]) ** flow.dim
        out.flags.writeable = False
    means.update(walked)


def _add_means(rep, weights, split, start, out, k, payload):
    """Add one block's two weighted sums of pi at step k into out[:, :, k]."""
    sums = R.rep_mean_payload(rep, payload, weights, split)
    if start:
        out[:, :, k] += sums
    else:
        out[:, :, k] = sums


def _series(psi1: FiberVector, psi2: FiberVector, key: tuple) -> list[np.ndarray]:
    """Rows c_0..c_N_max on the nodes^d grid and its check grid of the
    pair's `_fiber` key: the sum over mode pairs of the module docstring,
    on Mhat from the planned walk, or from a walk of the pair's fiber alone
    when the plan does not hold it."""
    if key not in _STAGE:
        _STAGE.clear()
        _STAGE[key] = None
    if _STAGE[key] is None:
        _walk_means(_STAGE)
    flow, N_max, diffs = key[1], key[2], key[6]
    q1, q2 = _modes(psi1, flow.dim), _modes(psi2, flow.dim)
    rows = []
    for M_r in _STAGE[key]:
        terms = []
        for qb, v2 in zip(q2, psi2.vectors):
            for qa, v1 in zip(q1, psi1.vectors):
                terms.append(np.einsum("l,nlk,k->n", np.conj(v1),
                                       M_r[diffs.index(tuple(qa - qb))], v2))
                if any(qb):
                    terms[-1] *= D.orbit_phases(flow, qb, N_max + 1)
        rows.append(sum(terms[1:], terms[0]) / psi1.rep.dim)
    return rows


def koopman_apply_corr(psi1: FiberVector, psi2: FiberVector, c: D.Cocycle,
                       flow: D.TranslationFlow, N: int,
                       quadrature: D.QuadratureSpec) -> tuple[complex, float]:
    """c_N = <psi1, U^N psi2> by quadrature, plus a grid-doubling error
    estimate |value - value on the (2 nodes)^d grid|, each walked apart
    from per-point coefficients: any N, the reference for the engine."""
    nodes = _sizing_nodes(psi1, psi2, c, flow, N, quadrature.nodes_per_dim)
    value = _corr_on_grid(psi1, psi2, c, flow, N, nodes)
    check = _corr_on_grid(psi1, psi2, c, flow, N, 2 * nodes)
    return value, abs(value - check)


@dataclass
class CorrelationSeries:
    """c_N for N = 0..N_max with per-N error estimates."""

    values: np.ndarray
    err_estimates: np.ndarray
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
    which moves both rules alike.  The pair reads the walk `plan_series`
    planned for it, or one of its fiber alone (see `_series`).
    """
    if N_max < 1:
        raise ConfigError("N_max must be >= 1")
    values, check = _series(psi1, psi2, _fiber(psi1, psi2, c, flow, N_max, quadrature))
    errs = np.abs(values - check)
    return CorrelationSeries(values, errs,
                             np.flatnonzero(errs > ERR_FLAG_THRESHOLD).tolist())


# ---------------------------------------------------------------------------
# cohomology on fibers
# ---------------------------------------------------------------------------

def conjugate_vector(psi: FiberVector, zeta: D.Cocycle) -> FiberVector:
    """The unitary fiber intertwiner induced by a transfer function.

    If phi = zeta^{-1} delta (zeta o F_1), the substitution
    (x, g) -> (x, g zeta(x)^{-1}) conjugates the two skew products, and
    on each row fiber it sends coefficient stacks to
    phi'(x) = pi(zeta(x)^{-1}) phi(x).  Correlations then match:
    <S psi1, U_phi^N S psi2> = <psi1, U_delta^N psi2>.

    psi keeps its modes and vectors and appends zeta to its transfers,
    since pi(zeta^{-1}) pi(zeta0^{-1}) = pi((zeta0 zeta)^{-1}).
    """
    if psi.rep.group != zeta.group:
        raise TagMismatchError("transfer function lives on a different group")
    return replace(psi, name=f"conjugated[{psi.name}]", transfers=psi.transfers + (zeta,))


# ---------------------------------------------------------------------------
# spectral diagnostics
# ---------------------------------------------------------------------------

def wiener_average(series: CorrelationSeries) -> np.ndarray:
    """A_N = (1/N) sum_{n=1}^N |c_n|^2 for N = 1..N_max.  The limit is
    the total squared atom mass of the pair's spectral measure, so decay
    to 0 is the observable surrogate for a purely continuous spectrum
    and A_N near |c_0|^2-scale mass indicates dominant point spectrum."""
    sq = np.abs(series.values[1:]) ** 2
    return np.cumsum(sq) / np.arange(1, len(sq) + 1)


def dini_modulus(c: D.Cocycle, reps: Sequence[R.Representation],
                 flow: D.TranslationFlow) -> list[dict]:
    """Certified regularity bounds of c's M-field M, one dict per rep pi:
    `m_sup` >= sup |M|, `dm_sup` >= sup |dpi(M)| entrywise, and `integral`
    >= integral_0^1 omega(t)/t dt, omega(t) = sup_x |dpi(M(x + t alpha)) -
    dpi(M(x))| the modulus of continuity of the AC verdict.

    M's entries, and so dpi(M)'s, are trigonometric polynomials of degree
    at most 2f per dimension, f = c.freq_bound: a DFT matrix per axis reads
    their Fourier coefficients c_k, |k_j| <= 2f, off one sample of M on the
    n^d grid, n = 4f + 1, without aliasing.  A constant field (`c.m_const`)
    is its own c_0 and is not sampled.  With C_k the largest entry of |c_k|
    (`weights`), a_k = 2 pi |k.alpha| (`rates`) and |e(s) - 1| <= 2 pi |s|
    (and <= 2),

        omega(t) <= sum_k C_k min(2, a_k t),   dm_sup = sum_k C_k,
        integral = sum_k C_k g(a_k),  g(a) = a (a <= 2), 2 + 2 ln(a/2) else;

    `m_sup` is the norm of the entrywise sums of M's own |c_k|.  The bounds
    hold for the declared freq_bound, which the quadrature sizing trusts too.
    """
    d = flow.dim
    if c.m_const is not None:  # its own c_0: nothing to sample or transform
        n, M, axes = 1, c.m_const[None], ()
    else:
        n, axes = 4 * c.freq_bound + 1, range(d)
        dim = max((r.dim for r in reps), default=1)  # dpi(M) and its transform
        check_bytes(f"the cocycle's {n}^{d}-point regularity grid",
                    n ** d * (8 * d + G.algebra_bytes(c.group) + 32 * dim ** 2))
        M = np.asarray(c.m_field(D.quadrature_points(D.QuadratureSpec(n), d)))
    k = np.arange(n) - n // 2
    dft = G.unit_exp(-2 * np.pi * np.outer(k, np.arange(n)) / n) / n

    def coefficients(values):
        """|c_k| on the (n,) * d grid of k, from values on the node grid."""
        out = values.reshape((n,) * d + values.shape[1:])
        for axis in axes:
            out = np.moveaxis(np.tensordot(dft, out, axes=(1, axis)), 0, axis)
        return np.abs(out)

    # i E has algebra_inner's entry weights for every group, the torus too
    E = coefficients(M).reshape((n ** d,) + M.shape[1:]).sum(axis=0)
    m_sup = float(G.algebra_norm(G.AlgebraElement(c.group, 1j * E)))
    rates = 2 * np.pi * np.abs(sum(np.ix_(*(k * a for a in flow.alpha_array))))
    g = np.where(rates <= 2, rates, 2 + 2 * np.log(np.maximum(rates, 2) / 2))
    out = []
    for rep in reps:
        # dpi reads real coordinates, so it acts on M before the transform
        C = np.max(coefficients(R.rep_differential(rep, G.AlgebraElement(c.group, M))),
                   axis=(-2, -1))
        out.append({"m_sup": m_sup, "dm_sup": float(np.sum(C)),
                    "integral": float(np.sum(C * g)), "weights": C, "rates": rates})
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _hypothesis(name: str, passed: bool, value) -> dict:
    return {"name": name, "status": "pass" if passed else "fail", "value": value}


def _slot_mass(probe: FiberVector, Q: np.ndarray, d: int) -> np.ndarray:
    """The probe's L^2 coefficient mass in each column of Q: Parseval's sum
    over distinct modes of |Q^H v|^2, v the sum of the mode's vectors, or,
    as a transfer's pi(zeta^{-1}) mixes modes, a grid that integrates
    |psi|^2 exactly."""
    if probe.transfers:
        pts = D.quadrature_points(D.QuadratureSpec(max(64, 2 * probe.degree_bound + 1)), d)
        coeffs = fiber_coefficients(probe, pts)
        return np.mean(np.abs(np.einsum("ls,...l->...s", np.conj(Q), coeffs)) ** 2, axis=0)
    sums = {}
    for q, v in zip(map(tuple, _modes(probe, d)), probe.vectors):
        sums[q] = sums.get(q, 0) + v
    return np.sum(np.abs(np.array(list(sums.values())) @ np.conj(Q)) ** 2, axis=0)


def in_scope(probe: FiberVector, split: tuple, d: int) -> bool:
    """Whether more than a 1e-12 fraction of the probe's coefficient mass
    lies off ker D, for `split` = `DG.kernel_split(D)`: a probe that lies
    in it is NOT-IN-SCOPE of the mixing claim, and so is a zero probe."""
    mass = _slot_mass(probe, split[0], d)
    return bool(np.sum(mass[split[2]]) < (1.0 - 1e-12) * np.sum(mass))


def default_probes(rep: R.Representation, split: tuple) -> list[FiberVector]:
    """Constant probes spanning the kernel complement of D = i dpi(M*).

    `split` is `DG.kernel_split(D)` = (Q, eigenvalues, kernel).  One
    constant-coefficient fiber vector per non-kernel eigenslot of D
    (empty when D vanishes on the whole fiber).  Meaningful for constant
    degree fields only; see `mixing_verdict` for the scope discussion.
    """
    Q, _, kernel = split
    return [constant_fiber(rep, Q[:, s], name=f"eigenslot-{s}")
            for s in range(rep.dim) if s not in kernel]


def mixing_verdict(rep: R.Representation, c: D.Cocycle, flow: D.TranslationFlow,
                   split: tuple, N_max: int, quadrature: D.QuadratureSpec,
                   probes: Sequence[FiberVector], bound: dict,
                   ) -> tuple[dict, list[CorrelationSeries | None]]:
    """Correlation-decay check on the kernel complement of D = i dpi(M*).

    `split` is `DG.kernel_split(D)` = (Q, eigenvalues, kernel), shared
    with `default_probes` and `ac_verdict`.  `default_probes` are the
    non-kernel eigenvectors of D as constant coefficient vectors (each
    with c_0 = 1/d_pi).  That construction is meaningful when the
    degree field is constant in x (so D really is the fiber
    multiplication matrix); for a cocycle whose degree field
    rotates with x — e.g. one cohomologous to a diagonal model — the
    kernel direction rotates too, constant probes overlap it almost
    everywhere and genuinely recur, and honest probes are the conjugated
    ones (conjugate_vector of the diagonal model's weight vectors).

    A probe supports the mixing prediction when max over N in
    [N_max/2, N_max] of |c_N| is at most 1e-3 * c_0 and the late-window
    maximum does not exceed the early-window maximum.  Probes whose
    coefficient mass lies entirely in the kernel directions are out of
    the claim's scope and reported NOT-IN-SCOPE; if no probe is in
    scope the verdict is NO-CLAIM.  `bound` is rep's entry of the stage's
    `dini_modulus` certificate: its sups of M and dpi(M), when finite,
    pass the two boundedness hypotheses.

    Returns (verdict, series): series[i] is probe i's correlation series,
    None when probe i is NOT-IN-SCOPE.
    """
    if N_max < 4:
        raise ConfigError("N_max must be >= 4")
    _, lam, kernel = split

    probe_reports = []
    walked = []
    for probe in probes:
        if not in_scope(probe, split, flow.dim):
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
        "j": 0,
        "kernel_indices": kernel,
        "eigenvalues": [float(v) for v in lam],
        "hypotheses": [_hypothesis(f"{name} bounded (certified sup)", np.isfinite(v), v)
                       for name, v in (("derivative field", bound["m_sup"]),
                                       ("fiber multiplication", bound["dm_sup"]))],
        "probes": probe_reports,
        "verdict": verdict,
        "notes": ("decay of probe correlations on the kernel complement is "
                  "an observable consequence of the mixing prediction, not "
                  "a proof"),
    }, walked


def ac_verdict(rep: R.Representation, field: DG.DegreeField | None,
               M_star: G.AlgebraElement, kernel: list[int], dini: dict) -> dict:
    """Hypothesis-flag assembly for the absolutely-continuous prediction
    on the kernel complement of a fiber.

    `field` is the sampled degree field, None for a closed-form degree.
    `kernel` is that of the `DG.kernel_split` of i dpi(M_star) which
    `mixing_verdict` reads, so both verdicts claim one orthocomplement.

    Flags: (convergence) the field's orbit-average diagnostic;
    (regularity) the certified bound on the modulus integral of dpi(M),
    rep's entry `dini` of the stage's one `dini_modulus` certificate;
    (spectral floor) `DG.a_phi_pi` > 0 over the field's points, or at
    M_star without a field.  Emits AC-PREDICTED only when all flags pass;
    an M_star that `DG.degree_vanishes` calls zero, as the ergodicity
    verdict does, yields NO-CLAIM because the theory is silent there.
    """
    if field is not None:
        conv = float(np.max(field.diagnostics))
        hypotheses = [_hypothesis("orbit averages converged (grid diagnostic)",
                                  conv <= 1e-2, conv)]
    else:
        hypotheses = [_hypothesis("orbit averages converged (constant closed form)", True, 0.0)]
    a_val = float(DG.a_phi_pi(rep, field.values if field is not None else M_star))
    hypotheses += [_hypothesis("modulus integral finite (certified bound)",
                               np.isfinite(dini["integral"]), dini["integral"]),
                   _hypothesis("spectral floor positive", a_val > 1e-12, a_val)]

    if DG.degree_vanishes(M_star):
        verdict = NO_CLAIM
        notes = "degree vanishes; the theory makes no claim on this fiber"
    elif all(h["status"] == "pass" for h in hypotheses):
        verdict = AC_PREDICTED
        notes = "regularity bound certified for the cocycle's declared degree"
    else:
        verdict = NO_CLAIM
        failing = [h["name"] for h in hypotheses if h["status"] != "pass"]
        notes = "unmet hypotheses: " + "; ".join(failing)
    notes += ("; base is a torus translation, so for irrational frequency "
              "(an input assumption, not verified numerically) the "
              "prediction sharpens to Lebesgue spectrum of uniform "
              "countable multiplicity on the kernel complement")
    return {
        "rep_label": rep.name,
        "j": 0,
        "kernel_indices": kernel,
        "hypotheses": hypotheses,
        "verdict": verdict,
        "notes": notes,
    }
