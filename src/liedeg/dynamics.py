"""Base dynamics and cocycles over torus translation flows.

The base system is the linear flow F_t(x) = x + t*alpha on the torus
[0,1)^d; its time-one map drives all skew products.  A cocycle is a map
phi from the base into one of the compact groups together with its
logarithmic derivative along the flow, the M-field

    M_phi(x) = (d/dt phi(F_t x))|_{t=0} * phi(x)^{-1},

which every built-in supplies in closed form (the tests cross-check each
by central differences).  Iterates follow

    phi^(n)(x)  = phi(x) phi(F_1 x) ... phi(F_{n-1} x),   n >= 1,
    phi^(0)     = e,
    phi^(-n)(x) = (phi^(n)(F_{-n} x))^{-1}.

Cocycle `value`/`m_field` callables map a phases array of shape (..., d)
to a batched group/algebra payload; BasePoint wrappers carry phases
reduced mod 1.  Built-in constructors take the flow because the M-field
closed forms contain alpha.

The built-ins but the parity-mismatch U(2) product and the U(2) scalar
product are functions of base characters chi_k(x) = exp(2 pi i k.x),
eigenfunctions of the translation: chi_k(F_1 x) = exp(2 pi i k.alpha)
chi_k(x).  Their shared step (`_character_cocycle`) evaluates the
characters once per walk and then multiplies by exactly reduced phase
factors.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import groups as G
from .errors import ConfigError, TagMismatchError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def wrap_phases(x: np.ndarray) -> np.ndarray:
    """x mod 1 in place and returned: the bits of np.mod(x, 1.0), -0.0 included,
    at a tenth of its cost.  Results lie in [0, 1]: x - floor(x) rounds to 1.0
    for -2**-54 <= x < 0, where the periodic cocycles equal their value at 0.0
    up to round-off."""
    x -= np.floor(x)
    return x


@dataclass
class BasePoint:
    """Point(s) on the torus; phases shape (..., d), entries wrapped by
    `wrap_phases` into [0, 1] (1.0 only from tiny negative input)."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = wrap_phases(np.array(self.phases, dtype=float))

    @property
    def dim(self) -> int:
        return self.phases.shape[-1]


@dataclass(frozen=True)
class TranslationFlow:
    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in np.atleast_1d(self.alpha)))
        if not all(math.isfinite(a) for a in self.alpha):
            raise ConfigError(f"flow frequencies must be finite, got {self.alpha}")
        # the time-one map fixes a coordinate with an integral frequency
        if any(a.is_integer() for a in self.alpha):
            raise ConfigError(f"flow frequencies must not be integers, got {self.alpha}")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def alpha_array(self) -> np.ndarray:
        return np.array(self.alpha)


def default_flow(d: int = 1) -> TranslationFlow:
    """Golden rotation for d=1; (golden, sqrt(2)-1) for d=2."""
    if d == 1:
        return TranslationFlow((GOLDEN,))
    if d == 2:
        return TranslationFlow((GOLDEN, math.sqrt(2.0) - 1.0))
    raise ConfigError("default flows provided for d = 1, 2 only")


def flow_advance(flow: TranslationFlow, x: BasePoint, t: float) -> BasePoint:
    if x.dim != flow.dim:
        raise TagMismatchError("flow and point dimensions differ")
    return BasePoint(x.phases + t * flow.alpha_array)


def orbit_turns(flow: TranslationFlow, K=None) -> Callable[[int], np.ndarray]:
    """n -> n K.alpha mod 1, one entry per row of the integer matrix K
    (default the identity: n alpha mod 1).  Each entry is computed exactly
    from alpha's integer ratios and rounded once: a double product near
    n = 1e3 would carry an ulp of 1e-13, and one that grows with n."""
    ratios = [a.as_integer_ratio() for a in flow.alpha]
    den = max(d for _, d in ratios)  # every denominator is a power of 2
    nums = [num * (den // d) for num, d in ratios]
    rows = np.eye(flow.dim, dtype=int) if K is None else K
    row_nums = [sum(int(k) * num for k, num in zip(row, nums)) for row in rows]
    return lambda n: np.array([n * r % den / den for r in row_nums])


def orbit_phases(flow: TranslationFlow, q, n: int) -> np.ndarray:
    """e(k q.alpha) for k = 0..n-1, e(t) = exp(2 pi i t), each k q.alpha
    mod 1 exactly rounded (`orbit_turns`)."""
    turns = orbit_turns(flow, np.asarray(q)[None])
    return np.exp(2j * np.pi * np.fromiter((turns(k)[0] for k in range(n)), float, n))


@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced product grid on the torus, nodes_per_dim per dimension.

    An equispaced rule with m > D nodes per dimension integrates a trig
    polynomial of per-dimension degree D exactly (L. N. Trefethen and
    J. A. C. Weideman, SIAM Review 56 (2014)).  The correlation sizing
    (`koopman._sizing_nodes`) takes 2 * (coefficient degree + N * cocycle
    degree) + 1 nodes: a margin over that condition, not the condition.
    """

    nodes_per_dim: int

    def __post_init__(self):
        if self.nodes_per_dim < 1:
            raise ConfigError("nodes_per_dim must be positive")


def quadrature_points(spec: QuadratureSpec, d: int) -> np.ndarray:
    """Grid phases, shape (nodes_per_dim^d, d); weights are uniform."""
    m = spec.nodes_per_dim
    grids = np.meshgrid(*([np.arange(m) / m] * d), indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=-1)


def coarse_first_points(nodes: int, d: int, start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of the (2 nodes)^d grid in coarse-first order:
    the even nodes first, which are the nodes^d grid bit for bit and in its
    own order (node 2j of 2 nodes is node j of nodes), then the other
    parity classes in the same order.  A walk builds one block at a time,
    so no whole grid exists."""
    cls, local = np.divmod(np.arange(start, min(stop, (2 * nodes) ** d)), nodes ** d)
    pts = np.empty((len(cls), d))
    for k in range(d - 1, -1, -1):
        local, j = np.divmod(local, nodes)
        np.divide(2 * j + ((cls >> (d - 1 - k)) & 1), 2 * nodes, out=pts[:, k])
    return pts


def mode_waves(points: np.ndarray, modes) -> np.ndarray:
    """(r, n) waves e(-m_i.x) at n points per mode m_i; ones for m = 0."""
    waves = np.ones((len(modes), len(points)), dtype=complex)
    for w, m in zip(waves, modes):
        if any(m):
            w[:] = G.unit_exp(-2 * np.pi * (points @ m))
    return waves


def characters(phases: np.ndarray, K: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """chi_r(x) = exp(i (2 pi K_r . x + offsets_r)) per row r of the integer
    matrix K, offsets in radians, shape (..., rows): every fresh evaluation
    of a character cocycle."""
    return G.unit_exp(2 * np.pi * (phases @ K.T) + offsets)


@dataclass(frozen=True)
class Cocycle:
    """Group-valued cocycle generator with its M-field.

    `value` / `m_field` act on raw phase arrays (..., d) and return
    batched payloads; `freq_bound` is the per-dimension trigonometric
    degree of the matrix entries of phi in the defining representation,
    used by the correlation quadrature sizing rule; `base_dim` is the
    dimension d of the base torus the callables accept.

    `step`, when set, evaluates both at once for the orbit walker:
    step(phases, carry, want_m, flow) -> (value, M-field or None, carry)
    at a point of a walk under `flow`, equal to `value(phases)` and, when
    `want_m`, `m_field(phases)` within the bound its constructor states
    (bit for bit for `cohomologous_build`; within the walker's phase
    drift for a character cocycle, see `_character_cocycle`).  The carry
    is None at a walk's first point and afterwards what the call at the
    walk's previous point returned, with the same `want_m` and `flow`;
    it holds work that point did for this one.  The one successor rule:
    a step reuses its carry only when `flow` is the flow the cocycle was
    built with, since only then are `phases` the carry's F_1 x.

    `m_const` is the M-field's one payload when its constructor knows
    the field constant, else None.  Given with `m_field` None, it builds
    `m_field` as its broadcast; `cohomologous_build` reads it instead of
    `m_field` for its parts.  It takes no part in == or hash (a
    Cocycle keys `koopman`'s planned walks) and rides through
    `dataclasses.replace`.
    """

    group: G.GroupSpec
    value: Callable[[np.ndarray], np.ndarray]
    m_field: Callable[[np.ndarray], np.ndarray] | None
    freq_bound: int
    base_dim: int
    name: str = ""
    step: Callable | None = None
    m_const: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        m = self.m_const
        if m is not None and self.m_field is None:
            object.__setattr__(self, "m_field", lambda phases: np.broadcast_to(
                m, phases.shape[:-1] + m.shape).copy())


# work of every orbit walk since import; `scenarios` reads it per stage
WALKS = {"walks": 0, "point_steps": 0}


def cocycle_iterate(c: Cocycle, flow: TranslationFlow, x: BasePoint, n: int,
                    visit: Callable | None = None, *,
                    with_m: bool = False) -> G.GroupElement:
    """phi^(n) over the time-one map of the flow, any integer n.

    The package's one walk along orbits.  For n > 0, `visit(k, phases_k,
    g_k)` is called for k = 0..n-1 with phases_k those of F_k x and
    g_k = phi^(k)(x), before phi(F_k x) is evaluated and multiplied in;
    with `with_m` it is called as `visit(k, phases_k, g_k, m_k)` with
    m_k = M(F_k x), after phi(F_k x) and m_k come from one evaluation.
    Each point is evaluated by `c.step` with the previous point's carry,
    or by `c.value` (and `c.m_field`) for a cocycle without one.
    `phases_k` is stepped in place, so a visitor copies whatever it
    keeps.  Drift renormalization happens every 256 steps and on return.
    A walk of n > 0 steps adds 1 and n times its batch to `WALKS`.
    """
    if n == 0:
        return G.identity(c.group, x.phases.shape[:-1])
    if n < 0:
        shifted = flow_advance(flow, x, float(n))
        return G.group_inv(cocycle_iterate(c, flow, shifted, -n))
    alpha = flow.alpha_array
    phases = np.array(x.phases)
    WALKS["walks"] += 1
    WALKS["point_steps"] += n * math.prod(phases.shape[:-1])
    step = c.step or (lambda ph, carry, want_m, flow: (
        c.value(ph), c.m_field(ph) if want_m else None, None))
    g = carry = None
    for k in range(n):
        if k:
            phases += alpha
            wrap_phases(phases)
        if visit is not None and not with_m:
            visit(k, phases, g if k else G.identity(c.group, phases.shape[:-1]))
        value, m, carry = step(phases, carry, with_m, flow)
        if with_m:
            visit(k, phases, g if k else G.identity(c.group, phases.shape[:-1]), m)
        value = G.GroupElement(c.group, value)
        g = value if k == 0 else G.group_mul(g, value)
        if k and k % 256 == 0:
            g = G.maybe_renormalize(g)
        del value, m  # no array of this point lives into the next visit
    return G.maybe_renormalize(g)


def transfer(transfers, phases: np.ndarray) -> G.GroupElement | None:
    """zeta(phases), zeta the pointwise product of `transfers`; None for e."""
    z = None
    for t in transfers:
        value = G.GroupElement(t.group, t.value(phases))
        z = value if z is None else G.group_mul(z, value)
    return z


def walk_grids(c: Cocycle, flow: TranslationFlow, grids, n: int, size: int,
               visitors: Callable) -> None:
    """n steps from the (2 m)^d check grids of the node counts m in `grids`,
    each once: the coarse-first blocks of `size` points of each grid
    (`coarse_first_points`) are packed whole, in order, into walks of at
    most `size` points, each built when it starts.  `visitors(m, start,
    block)` gives the (transfers1, transfers2, visit) of the block of
    points start.. of grid m; each step calls visit(k, payload) on the
    block's rows of zeta1(x) phi^(k)(x) zeta2(F_k x)^{-1} (`transfer`)."""
    d, batches, jobs = flow.dim, [[]], []
    for m in grids:
        for start in range(0, (2 * m) ** d, size):
            length = min(size, (2 * m) ** d - start)
            if sum(block[2] for block in batches[-1]) + length > size:
                batches.append([])
            batches[-1].append((m, start, length))

    def step(k, phases, g):
        for rows, z1, transfers2, visit in jobs:
            h = G.GroupElement(g.group, g.payload[rows])
            if z1 is not None:
                h = G.group_mul(z1, h)
            z2 = transfer(transfers2, phases[rows])
            if z2 is not None:
                h = G.group_mul(h, G.group_inv(z2))
            visit(k, h.payload)

    for batch in batches:
        blocks = [coarse_first_points(m, d, start, start + size) for m, start, _ in batch]
        ends = np.cumsum([length for *_, length in batch])
        jobs = [(slice(end - len(pts), end), transfer(t1, pts), t2, visit)
                for end, (m, start, _), pts in zip(ends, batch, blocks)
                for t1, t2, visit in visitors(m, start, pts)]
        x = BasePoint(np.concatenate(blocks))
        del blocks  # the walker copies the points: hold them once
        cocycle_iterate(c, flow, x, n, step)


def _m_at(c: Cocycle, phases: np.ndarray) -> np.ndarray:
    """c's M-field at phases: its unbroadcast `m_const` when it has one."""
    return c.m_field(phases) if c.m_const is None else c.m_const


def cohomologous_build(delta: Cocycle, zeta: Cocycle, flow: TranslationFlow) -> Cocycle:
    """The cocycle phi(x) = zeta(x)^{-1} delta(x) zeta(F_1 x).

    Its M-field follows from the product rule,

      M_phi = -Ad_{zeta^{-1}} ( M_zeta - M_delta - Ad_delta (M_zeta o F_1) ),

    so degree data of phi and delta are conjugate by zeta.  Value and
    M-field are made from the same zeta(x), delta(x) and zeta(F_1 x), so
    one fused `step` computes each of these, zeta(x)^{-1} and the wrap
    F_1 x = x + alpha mod 1 once, and `value` / `m_field` are that step
    without a carry (`m_field` skips zeta(F_1 x) and the value's products,
    which it does not need).  Along an orbit zeta(F_1 x) is the next
    point's zeta(x): the step carries (zeta(F_1 x), M_zeta(F_1 x)) and
    reuses them on a walk under the flow given here, whose
    `wrap_phases(x + alpha)` is this step's F_1 x bit for bit.  A part
    with `m_const` is read as that one payload, not sampled: constant
    M_zeta and M_delta leave a constant bracket (-M_zeta + M_delta), and
    the carry holds zeta's `m_const` itself.  The M-field is batch-shaped
    for every part mix and group.
    """
    if zeta.group != delta.group:
        raise TagMismatchError("zeta and delta must share the group")
    group = zeta.group
    alpha = flow.alpha_array

    def parts(phases, carry, want_m, want_value=True):
        ahead = wrap_phases(phases + alpha)
        if carry is not None:
            zl, mzl = carry
        else:
            zl = zeta.value(phases)
            mzl = _m_at(zeta, phases) if want_m else None
        zr = zeta.value(ahead) if want_value else None
        mzr = _m_at(zeta, ahead) if want_m else None
        zinv = G.group_inv(G.GroupElement(group, zl))
        dm = G.GroupElement(group, delta.value(phases))
        value = m = None
        if want_value:
            value = G.group_mul(G.group_mul(zinv, dm), G.GroupElement(group, zr)).payload
        if want_m:
            # Ad_delta(M_zeta o F_1) first, with the bits of the sum in the
            # other order; the bracket is one payload for constant parts
            inner = G.ad(dm, G.AlgebraElement(group, mzr)).payload
            if group.tag == G.TORUS:  # its Ad ignores delta: a constant stays unbatched
                inner = np.broadcast_to(inner, dm.batch_shape + inner.shape[-1:]).copy()
            inner += -mzl + _m_at(delta, phases)
            m = G.ad(zinv, G.AlgebraElement(group, inner)).payload
        return value, m, (zr, mzr)

    has_m = zeta.m_field is not None and delta.m_field is not None
    return Cocycle(group, lambda phases: parts(phases, None, False)[0],
                   (lambda phases: parts(phases, None, True, False)[1]) if has_m else None,
                   freq_bound=2 * zeta.freq_bound + delta.freq_bound,
                   base_dim=delta.base_dim, name=f"cohomologous[{zeta.name} ; {delta.name}]",
                   step=lambda phases, carry, want_m, walk_flow: parts(
                       phases, carry if walk_flow == flow else None, want_m))


# ---------------------------------------------------------------------------
# built-in cocycle library
# ---------------------------------------------------------------------------

def _integers(k, need: str = "windings must be integers") -> np.ndarray:
    """k as an int array; entries that are not integers (1.5, inf, nan,
    bools, strings, values past the int range) are refused, while
    integral floats such as 1.0 pass; `need` opens the refusal."""
    arr, entries = np.asarray(k), np.asarray(k, dtype=object)
    # numpy promotes (True, 2) to ints, so bools are sought entry by entry
    bools = any(isinstance(e, (bool, np.bool_)) for e in entries.flat)
    with np.errstate(invalid="ignore"):
        ints = arr.astype(int) if arr.dtype.kind in "iuf" and not bools else None
    if ints is None or not np.array_equal(ints, arr):
        raise ConfigError(f"{need}, got {reprlib.repr(entries.tolist())}")
    return ints


def _winding(k, d):
    k = _integers(k)
    if k.ndim == 0:
        k = k[None]
    if k.ndim != 1 or (d is not None and k.shape[0] != d):
        raise ConfigError(f"winding vector must have length {d}")
    return k


def _character_cocycle(group: G.GroupSpec, flow: TranslationFlow, K, offsets,
                       from_chars: Callable, m, freq_bound: int, name: str) -> Cocycle:
    """The cocycle phi(x) = from_chars(chi(x)) of the characters
    chi = `characters(x, K, offsets)`, with a carried `step`; its M-field
    `m` is a map of chi or a constant payload, which becomes `m_const`.

    `value(phases)` is from_chars(characters(phases)), the reference.  As
    chi_r(F_1 x) = e(K_r . alpha) chi_r(x), e(t) = exp(2 pi i t), a walk
    without M-fields needs one `characters` call: the step keeps chi(x_0)
    of its first point and at the j-th returns
    from_chars(chi(x_0) e(j K.alpha mod 1)), the offset from `orbit_turns`,
    so round-off does not grow with j.  Its carry is (j, chi(x_0)); on a
    walk along another flow it evaluates every point afresh.
    The walker's phases drift by up to j * 2**-53 per entry after j steps
    and the carried ones do not, so carried characters differ from those
    of value(phases) by at most 2 pi |K_r|_1 (j + 1) 2**-53 plus a few ulp.

    A step with `want_m` is value(phases) and m_field(phases) bit for bit.
    Those walks are the Cesaro sums of `degree`, whose products drive Ad
    over 10^4 steps: chi(x_0)'s modulus round-off recurs at every carried
    step, so their unitarity defect would grow like n rather than sqrt(n)
    (the so(3) constant-degree estimate at N = 10^4 drifted from 3e-14 to
    1.3e-13).
    """
    K, offsets = np.atleast_2d(K), np.asarray(offsets, dtype=float)
    turns = orbit_turns(flow, K)

    def value(phases):
        return from_chars(characters(phases, K, offsets))

    def step(phases, carry, want_m, walk_flow):
        if want_m:
            return value(phases), c.m_field(phases), None
        if carry is not None and walk_flow == flow:
            j, chi0 = carry[0] + 1, carry[1]
            chi = chi0 * np.exp(2j * np.pi * turns(j))
        else:
            j, chi0 = 0, characters(phases, K, offsets)
            chi = chi0.copy()  # from_chars may hand chi back as the value
        return from_chars(chi), None, (j, chi0)

    c = Cocycle(group, value, (lambda phases: m(characters(phases, K, offsets)))
                if callable(m) else None, freq_bound, flow.dim, name=name, step=step,
                m_const=None if callable(m) else m)
    return c


def torus_monomial(flow: TranslationFlow, k, theta0=None) -> Cocycle:
    """Torus-valued phi(x)_j = exp(2 pi i (k_j . x + theta0_j)); k is an
    integer matrix of shape (d', d) (a vector means d' = 1)."""
    k = np.atleast_2d(_integers(k))
    if k.shape[1] != flow.dim:
        raise ConfigError(f"winding matrix needs {flow.dim} columns")
    dprime = k.shape[0]
    th = np.zeros(dprime) if theta0 is None else np.asarray(theta0, dtype=float)
    return _character_cocycle(G.torus_group(dprime), flow, k, 2 * np.pi * th, lambda chi: chi,
                              2j * np.pi * (k @ flow.alpha_array), int(np.max(np.abs(k))),
                              f"torus-monomial k={k.tolist()}")


def su2_diagonal(flow: TranslationFlow, k, theta0: float = 0.0) -> Cocycle:
    """diag(e^{i theta(x)}, e^{-i theta(x)}) with theta = 2 pi k.x + theta0."""
    k = _winding(k, flow.dim)
    mconst = G.su2_alg_from_components(
        np.array([0.0, 0.0, 2 * np.pi * float(k @ flow.alpha_array)]))

    def from_chars(chi):
        out = np.zeros(chi.shape[:-1] + (2,), dtype=complex)
        out[..., 0] = chi[..., 0]
        return out

    return _character_cocycle(G.SU2_GROUP, flow, k, [theta0], from_chars,
                              mconst, int(np.max(np.abs(k))), f"su2-diagonal k={k.tolist()}")


def su2_twisted_diagonal(flow: TranslationFlow, k, c0: float = 0.7) -> Cocycle:
    """exp(c0 E1) * diag(e^{i theta(x)}, e^{-i theta(x)}), theta = 2 pi k.x.

    A transfer-function model: conjugating a diagonal cocycle by this map
    produces degree fields whose E3-component stays at cos(2 c0) times the
    norm, uniformly away from the degenerate straightening branches.
    """
    k = _winding(k, flow.dim)
    front = np.array([math.cos(c0), math.sin(c0)], dtype=complex)  # exp(c0 E1)
    mconst = 2 * np.pi * float(k @ flow.alpha_array) * G.ad(
        G.GroupElement(G.SU2_GROUP, front), G.AlgebraElement(G.SU2_GROUP, G.E3)).payload

    def from_chars(chi):
        z = chi[..., 0]
        out = np.empty(z.shape + (2,), dtype=complex)
        np.multiply(front[0], z, out=out[..., 0])
        np.multiply(front[1], np.conj(z), out=out[..., 1])
        return out

    return _character_cocycle(G.SU2_GROUP, flow, k, [0.0], from_chars, mconst,
                              int(np.max(np.abs(k))),
                              f"su2-twisted-diagonal k={k.tolist()} c0={c0}")


def su2_two_angle(flow: TranslationFlow, m1, m2, c1: float = 0.0,
                  c2: float = 0.0) -> Cocycle:
    """exp(theta1(x) E1) exp(theta2(x) E2), theta_i = 2 pi m_i.x + c_i.

    M-field: theta1' E1 + theta2' Ad_{exp(theta1 E1)} E2 with constant
    theta_i' = 2 pi m_i . alpha; genuinely x-dependent when m1 != 0.
    """
    m1 = _winding(m1, flow.dim)
    m2 = _winding(m2, flow.dim)
    t1p = 2 * np.pi * float(m1 @ flow.alpha_array)
    t2p = 2 * np.pi * float(m2 @ flow.alpha_array)

    def exp_e1(e1):
        # exp(t E1) = (cos t, sin t) from e1 = e^{it}
        a = np.empty(e1.shape + (2,), dtype=complex)
        a[..., 0] = e1.real
        a[..., 1] = e1.imag
        return G.GroupElement(G.SU2_GROUP, a)

    def from_chars(chi):
        # exp(t E2) = (cos t, -i sin t) from e2 = e^{it}
        e2 = chi[..., 1]
        b = np.empty(e2.shape + (2,), dtype=complex)
        b[..., 0] = e2.real
        b[..., 1] = -1j * e2.imag
        return G.group_mul(exp_e1(chi[..., 0]), G.GroupElement(G.SU2_GROUP, b)).payload

    def m_field(chi):
        ade2 = G.ad(exp_e1(chi[..., 0]), G.AlgebraElement(G.SU2_GROUP, G.E2))
        return t1p * G.E1 + t2p * ade2.payload

    return _character_cocycle(G.SU2_GROUP, flow, np.stack([m1, m2]),
                              [c1, c2], from_chars, m_field,
                              int(np.max(np.abs(m1)) + np.max(np.abs(m2))),
                              f"su2-two-angle m1={m1.tolist()} m2={m2.tolist()}")


def so3_x3_rotation(flow: TranslationFlow, k, theta0: float = 0.0) -> Cocycle:
    """Rotation about the x3 axis by theta(x) = 2 pi k.x + theta0: the
    payload (sqrt(chi), 0), chi = e^{i theta}, a lift of either sign."""
    k = _winding(k, flow.dim)
    mconst = G.so3_alg_from_components(
        np.array([0.0, 0.0, 2 * np.pi * float(k @ flow.alpha_array)]))

    def from_chars(chi):
        out = np.zeros(chi.shape[:-1] + (2,), dtype=complex)
        np.sqrt(chi[..., 0], out=out[..., 0])
        return out

    return _character_cocycle(G.SO3_GROUP, flow, k, [theta0], from_chars,
                              mconst, int(np.max(np.abs(k), initial=0)),
                              f"so3-x3-rotation k={k.tolist()}")


def u2_product(flow: TranslationFlow, k_torus, k_rot, theta0: float = 0.0) -> Cocycle:
    """U(2) cocycle assembled from an x3-rotation factor with winding
    k_rot (angle 2 pi k_rot.x + theta0) and a torus factor with winding
    k_torus, through (R, w) -> sqrt(w) lift(R), lift(R) the canonical
    lift of `groups` (not the sign that an SO(3) payload happens to carry).

    When k_torus = k_rot (mod 2) componentwise, the two square-root sign
    jumps cancel and the result is the continuous diagonal cocycle

        diag(e^{i pi (k_torus+k_rot).x + i theta0/2},
             e^{i pi (k_torus-k_rot).x - i theta0/2});

    otherwise no continuous branch exists: the value falls back to the
    pointwise principal-branch construction, whose jumps the correlation
    series' grid-doubling estimates flag.

    The payload is a triple (z1, 0, r), the element diag(r z1, r conj(z1)),
    with r the principal square root of the torus factor e(k_torus.x),
    e(t) = exp(2 pi i t).  Mismatched, (z1, 0) is lift(R).  Matched,
    r = sqrt(chi0 chi1) and z1 = chi0 conj(r) for the diagonal entries
    chi0, chi1 above.  With k_torus odd no continuous root exists, so even
    the matched payload changes sign where r crosses the cut while the
    element stays continuous: continuity is judged on the element, not on
    the payload.
    """
    kt = _winding(k_torus, flow.dim)
    kr = _winding(k_rot, flow.dim)
    matched = bool(np.all((kt - kr) % 2 == 0))
    kp, km = kt + kr, kt - kr
    mconst = np.diag([1j * np.pi * float(kp @ flow.alpha_array),
                      1j * np.pi * float(km @ flow.alpha_array)])
    name = f"u2-product k_torus={kt.tolist()} k_rot={kr.tolist()}"

    if matched:
        def from_chars(chi):
            out = np.zeros(chi.shape[:-1] + (3,), dtype=complex)
            np.sqrt(chi[..., 0] * chi[..., 1], out=out[..., 2])
            np.multiply(chi[..., 0], np.conj(out[..., 2]), out=out[..., 0])
            return out

        # entries wind as exp(i pi k.x) with k even, i.e. degree |k|/2
        freq = int(max(np.max(np.abs(kp)), np.max(np.abs(km)))) // 2
        return _character_cocycle(G.U2_GROUP, flow, np.stack([kp // 2, km // 2]),
                                  [theta0 / 2, -theta0 / 2],
                                  from_chars, mconst, max(freq, 1), name)

    def value(phases):
        # sqrt(w) lift(R) in closed form: the x3-rotation by theta lifts
        # to diag(e^{ih}, e^{-ih}), h = theta/2 wrapped into [-pi/2, pi/2),
        # with the canonical lift's sign: the quaternion (c, 0, 0, s) is
        # negated when s < 0 leads, past the tie band of c
        h = 0.5 * (2 * np.pi * (phases @ kr) + theta0)
        h = np.mod(h + np.pi / 2, np.pi) - np.pi / 2
        c, s = np.cos(h), np.sin(h)
        sign = np.where((np.abs(c) < np.abs(s) - G.LEAD_TIE) & (s < 0), -1.0, 1.0)
        # the principal root of e^{2 pi i t} is e^{i pi s}, s = t - n in
        # [-1/2, 1/2] for the integer n nearest t; at the cut (t a half-integer)
        # n is the one nearer 0, so s = +-1/2 keeps the sign of t
        t = phases @ kt
        out = np.zeros(h.shape + (3,), dtype=complex)
        out[..., 0] = sign * (c + 1j * s)
        out[..., 2] = G.unit_exp(np.pi * (t - np.copysign(np.ceil(np.abs(t) - 0.5), t)))
        return out

    return Cocycle(G.U2_GROUP, value, None,
                   max(int(np.max(np.abs(kt)) + np.max(np.abs(kr))), 1), flow.dim,
                   name=name, m_const=mconst)


def u2_scalar_su2(flow: TranslationFlow, k_scalar, inner: Cocycle) -> Cocycle:
    """e^{2 pi i k.x} times an SU(2) cocycle, as a U(2) cocycle."""
    if inner.group.tag != G.SU2:
        raise TagMismatchError("inner cocycle must be SU2-valued")
    k = _winding(k_scalar, flow.dim)
    dconst = 2j * np.pi * float(k @ flow.alpha_array)

    def value(phases):
        w = np.exp(2j * np.pi * (phases @ k))
        return np.concatenate([inner.value(phases), w[..., None]], axis=-1)

    def m_field(phases):
        return dconst * np.eye(2) + inner.m_field(phases)

    m_const = None if inner.m_const is None else dconst * np.eye(2) + inner.m_const
    return Cocycle(G.U2_GROUP, value,
                   m_field if inner.m_field and m_const is None else None,
                   int(np.max(np.abs(k))) + inner.freq_bound, flow.dim,
                   name=f"u2-scalar k={k.tolist()} times [{inner.name}]", m_const=m_const)
