"""Base dynamics and cocycles over torus translation flows.

The base system is the linear flow F_t(x) = x + t*alpha on the torus
[0,1)^d; its time-one map drives all skew products.  A cocycle is a map
phi from the base into one of the compact groups together with its
logarithmic derivative along the flow, the M-field

    M_phi(x) = (d/dt phi(F_t x))|_{t=0} * phi(x)^{-1},

which every built-in supplies in closed form (and `validate_m_field`
cross-checks by central differences).  Iterates follow

    phi^(n)(x)  = phi(x) phi(F_1 x) ... phi(F_{n-1} x),   n >= 1,
    phi^(0)     = e,
    phi^(-n)(x) = (phi^(n)(F_{-n} x))^{-1}.

Cocycle `value`/`m_field` callables map a phases array of shape (..., d)
to a batched group/algebra payload; BasePoint wrappers carry phases
reduced mod 1.  Built-in constructors take the flow because the M-field
closed forms contain alpha.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import groups as G
from .errors import ConfigError, TagMismatchError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def wrap_phases(x: np.ndarray) -> np.ndarray:
    """x mod 1 in place and returned: the bits of np.mod(x, 1.0), -0.0 and
    tiny negatives (which wrap to 1.0) included, at a tenth of its cost."""
    x -= np.floor(x)
    return x


@dataclass
class BasePoint:
    """Point(s) on the torus; phases shape (..., d), entries in [0, 1)."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = wrap_phases(np.array(self.phases, dtype=float))

    @property
    def dim(self) -> int:
        return self.phases.shape[-1]


def base_point(*phases) -> BasePoint:
    if len(phases) == 1 and np.ndim(phases[0]) >= 1:
        return BasePoint(np.asarray(phases[0], dtype=float))
    return BasePoint(np.array(phases, dtype=float))


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced product grid on the torus, nodes_per_dim per dimension.

    Exact for trigonometric polynomials of per-dimension degree below
    nodes_per_dim; callers size it by the rule
    nodes >= 2 * (coefficient degree + N * cocycle degree) + 1.
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


@dataclass(frozen=True)
class Cocycle:
    """Group-valued cocycle generator with its M-field.

    `value` / `m_field` act on raw phase arrays (..., d) and return
    batched payloads; `freq_bound` is the per-dimension trigonometric
    degree of the matrix entries of phi in the defining representation,
    used by the correlation quadrature sizing rule; `base_dim` is the
    dimension d of the base torus the callables accept.

    `step`, when set, evaluates both at once for the orbit walker:
    step(phases, carry, want_m) -> (value, M-field or None, carry), bit
    for bit `value(phases)` and, when `want_m`, `m_field(phases)`.  The
    carry is None or what the call at the previous point of the same
    walk returned, and holds work that point did for this one; a step
    uses it only when it matches `phases`, so any carry is safe to pass.
    """

    group: G.GroupSpec
    value: Callable[[np.ndarray], np.ndarray]
    m_field: Callable[[np.ndarray], np.ndarray] | None
    freq_bound: int
    base_dim: int
    name: str = ""
    smoothness_note: str = "real-analytic trigonometric polynomial"
    branch_discontinuous: bool = False
    step: Callable | None = None


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
    """
    if n == 0:
        return G.identity(c.group, x.phases.shape[:-1])
    if n < 0:
        shifted = flow_advance(flow, x, float(n))
        return G.group_inv(cocycle_iterate(c, flow, shifted, -n))
    alpha = flow.alpha_array
    phases = np.array(x.phases)
    step = c.step or (lambda ph, carry, want_m: (
        c.value(ph), c.m_field(ph) if want_m else None, None))
    g = carry = None
    for k in range(n):
        if k:
            phases += alpha
            wrap_phases(phases)
        if visit is not None and not with_m:
            visit(k, phases, g if k else G.identity(c.group, phases.shape[:-1]))
        value, m, carry = step(phases, carry, with_m)
        if with_m:
            visit(k, phases, g if k else G.identity(c.group, phases.shape[:-1]), m)
        value = G.GroupElement(c.group, value)
        g = value if k == 0 else G.group_mul(g, value)
        if k and k % 256 == 0:
            g = G.maybe_renormalize(g)
        del value, m  # no array of this point lives into the next visit
    return G.maybe_renormalize(g)


def skew_step(c: Cocycle, flow: TranslationFlow, x: BasePoint,
              g: G.GroupElement, n: int = 1) -> tuple[BasePoint, G.GroupElement]:
    """n-th power of the skew product: (x, g) -> (F_n x, g * phi^(n)(x))."""
    return flow_advance(flow, x, float(n)), G.group_mul(g, cocycle_iterate(c, flow, x, n))


def w_apply(c: Cocycle, flow: TranslationFlow,
            f: Callable[[BasePoint], G.AlgebraElement], n: int,
            x: BasePoint) -> G.AlgebraElement:
    """Transfer operator on algebra-valued fields, evaluated at x:
    (W^n f)(x) = Ad_{phi^(n)(x)} f(F_n x).  Batched x is supported when
    f maps batched points to matching batched algebra elements."""
    gn = cocycle_iterate(c, flow, x, n)
    return G.ad(gn, f(flow_advance(flow, x, float(n))))


def validate_m_field(c: Cocycle, flow: TranslationFlow, x: BasePoint,
                     h: float = 1e-4) -> dict:
    """Central-difference check of the declared M-field.

    Computes (phi(F_h x) - phi(F_{-h} x)) / 2h * phi(x)^{-1}, projects it
    onto the algebra, and compares with `m_field`; also reruns at h/2 and
    reports the error ratio (should be ~4 for the O(h^2) scheme).
    """
    declared = c.m_field(x.phases)

    def fd(step):
        plus = c.value(flow_advance(flow, x, step).phases)
        minus = c.value(flow_advance(flow, x, -step).phases)
        if c.group.tag == G.TORUS:
            raw = (plus - minus) / (2 * step) * np.conj(c.value(x.phases))
            return 1j * np.imag(raw)
        if c.group.tag == G.SU2:
            plus, minus = G.su2_matrix(plus), G.su2_matrix(minus)
            here = G.su2_matrix(c.value(x.phases))
        else:
            here = c.value(x.phases)
        raw = (plus - minus) / (2 * step) @ np.conj(np.swapaxes(here, -1, -2))
        skew = 0.5 * (raw - np.conj(np.swapaxes(raw, -1, -2)))
        if c.group.tag == G.SO3:
            skew = np.real(skew)
        return skew

    err_h = float(np.max(np.abs(fd(h) - declared)))
    err_h2 = float(np.max(np.abs(fd(h / 2) - declared)))
    ratio = err_h / err_h2 if err_h2 > 0 else float("inf")
    return {"max_deviation": err_h, "deviation_half_step": err_h2,
            "ratio": ratio, "h": h}


def cohomologous_build(delta: Cocycle, zeta: Cocycle, flow: TranslationFlow,
                       name: str = "") -> Cocycle:
    """The cocycle phi(x) = zeta(x)^{-1} delta(x) zeta(F_1 x).

    Its M-field follows from the product rule,

      M_phi = -Ad_{zeta^{-1}} ( M_zeta - M_delta - Ad_delta (M_zeta o F_1) ),

    so degree data of phi and delta are conjugate by zeta.  Value and
    M-field are made from the same zeta(x), delta(x) and zeta(F_1 x), so
    one fused `step` computes each of these, zeta(x)^{-1} and the wrap
    F_1 x = x + alpha mod 1 once, and `value` / `m_field` are that step
    without a carry (`m_field` skips zeta(F_1 x) and the value's products,
    which it does not need).  Along an orbit zeta(F_1 x) is the next
    point's zeta(x): the step carries (F_1 x, zeta(F_1 x), M_zeta(F_1 x)) and
    reuses the last two when the next phases equal F_1 x bit for bit, as
    the walker's `wrap_phases(x + alpha)` does on the flow given here.
    """
    if zeta.group != delta.group:
        raise TagMismatchError("zeta and delta must share the group")
    group = zeta.group
    alpha = flow.alpha_array

    def parts(phases, carry, want_m, want_value=True):
        ahead = wrap_phases(phases + alpha)
        if (carry is not None and (carry[2] is not None or not want_m)
                and np.array_equal(carry[0], phases)):
            _, zl, mzl = carry
        else:
            zl = zeta.value(phases)
            mzl = zeta.m_field(phases) if want_m else None
        zr = zeta.value(ahead) if want_value else None
        mzr = zeta.m_field(ahead) if want_m else None
        zinv = G.group_inv(G.GroupElement(group, zl))
        dm = G.GroupElement(group, delta.value(phases))
        value = m = None
        if want_value:
            value = G.group_mul(G.group_mul(zinv, dm), G.GroupElement(group, zr)).payload
        if want_m:
            inner = np.negative(mzl)
            inner += delta.m_field(phases)
            inner += G.ad(dm, G.AlgebraElement(group, mzr)).payload
            m = G.ad(zinv, G.AlgebraElement(group, inner)).payload
        return value, m, (ahead, zr, mzr)

    has_m = zeta.m_field is not None and delta.m_field is not None
    return Cocycle(group, lambda phases: parts(phases, None, False)[0],
                   (lambda phases: parts(phases, None, True, False)[1]) if has_m else None,
                   freq_bound=2 * zeta.freq_bound + delta.freq_bound,
                   base_dim=delta.base_dim,
                   name=name or f"cohomologous[{zeta.name} ; {delta.name}]",
                   step=lambda phases, carry, want_m: parts(phases, carry, want_m))


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


def torus_monomial(flow: TranslationFlow, k, theta0=None) -> Cocycle:
    """Torus-valued phi(x)_j = exp(2 pi i (k_j . x + theta0_j)); k is an
    integer matrix of shape (d', d) (a vector means d' = 1)."""
    k = np.atleast_2d(_integers(k))
    if k.shape[1] != flow.dim:
        raise ConfigError(f"winding matrix needs {flow.dim} columns")
    dprime = k.shape[0]
    th = np.zeros(dprime) if theta0 is None else np.asarray(theta0, dtype=float)
    const = 2j * np.pi * (k @ flow.alpha_array)

    def value(phases):
        return np.exp(2j * np.pi * (phases @ k.T + th))

    def m_field(phases):
        return np.broadcast_to(const, phases.shape[:-1] + (dprime,)).copy()

    return Cocycle(G.torus_group(dprime), value, m_field, int(np.max(np.abs(k))),
                   flow.dim, name=f"torus-monomial k={k.tolist()}")


def torus_power(c: Cocycle, p: int) -> Cocycle:
    """phi -> phi^p for torus-valued cocycles (entrywise power)."""
    if c.group.tag != G.TORUS:
        raise TagMismatchError("torus_power applies to torus cocycles")
    return Cocycle(c.group, lambda ph: c.value(ph) ** p,
                   (lambda ph: p * c.m_field(ph)) if c.m_field else None,
                   abs(p) * c.freq_bound, c.base_dim, name=f"({c.name})^{p}")


def su2_diagonal(flow: TranslationFlow, k, theta0: float = 0.0) -> Cocycle:
    """diag(e^{i theta(x)}, e^{-i theta(x)}) with theta = 2 pi k.x + theta0."""
    k = _winding(k, flow.dim)
    mconst = G.su2_alg_from_components(
        np.array([0.0, 0.0, 2 * np.pi * float(k @ flow.alpha_array)]))

    def value(phases):
        th = 2 * np.pi * (phases @ k) + theta0
        out = np.zeros(th.shape + (2,), dtype=complex)
        np.exp(1j * th, out=out[..., 0])
        return out

    def m_field(phases):
        return np.broadcast_to(mconst, phases.shape[:-1] + (2, 2)).copy()

    return Cocycle(G.SU2_GROUP, value, m_field, int(np.max(np.abs(k))), flow.dim,
                   name=f"su2-diagonal k={k.tolist()}")


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

    def value(phases):
        th = 2 * np.pi * (phases @ k)
        z = np.exp(1j * th)
        out = np.empty(z.shape + (2,), dtype=complex)
        np.multiply(front[0], z, out=out[..., 0])
        np.multiply(front[1], np.conj(z), out=out[..., 1])
        return out

    def m_field(phases):
        return np.broadcast_to(mconst, phases.shape[:-1] + (2, 2)).copy()

    return Cocycle(G.SU2_GROUP, value, m_field, int(np.max(np.abs(k))), flow.dim,
                   name=f"su2-twisted-diagonal k={k.tolist()} c0={c0}")


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

    def angles(phases):
        return (2 * np.pi * (phases @ m1) + c1, 2 * np.pi * (phases @ m2) + c2)

    def exp_e1(th1):
        # exp(t E1) = (cos t, sin t)
        a = np.empty(th1.shape + (2,), dtype=complex)
        a[..., 0] = np.cos(th1)
        a[..., 1] = np.sin(th1)
        return G.GroupElement(G.SU2_GROUP, a)

    def value(phases):
        th1, th2 = angles(phases)
        # exp(t E2) = (cos t, -i sin t)
        b = np.empty(th2.shape + (2,), dtype=complex)
        b[..., 0] = np.cos(th2)
        b[..., 1] = -1j * np.sin(th2)
        return G.group_mul(exp_e1(th1), G.GroupElement(G.SU2_GROUP, b)).payload

    def m_field(phases):
        th1, _ = angles(phases)
        ade2 = G.ad(exp_e1(th1), G.AlgebraElement(G.SU2_GROUP, G.E2))
        return t1p * G.E1 + t2p * ade2.payload

    return Cocycle(G.SU2_GROUP, value, m_field,
                   int(np.max(np.abs(m1)) + np.max(np.abs(m2))), flow.dim,
                   name=f"su2-two-angle m1={m1.tolist()} m2={m2.tolist()}")


def so3_x3_rotation(flow: TranslationFlow, k, theta0: float = 0.0) -> Cocycle:
    """Rotation about the x3 axis by theta(x) = 2 pi k.x + theta0."""
    k = _winding(k, flow.dim)
    mconst = G.so3_alg_from_components(
        np.array([0.0, 0.0, 2 * np.pi * float(k @ flow.alpha_array)]))

    def value(phases):
        th = 2 * np.pi * (phases @ k) + theta0
        c, s = np.cos(th), np.sin(th)
        out = np.zeros(th.shape + (3, 3))
        out[..., 0, 0], out[..., 0, 1] = c, s
        out[..., 1, 0], out[..., 1, 1] = -s, c
        out[..., 2, 2] = 1.0
        return out

    def m_field(phases):
        return np.broadcast_to(mconst, phases.shape[:-1] + (3, 3)).copy()

    return Cocycle(G.SO3_GROUP, value, m_field, int(np.max(np.abs(k), initial=0)),
                   flow.dim, name=f"so3-x3-rotation k={k.tolist()}")


def u2_product(flow: TranslationFlow, k_torus, k_rot, theta0: float = 0.0) -> Cocycle:
    """U(2) cocycle assembled from an x3-rotation factor with winding
    k_rot (angle 2 pi k_rot.x + theta0) and a torus factor with winding
    k_torus, through (R, w) -> sqrt(w) lift(R).

    When k_torus = k_rot (mod 2) componentwise, the two square-root sign
    jumps cancel and the result is the continuous diagonal cocycle

        diag(e^{i pi (k_torus+k_rot).x + i theta0/2},
             e^{i pi (k_torus-k_rot).x - i theta0/2});

    otherwise no continuous branch exists: the value falls back to the
    pointwise principal-branch construction, with the discontinuity
    recorded on the returned cocycle for downstream reporting.
    """
    kt = _winding(k_torus, flow.dim)
    kr = _winding(k_rot, flow.dim)
    matched = bool(np.all((kt - kr) % 2 == 0))
    kp, km = kt + kr, kt - kr
    mconst = np.diag([1j * np.pi * float(kp @ flow.alpha_array),
                      1j * np.pi * float(km @ flow.alpha_array)])

    if matched:
        def value(phases):
            a = np.pi * (phases @ kp) + theta0 / 2
            b = np.pi * (phases @ km) - theta0 / 2
            out = np.zeros(a.shape + (2, 2), dtype=complex)
            out[..., 0, 0] = np.exp(1j * a)
            out[..., 1, 1] = np.exp(1j * b)
            return out
    else:
        def value(phases):
            # sqrt(w) lift(R) in closed form: the x3-rotation by theta lifts
            # to diag(e^{ih}, e^{-ih}), h = theta/2 wrapped into [-pi/2, pi/2),
            # with so3_to_su2's sign (largest quaternion entry positive)
            h = 0.5 * (2 * np.pi * (phases @ kr) + theta0)
            h = np.mod(h + np.pi / 2, np.pi) - np.pi / 2
            c, s = np.cos(h), np.sin(h)
            sign = np.where((np.abs(s) > np.abs(c)) & (s < 0), -1.0, 1.0)
            z = G.circle_sqrt(np.exp(2j * np.pi * (phases @ kt))) * sign
            out = np.zeros(h.shape + (2, 2), dtype=complex)
            out[..., 0, 0] = z * (c + 1j * s)
            out[..., 1, 1] = z * (c - 1j * s)
            return out

    def m_field(phases):
        return np.broadcast_to(mconst, phases.shape[:-1] + (2, 2)).copy()

    if matched:
        # entries wind as exp(i pi k.x) with k even, i.e. degree |k|/2
        freq = int(max(np.max(np.abs(kp)), np.max(np.abs(km)))) // 2
    else:
        freq = int(np.max(np.abs(kt)) + np.max(np.abs(kr)))
    return Cocycle(G.U2_GROUP, value, m_field, max(freq, 1), flow.dim,
                   name=f"u2-product k_torus={kt.tolist()} k_rot={kr.tolist()}",
                   smoothness_note=("real-analytic trigonometric polynomial" if matched
                                    else "discontinuous branch cut (parity mismatch)"),
                   branch_discontinuous=not matched)


def u2_scalar_su2(flow: TranslationFlow, k_scalar, inner: Cocycle) -> Cocycle:
    """e^{2 pi i k.x} times an SU(2) cocycle, as a U(2) cocycle."""
    if inner.group.tag != G.SU2:
        raise TagMismatchError("inner cocycle must be SU2-valued")
    k = _winding(k_scalar, flow.dim)
    dconst = 2j * np.pi * float(k @ flow.alpha_array)

    def value(phases):
        z = np.exp(2j * np.pi * (phases @ k))
        return z[..., None, None] * G.su2_matrix(inner.value(phases))

    def m_field(phases):
        return dconst * np.eye(2) + inner.m_field(phases)

    return Cocycle(G.U2_GROUP, value, m_field if inner.m_field else None,
                   int(np.max(np.abs(k))) + inner.freq_bound, flow.dim,
                   name=f"u2-scalar k={k.tolist()} times [{inner.name}]")
