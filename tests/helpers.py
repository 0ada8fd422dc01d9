"""Checks, conversions and reference implementations that only the tests
need: among them the finite-difference oracle of the built-in M-fields
and the homomorphism calculus behind the degree's naturality
P(h . delta) = dh(P delta), both run against the package's cocycles.

Tests import this module as `helpers` (pytest puts the tests directory on
the import path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import liedeg.degree as DG
import liedeg.dynamics as D
import liedeg.groups as G
import liedeg.koopman as K
import liedeg.reps as R
from liedeg.errors import ConfigError, TagMismatchError

# unitarity tolerance of every group's elements
ELEMENT_TOL = 1e-12
# square-and-multiply powers z**e of unit z round off by about |e| eps
POWER_TOL = 8 * np.finfo(float).eps


def to_matrix(g: G.GroupElement) -> np.ndarray:
    """Matrix form of an element (torus -> diagonal matrix, SO3 -> the
    rotation matrix of its payload, U2 -> w times the SU2 pair's matrix)."""
    tag = g.group.tag
    if tag == G.SU2:
        return G.su2_matrix(g.payload)
    if tag == G.SO3:
        return so3_matrix(g.payload)
    if tag == G.U2:
        return g.payload[..., 2, None, None] * G.su2_matrix(g.payload[..., :2])
    d = g.group.torus_dim
    m = np.zeros(g.payload.shape[:-1] + (d, d), dtype=complex)
    idx = np.arange(d)
    m[..., idx, idx] = g.payload
    return m


def validate_element(g: G.GroupElement, tol: float | None = None) -> float:
    dev = G.element_defect(g)
    limit = ELEMENT_TOL if tol is None else tol
    if dev > limit:
        raise ConfigError(f"{g.group.name} element defect {dev:.3e} > {limit:.1e}")
    return dev


def algebra_defect(Z: G.AlgebraElement) -> float:
    """Deviation from the algebra constraints (skewness, tracelessness)."""
    tag = Z.group.tag
    p = Z.payload
    if tag == G.TORUS:
        return float(np.max(np.abs(np.real(p)), initial=0.0))
    skew = p + np.conj(np.swapaxes(p, -1, -2))
    dev = float(np.max(np.abs(skew), initial=0.0))
    if tag in (G.SU2, G.SO3):
        tr = p[..., 0, 0] + p[..., 1, 1]
        dev = max(dev, float(np.max(np.abs(tr), initial=0.0)))
    return dev


def algebra_zero(group: G.GroupSpec, batch_shape=()) -> G.AlgebraElement:
    if group.tag == G.TORUS:
        p = np.zeros(batch_shape + (group.torus_dim,), dtype=complex)
    else:
        p = np.zeros(batch_shape + (2, 2), dtype=complex)
    return G.AlgebraElement(group, p)


def cocycle_value(c: D.Cocycle, x: D.BasePoint) -> G.GroupElement:
    return G.GroupElement(c.group, c.value(x.phases))


def sampled(c: D.Cocycle) -> D.Cocycle:
    """c without its constant M-field payload, so that `K.dini_modulus`
    samples its field: the reference for its constant-field shortcut."""
    return replace(c, m_const=None)


DINI_SHIFTS = tuple(np.logspace(-4, 0, 17).tolist())  # t grid of the sampled pass


def sampled_modulus(c: D.Cocycle, reps, flow: D.TranslationFlow,
                    t_grid=DINI_SHIFTS, nodes: int = 256) -> np.ndarray:
    """The sampled regularity pass that `K.dini_modulus`'s certificate
    replaced, now its reference: per rep pi (rows) and shift t (columns),
    max over the nodes^d grid of the entries of
    |dpi(M(x + t alpha) - M(x))|, in blocks of 4,096 points.  A finite
    grid certifies neither this sup nor the modulus integral."""
    pts = D.quadrature_points(D.QuadratureSpec(nodes), flow.dim)
    sups = np.zeros((len(reps), len(t_grid)))
    for start in range(0, len(pts), 4096):
        block = pts[start:start + 4096]
        base = np.asarray(c.m_field(block))
        for i, t in enumerate(t_grid):
            diff = G.AlgebraElement(c.group, np.asarray(
                c.m_field(D.wrap_phases(block + t * flow.alpha_array))) - base)
            sups[:, i] = np.maximum(sups[:, i], [np.max(np.abs(R.rep_differential(rep, diff)))
                                                 for rep in reps])
    return sups


def grid_sups(rep, c: D.Cocycle, flow: D.TranslationFlow, nodes: int = 128) -> tuple:
    """(sup |M|, sup |dpi(M)| entrywise) over the nodes^d grid: the sampled
    boundedness hypotheses that `K.dini_modulus`'s certified sups replaced."""
    M = G.AlgebraElement(c.group, np.asarray(
        c.m_field(D.quadrature_points(D.QuadratureSpec(nodes), flow.dim))))
    return (float(np.max(G.algebra_norm(M))),
            float(np.max(np.abs(R.rep_differential(rep, M)))))


def modulus_bound(entry: dict, t) -> np.ndarray:
    """The certificate's modulus bound sum_k C_k min(2, a_k t) at shifts t."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.sum(entry["weights"].ravel() * np.minimum(2, entry["rates"].ravel() * t), axis=-1)


def circle_sqrt(w: np.ndarray) -> np.ndarray:
    """Principal square root on the unit circle, exp(i arg(w) / 2): the
    reference for `u2_product`'s root e^{i pi (t - round(t))} of
    e^{2 pi i t}."""
    return G.unit_exp(0.5 * np.arctan2(w.imag, w.real))


def _from_quaternion(q: np.ndarray) -> np.ndarray:
    """The SU(2) payload of g = q0 I + q1 E1 + q2 E2 + q3 E3."""
    return np.stack([q[..., 0] + 1j * q[..., 3], q[..., 1] - 1j * q[..., 2]], axis=-1)


def so3_matrix(payload: np.ndarray) -> np.ndarray:
    """Covering map on raw SU(2) or SO(3) payloads: the matrix of Ad_g in
    the basis (E1, E2, E3), the transpose of the standard quaternion
    rotation matrix.  Both signs of a payload give the same matrix: the
    reference that SO(3) payloads are compared through."""
    z1, z2 = payload[..., 0], payload[..., 1]
    q0, q1, q2, q3 = np.real(z1), np.real(z2), -np.imag(z2), np.imag(z1)
    r = np.empty(payload.shape[:-1] + (3, 3))
    r[..., 0, 0] = 1 - 2 * (q2 * q2 + q3 * q3)
    r[..., 1, 0] = 2 * (q1 * q2 - q0 * q3)
    r[..., 2, 0] = 2 * (q1 * q3 + q0 * q2)
    r[..., 0, 1] = 2 * (q1 * q2 + q0 * q3)
    r[..., 1, 1] = 1 - 2 * (q1 * q1 + q3 * q3)
    r[..., 2, 1] = 2 * (q2 * q3 - q0 * q1)
    r[..., 0, 2] = 2 * (q1 * q3 - q0 * q2)
    r[..., 1, 2] = 2 * (q2 * q3 + q0 * q1)
    r[..., 2, 2] = 1 - 2 * (q1 * q1 + q2 * q2)
    return r


def _shepperd_map() -> np.ndarray:
    """The linear map R.reshape(9) -> K - I, K = 4 q q^T, for the unit
    quaternion q whose `so3_matrix` image is R."""
    M = np.zeros((3, 3, 4, 4))
    for a in range(3):
        # trace and diagonal: 4 q0^2 - 1 = tr R, 4 q_(a+1)^2 - 1 = 2 R_aa - tr R
        M[a, a] = np.diag([1.0] + [2.0 * (a == b) - 1.0 for b in range(3)])
        # (a, b, c) cyclic: R_bc - R_cb = 4 q0 q_(a+1), R_bc + R_cb = 4 q_(b+1) q_(c+1)
        b, c = (a + 1) % 3, (a + 2) % 3
        for sign, (i, j) in ((1.0, (b, c)), (-1.0, (c, b))):
            M[i, j, 0, a + 1] = M[i, j, a + 1, 0] = sign
            M[i, j, b + 1, c + 1] = M[i, j, c + 1, b + 1] = 1.0
    return M.reshape(9, 16)


_SHEPPERD = _shepperd_map()


def so3_to_su2(R: np.ndarray) -> np.ndarray:
    """Canonical lift of rotation matrices R through the double cover, as
    SU(2) payloads.  Shepperd's method in matrix form: K = 4 q q^T is
    linear in R, and its row with the largest diagonal entry, normalized,
    is +-q with the best-conditioned division.  The sign makes the entry
    of largest magnitude positive; entries within LEAD_TIE of it tie, and
    the lowest index among them leads, so round-off does not pick the sign
    (rotations by pi about (1, -1, 1) tie three entries of opposite
    signs).  On the x3-rotation with angle t in (0, pi] the lift is
    diag(e^{it/2}, e^{-it/2}).  SO(3) payloads carry either sign;
    `u2_product`'s closed form follows this one."""
    batch = R.shape[:-2]
    K = np.einsum("...i,ij->...j", R.reshape(batch + (9,)), _SHEPPERD)
    K = K.reshape(batch + (4, 4)) + np.eye(4)
    pick = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, pick[..., None, None], axis=-2)[..., 0, :]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    size = np.abs(q)
    first = np.argmax(size >= np.max(size, axis=-1, keepdims=True) - G.LEAD_TIE, axis=-1)
    q = q * np.where(np.take_along_axis(q, first[..., None], axis=-1) < 0, -1.0, 1.0)
    return _from_quaternion(q)


def so3_skew(a: np.ndarray) -> np.ndarray:
    """The real skew-symmetric 3x3 a1 J1 + a2 J2 + a3 J3, J_i orthonormal
    for tr(S T^T) / 2 and generating the rotation about x_i: so(3) as
    matrices, the reference that `groups.so3_alg_matrix` reproduces."""
    S = np.zeros(a.shape[:-1] + (3, 3))
    S[..., 1, 2] = a[..., 0]
    S[..., 2, 1] = -a[..., 0]
    S[..., 0, 2] = -a[..., 1]
    S[..., 2, 0] = a[..., 1]
    S[..., 0, 1] = a[..., 2]
    S[..., 1, 0] = -a[..., 2]
    return S


def so3_skew_components(S: np.ndarray) -> np.ndarray:
    """Coordinates (a1, a2, a3) of 3x3 skew-symmetric S in (J1, J2, J3)."""
    return np.stack([S[..., 1, 2], -S[..., 0, 2], S[..., 0, 1]], axis=-1)


def d_cover(Z: np.ndarray) -> np.ndarray:
    """Differential of the cover on su(2) payloads, E_i -> 2 J_i, as 3x3
    skew-symmetric matrices."""
    return so3_skew(2.0 * G.su2_alg_components(Z))


def d_cover_inv(S: np.ndarray) -> np.ndarray:
    """Inverse differential of the cover on 3x3 skew-symmetric S: the su(2)
    payload with J_i -> E_i / 2, which is how `groups` stores so(3)."""
    return G.su2_alg_from_components(0.5 * so3_skew_components(S))


def so3_ad_sandwich(g: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Ad_g S = g S g^T on rotation matrices g and 3x3 skew-symmetric S:
    the reference for `groups.ad` on so(3) payloads."""
    return g @ S @ np.swapaxes(g, -1, -2)


def su2_table_reference(l: int, u00, u11, u01, u10) -> np.ndarray:
    """Raw coefficients c_jk(u) of batched 2x2 entries from a points-first
    term table, coefficient first, gathered per point and scattered by a
    0/1 matrix: the reference for `reps`' points-last term products."""
    p1, p2, p3, p4, coeff, flat = [], [], [], [], [], []
    for k in range(l + 1):
        for m in range(k + 1):
            for n in range(l - k + 1):
                p1.append(m)
                p2.append(l - k - n)
                p3.append(n)
                p4.append(k - m)
                coeff.append(math.comb(k, m) * math.comb(l - k, n))
                flat.append((m + n) * (l + 1) + k)
    scatter = np.zeros((len(coeff), (l + 1) ** 2))
    scatter[np.arange(len(coeff)), flat] = 1.0
    coeff = np.array(coeff, dtype=float)

    def powers(z):
        out = np.empty(np.shape(z) + (l + 1,), dtype=complex)
        out[..., 0] = 1.0
        for p in range(1, l + 1):
            out[..., p] = out[..., p - 1] * z
        return out

    vals = (coeff * powers(u00)[..., p1] * powers(u11)[..., p2]
            * powers(u01)[..., p3] * powers(u10)[..., p4])
    return (vals @ scatter).reshape(np.shape(u00) + (l + 1, l + 1))


def iso_so3_torus_to_u2(R: G.GroupElement, w, branch: int = +1) -> G.GroupElement:
    """Map (R, w) -> branch * sqrt(w) * lift(R) in U(2).

    The underlying correspondence is two-to-one: (R, w) determines the
    unitary only up to the central sign, which the explicit `branch`
    argument selects.  The reference for `u2_product`'s closed form.
    """
    if R.group.tag != G.SO3:
        raise TagMismatchError("iso_so3_torus_to_u2 expects an SO3 element")
    if branch not in (+1, -1):
        raise ConfigError("branch must be +1 or -1")
    z = circle_sqrt(np.asarray(w, dtype=complex))
    lift = so3_to_su2(so3_matrix(R.payload))
    z = np.broadcast_to(z, lift.shape[:-1])
    return G.GroupElement(G.U2_GROUP, branch * np.concatenate([lift, z[..., None]], axis=-1))


def torus_character_reference(payload: np.ndarray, q) -> np.ndarray:
    """Characters prod_j g_j^(q_j) through numpy's complex pow: the
    reference for `reps.rep_eval_payload`'s square-and-multiply."""
    return np.prod(payload ** np.asarray(q), axis=-1)


def su2_from_matrix(m: np.ndarray) -> np.ndarray:
    """First row of an SU(2) matrix as the (z1, z2) payload."""
    return np.stack([m[..., 0, 0], m[..., 0, 1]], axis=-1)


def u2_factor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = z g on 2x2 unitaries: (det u, z, SU(2) payload of g), with
    z = circle_sqrt(det u) the one branch choice for sqrt(det u)."""
    det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    z = circle_sqrt(det)
    return det, z, su2_from_matrix(u / z[..., None, None])


def u2_payload(u: np.ndarray) -> np.ndarray:
    """The triple (z1, z2, w) of 2x2 unitaries u = w g (`u2_factor`, w =
    circle_sqrt(det u)): how `groups` stores U(2)."""
    _, z, g = u2_factor(u)
    return np.concatenate([g, z[..., None]], axis=-1)


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 matrices, written out entry by entry; broadcasts as @
    does.  The U(2) product of 2x2 payloads that the triples replaced."""
    p = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in (0, 1):
        for j in (0, 1):
            out = p[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=out)
            out += a[..., i, 1] * b[..., 1, j]
    return p


def polar_factor(m: np.ndarray) -> np.ndarray:
    """The unitary polar factor U V^H of m = U S V^H: the U(2)
    renormalization of 2x2 payloads that the triples replaced."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def exp_eigh(Z: np.ndarray) -> np.ndarray:
    """exp(Z) of skew-Hermitian Z = iH by diagonalizing H: the U(2)
    exponential that the trace split replaced."""
    w, v = np.linalg.eigh(-1j * Z)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def u2_rep_reference(rep: R.Representation, u: np.ndarray) -> np.ndarray:
    """The factorised U(2) irrep z^(2m - l) pi_l(u / z) of 2x2 unitaries u,
    z = sqrt(det u), with the centre factor through numpy's complex pow:
    the reference for `reps.rep_eval_payload`'s w^(2m - l) pi_l(g) on the
    triples (g, w)."""
    l, m = rep.label
    _, z, g = u2_factor(u)
    return (z ** (2 * m - l))[..., None, None] * R.rep_eval_payload(R.su2_rep(l), g)


def validate_m_field(c: D.Cocycle, flow: D.TranslationFlow, x: D.BasePoint,
                     h: float = 1e-4) -> dict:
    """Central-difference check of the declared M-field.

    Computes (phi(F_h x) - phi(F_{-h} x)) / 2h * phi(x)^{-1}, projects it
    onto the algebra, and compares with `m_field`; also reruns at h/2 and
    reports the error ratio (should be ~4 for the O(h^2) scheme).
    """
    declared = c.m_field(x.phases)

    def fd(step):
        plus = c.value(D.flow_advance(flow, x, step).phases)
        minus = c.value(D.flow_advance(flow, x, -step).phases)
        if c.group.tag == G.TORUS:
            raw = (plus - minus) / (2 * step) * np.conj(c.value(x.phases))
            return 1j * np.imag(raw)
        # SO(3) payloads of either sign give one rotation matrix
        plus, minus, here = (to_matrix(G.GroupElement(c.group, v))
                             for v in (plus, minus, c.value(x.phases)))
        raw = (plus - minus) / (2 * step) @ np.conj(np.swapaxes(here, -1, -2))
        skew = 0.5 * (raw - np.conj(np.swapaxes(raw, -1, -2)))
        if c.group.tag == G.SO3:
            return d_cover_inv(np.real(skew))
        return skew

    err_h = float(np.max(np.abs(fd(h) - declared)))
    err_h2 = float(np.max(np.abs(fd(h / 2) - declared)))
    ratio = err_h / err_h2 if err_h2 > 0 else float("inf")
    return {"max_deviation": err_h, "deviation_half_step": err_h2,
            "ratio": ratio, "h": h}


def inner_product(psi1: K.FiberVector, psi2: K.FiberVector,
                  quadrature: D.QuadratureSpec, d: int) -> complex:
    """<psi1, psi2> = d_pi^{-1} sum_k integral conj(phi1_k) phi2_k, by
    quadrature of the per-point coefficients."""
    nodes = max(quadrature.nodes_per_dim,
                psi1.degree_bound + psi2.degree_bound + 1)
    pts = D.quadrature_points(D.QuadratureSpec(nodes), d)
    v1 = K.fiber_coefficients(psi1, pts)
    v2 = K.fiber_coefficients(psi2, pts)
    return complex(np.mean(np.sum(np.conj(v1) * v2, axis=-1)) / psi1.rep.dim)


# ---------------------------------------------------------------------------
# group homomorphisms and the naturality of the degree
# ---------------------------------------------------------------------------

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
    (S_payload, v_payload) and returns lift(S) + (v/2) I with lift the
    inverse of the double-cover differential, which is the so(3) payload
    itself (stored as its su(2) preimage).  The differential is
    single-valued even though the value map has a sign ambiguity.
    """
    def value_map(pair):
        Rp, wp = pair
        return iso_so3_torus_to_u2(G.GroupElement(G.SO3_GROUP, Rp), wp[..., 0], +1).payload

    def alg_map(pair):
        Sp, vp = pair
        return Sp + 0.5 * vp[..., 0][..., None, None] * np.eye(2)

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
                         name=f"{h.name}[{rot.name}, {tor.name}]")
    return D.Cocycle(h.codomain, lambda ph: h.value_map(delta.value(ph)),
                     lambda ph: h.alg_map(delta.m_field(ph)),
                     delta.freq_bound, delta.base_dim, name=f"{h.name}[{delta.name}]")


def invariance_check_homomorphism(delta, h: Homomorphism,
                                  flow: D.TranslationFlow, N: int,
                                  points: D.BasePoint) -> dict:
    """Degrees intertwine with homomorphisms: P(h.delta) = dh(P delta).

    `delta` is a cocycle or an (so3, torus) pair; the composed cocycle's
    degree is estimated directly and compared with dh applied to the
    component degree estimate(s), pointwise.
    """
    composed = hom_apply_cocycle(h, delta)
    est_comp = DG.degree_pointwise(composed, flow, points, N)
    if isinstance(delta, tuple):
        est_parts = tuple(DG.degree_pointwise(c, flow, points, N) for c in delta)
        pushed = h.alg_map(tuple(e.value.payload for e in est_parts))
        diag = max(float(np.max(e.diagnostic)) for e in est_parts)
    else:
        est = DG.degree_pointwise(delta, flow, points, N)
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


def grid_slot_mass(probe: K.FiberVector, Q: np.ndarray, d: int) -> np.ndarray:
    """The probe's coefficient mass per column of Q, sampled on a grid that
    integrates |psi|^2 exactly: the reference for the Parseval sum of
    `koopman._slot_mass`, which keeps this form for conjugated probes."""
    pts = D.quadrature_points(D.QuadratureSpec(max(64, 2 * probe.degree_bound + 1)), d)
    comps = np.einsum("ls,...l->...s", np.conj(Q), K.fiber_coefficients(probe, pts))
    return np.mean(np.abs(comps) ** 2, axis=0)
