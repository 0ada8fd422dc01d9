"""Compact group backends: torus T^d, SU(2), SO(3,R), U(2).

Element payloads
----------------
TORUS(d)  complex vector of unit-modulus entries, shape (..., d)
SU2       pair (z1, z2) with |z1|^2 + |z2|^2 = 1, shape (..., 2); the
          matrix form is [[z1, z2], [-conj(z2), conj(z1)]]
SO3       real orthogonal 3x3 with det +1, shape (..., 3, 3)
U2        complex unitary 2x2, shape (..., 2, 2)

Algebra payloads match: purely imaginary vectors for the torus, traceless
skew-Hermitian 2x2 for SU2, skew-symmetric 3x3 for SO3, skew-Hermitian
2x2 for U2.  All operations broadcast over leading batch axes; "one
element" and "a grid of elements" go through the same code path.

Products of 2x2 complex payloads (the U2 `group_mul`, `ad` and the Gram
matrix of `element_defect`) are written out entry by entry in `_mul2`:
at the orbit walker's batches a batched `@` on 2x2 matrices costs about
ten times as much.  SO3 products (real 3x3) and the polar factor of
`renormalize` stay `@`.  Points exp(i theta) of the unit circle are
`unit_exp`: cos and sin written into one complex array.

Conventions
-----------
The su(2) basis fixed throughout is

    E1 = [[0, 1], [-1, 0]],  E2 = [[0,-i], [-i, 0]],  E3 = [[i, 0], [0,-i]],

orthonormal for <Z, W> = Re tr(Z W*) / 2.  Writing g = q0 I + q1 E1 +
q2 E2 + q3 E3 (unit quaternion q), the adjoint action of g on the
coordinates (x1, x2, x3) is the *transpose* of the standard quaternion
rotation matrix, so the x3-rotation by angle t, exp(t J3), has first row
(cos t, sin t, 0).  The covering map `su2_to_so3` and the lift
`so3_lift` (Shepperd's method in matrix form: 4 q q^T is one constant
linear map of R) are inverse to each other up to center.  The lift
carries no sign rule; the canonical lift, whose first quaternion entry
of nearly largest magnitude (within LEAD_TIE) is positive, is the
closed-form sign of `dynamics.u2_product`.  On so(3), Ad_g rotates the
coordinates: g Z g^T has coordinates g a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TagMismatchError
from .rng import as_generator

TORUS = "TORUS"
SU2 = "SU2"
SO3 = "SO3"
U2 = "U2"

# su(2) basis
E1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
E2 = np.array([[0.0, -1.0j], [-1.0j, 0.0]], dtype=complex)
E3 = np.array([[1.0j, 0.0], [0.0, -1.0j]], dtype=complex)

# so(3) basis, orthonormal for <Z, W> = tr(Z W^T) / 2; J_i generates the
# one-parameter group whose adjoint image under the cover is exp(2t J_i).
J1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
J2 = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
J3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

RENORM_TRIGGER = 1e-13
# quaternion entries this close to the largest magnitude tie for the lead
# of the canonical lift's sign, far above the lift's round-off
LEAD_TIE = 2.0 ** -48


@dataclass(frozen=True)
class GroupSpec:
    """Which group an element lives in; torus carries its dimension."""

    tag: str
    torus_dim: int = 0

    def __post_init__(self):
        if self.tag not in (TORUS, SU2, SO3, U2):
            raise ConfigError(f"unknown group tag {self.tag!r}")
        if self.tag == TORUS and self.torus_dim < 1:
            raise ConfigError("torus group needs torus_dim >= 1")
        if self.tag != TORUS and self.torus_dim != 0:
            raise ConfigError("torus_dim only meaningful for TORUS")

    @property
    def name(self) -> str:
        return f"T^{self.torus_dim}" if self.tag == TORUS else self.tag


SU2_GROUP = GroupSpec(SU2)
SO3_GROUP = GroupSpec(SO3)
U2_GROUP = GroupSpec(U2)


def torus_group(dim: int = 1) -> GroupSpec:
    return GroupSpec(TORUS, dim)


@dataclass
class GroupElement:
    group: GroupSpec
    payload: np.ndarray

    @property
    def batch_shape(self):
        if self.group.tag in (SO3, U2):
            return self.payload.shape[:-2]
        return self.payload.shape[:-1]


@dataclass
class AlgebraElement:
    group: GroupSpec
    payload: np.ndarray

    @property
    def batch_shape(self):
        if self.group.tag == TORUS:
            return self.payload.shape[:-1]
        return self.payload.shape[:-2]


def _same_group(a, b):
    if a.group != b.group:
        raise TagMismatchError(f"{a.group.name} vs {b.group.name}")


# ---------------------------------------------------------------------------
# constructors and payload conversions
# ---------------------------------------------------------------------------

def identity(group: GroupSpec, batch_shape=()) -> GroupElement:
    tag = group.tag
    if tag == TORUS:
        p = np.ones(batch_shape + (group.torus_dim,), dtype=complex)
    elif tag == SU2:
        p = np.zeros(batch_shape + (2,), dtype=complex)
        p[..., 0] = 1.0
    elif tag == SO3:
        p = np.broadcast_to(np.eye(3), batch_shape + (3, 3)).copy()
    else:
        p = np.broadcast_to(np.eye(2, dtype=complex), batch_shape + (2, 2)).copy()
    return GroupElement(group, p)


def su2_matrix(payload: np.ndarray) -> np.ndarray:
    """(..., 2) pair -> (..., 2, 2) unitary matrix."""
    z1, z2 = payload[..., 0], payload[..., 1]
    m = np.empty(payload.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = z1
    m[..., 0, 1] = z2
    m[..., 1, 0] = -np.conj(z2)
    m[..., 1, 1] = np.conj(z1)
    return m


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def _broadcast(s: tuple, t: tuple) -> tuple:
    # np.broadcast_shapes costs more than a small batch's products
    return s if s == t else np.broadcast_shapes(s, t)


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 payloads, written out; broadcasts as @ does."""
    p = np.empty(_broadcast(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in (0, 1):
        for j in (0, 1):
            out = p[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=out)
            out += a[..., i, 1] * b[..., 1, j]
    return p


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _same_group(a, b)
    tag = a.group.tag
    if tag == TORUS:
        p = a.payload * b.payload
    elif tag == SU2:
        a1, a2 = a.payload[..., 0], a.payload[..., 1]
        b1, b2 = b.payload[..., 0], b.payload[..., 1]
        p = np.empty(_broadcast(a1.shape, b1.shape) + (2,), dtype=complex)
        np.subtract(a1 * b1, a2 * np.conj(b2), out=p[..., 0])
        np.add(a1 * b2, a2 * np.conj(b1), out=p[..., 1])
    elif tag == SO3:
        p = a.payload @ b.payload
    else:
        p = _mul2(a.payload, b.payload)
    return GroupElement(a.group, p)


def group_inv(a: GroupElement) -> GroupElement:
    tag = a.group.tag
    if tag == TORUS:
        p = np.conj(a.payload)
    elif tag == SU2:
        p = np.empty(a.payload.shape, dtype=complex)
        np.conj(a.payload[..., 0], out=p[..., 0])
        np.negative(a.payload[..., 1], out=p[..., 1])
    elif tag == SO3:
        p = np.swapaxes(a.payload, -1, -2)
    else:
        p = np.conj(np.swapaxes(a.payload, -1, -2))
    return GroupElement(a.group, p)


def element_defect(g: GroupElement) -> float:
    """Max deviation from the unitarity/orthogonality constraints."""
    tag = g.group.tag
    p = g.payload
    if tag == TORUS:
        return float(np.max(np.abs(np.abs(p) - 1.0), initial=0.0))
    if tag == SU2:
        n = np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2
        return float(np.max(np.abs(n - 1.0), initial=0.0))
    adj = np.swapaxes(np.conj(p), -1, -2)
    gram = _mul2(adj, p) if tag == U2 else adj @ p
    eye = np.eye(p.shape[-1])
    dev = float(np.max(np.abs(gram - eye), initial=0.0))
    if tag == SO3:
        dev = max(dev, float(np.max(np.abs(np.imag(p)), initial=0.0)))
        dev = max(dev, float(np.max(np.abs(np.linalg.det(p) - 1.0), initial=0.0)))
    return dev


def renormalize(g: GroupElement) -> GroupElement:
    """Project back onto the group (phases / unit sphere / polar factor)."""
    tag = g.group.tag
    p = g.payload
    if tag == TORUS:
        return GroupElement(g.group, p / np.abs(p))
    if tag == SU2:
        n = np.sqrt(np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2)
        return GroupElement(g.group, p / n[..., None])
    u, _, vh = np.linalg.svd(p)
    q = u @ vh
    if tag == SO3:
        q = np.real(q)
        # flip the last singular direction if a reflection slipped in
        det = np.linalg.det(q)
        bad = det < 0
        if np.any(bad):
            u2 = np.array(u)
            u2[bad, ..., -1] *= -1.0
            q = np.where(bad[..., None, None], np.real(u2 @ vh), q)
    return GroupElement(g.group, q)


def maybe_renormalize(g: GroupElement) -> GroupElement:
    """Renormalize only when round-off drift passed the trigger."""
    if element_defect(g) > RENORM_TRIGGER:
        return renormalize(g)
    return g


# ---------------------------------------------------------------------------
# Lie algebra: inner product, adjoint action, exponential
# ---------------------------------------------------------------------------

def ad(g: GroupElement, Z: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad_g Z = g Z g^{-1}; an SO(3) Z is read through its
    coordinates, so it must be skew-symmetric."""
    _same_group(g, Z)
    tag = g.group.tag
    if tag == TORUS:
        return AlgebraElement(Z.group, np.array(Z.payload))
    if tag == SU2:
        # g Z g* written out for any complex 2x2 Z; batched @ is faster below ~30
        z1, z2 = g.payload[..., 0], g.payload[..., 1]
        w1, w2 = np.conj(z1), np.conj(z2)
        Zp = Z.payload
        a, b, c, d = Zp[..., 0, 0], Zp[..., 0, 1], Zp[..., 1, 0], Zp[..., 1, 1]
        p00, p01 = z1 * a + z2 * c, z1 * b + z2 * d
        p10, p11 = w1 * c - w2 * a, w1 * d - w2 * b
        p = np.empty(_broadcast(z1.shape, a.shape) + (2, 2), dtype=complex)
        p[..., 0, 0], p[..., 0, 1] = p00 * w1 + p01 * w2, p01 * z1 - p00 * z2
        p[..., 1, 0], p[..., 1, 1] = p10 * w1 + p11 * w2, p11 * z1 - p10 * z2
    elif tag == SO3:
        # g Z g^T is the so(3) element of g a, a the coordinates of Z
        p = so3_alg_from_components(np.einsum("...ij,...j", g.payload,
                                              so3_alg_components(Z.payload)))
    else:
        p = _mul2(_mul2(g.payload, Z.payload), np.conj(np.swapaxes(g.payload, -1, -2)))
    return AlgebraElement(Z.group, p)


def algebra_inner(Z: AlgebraElement, W: AlgebraElement) -> np.ndarray | float:
    """Ad-invariant inner product used for all norms.

    Torus: Euclidean product of the imaginary parts.  Matrix groups:
    Re tr(Z W*) / 2, which makes the bases above orthonormal.
    """
    _same_group(Z, W)
    if Z.group.tag == TORUS:
        val = np.sum(np.imag(Z.payload) * np.imag(W.payload), axis=-1)
    else:
        prod = Z.payload * np.conj(W.payload)
        val = 0.5 * np.real(np.sum(prod, axis=(-1, -2)))
    return val if np.ndim(val) else float(val)


def algebra_norm(Z: AlgebraElement) -> np.ndarray | float:
    val = np.sqrt(np.maximum(algebra_inner(Z, Z), 0.0))
    return val if np.ndim(val) else float(val)


def _sinc(x):
    return np.sinc(x / np.pi)


def exp_alg(Z: AlgebraElement) -> GroupElement:
    """Group exponential, closed form per group."""
    tag = Z.group.tag
    p = Z.payload
    if tag == TORUS:
        return GroupElement(Z.group, np.exp(p))
    if tag == SU2:
        # Z^2 = -theta^2 I with theta = |coordinates|
        theta = np.sqrt(np.maximum(np.real(p[..., 0, 0] * p[..., 1, 1]
                                           - p[..., 0, 1] * p[..., 1, 0]), 0.0))
        c, s = np.cos(theta), _sinc(theta)
        z1 = c + s * p[..., 0, 0]
        z2 = s * p[..., 0, 1]
        return GroupElement(Z.group, np.stack([z1, z2], axis=-1))
    if tag == SO3:
        theta = np.sqrt(0.5 * np.sum(p * p, axis=(-1, -2)))
        a = _sinc(theta)
        b = 0.5 * _sinc(0.5 * theta) ** 2  # (1 - cos)/theta^2
        eye = np.broadcast_to(np.eye(3), p.shape)
        r = eye + a[..., None, None] * p + b[..., None, None] * (p @ p)
        return GroupElement(Z.group, r)
    # U2: Z = iH with H Hermitian; diagonalize H
    h = -1j * p
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * w)
    u = (v * phases[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return GroupElement(Z.group, u)


# ---------------------------------------------------------------------------
# component helpers for su(2) / so(3)
# ---------------------------------------------------------------------------

def su2_alg_components(Z: np.ndarray) -> np.ndarray:
    """Coordinates (x1, x2, x3) in the basis (E1, E2, E3), shape (..., 3)."""
    x1 = np.real(Z[..., 0, 1])
    x2 = -np.imag(Z[..., 0, 1])
    x3 = np.imag(Z[..., 0, 0])
    return np.stack([x1, x2, x3], axis=-1)


def su2_alg_from_components(x: np.ndarray) -> np.ndarray:
    Z = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    Z[..., 0, 0] = 1j * x[..., 2]
    Z[..., 1, 1] = -1j * x[..., 2]
    Z[..., 0, 1] = x[..., 0] - 1j * x[..., 1]
    Z[..., 1, 0] = -x[..., 0] - 1j * x[..., 1]
    return Z


def so3_alg_components(S: np.ndarray) -> np.ndarray:
    """Coordinates (a1, a2, a3) in the basis (J1, J2, J3)."""
    return np.stack([S[..., 1, 2], -S[..., 0, 2], S[..., 0, 1]], axis=-1)


def so3_alg_from_components(a: np.ndarray) -> np.ndarray:
    S = np.zeros(a.shape[:-1] + (3, 3))
    S[..., 1, 2] = a[..., 0]
    S[..., 2, 1] = -a[..., 0]
    S[..., 0, 2] = -a[..., 1]
    S[..., 2, 0] = a[..., 1]
    S[..., 0, 1] = a[..., 2]
    S[..., 1, 0] = -a[..., 2]
    return S


# ---------------------------------------------------------------------------
# SU(2) <-> SO(3) covering map
# ---------------------------------------------------------------------------

def _quaternion(payload: np.ndarray) -> np.ndarray:
    """(q0, q1, q2, q3) with g = q0 I + q1 E1 + q2 E2 + q3 E3."""
    z1, z2 = payload[..., 0], payload[..., 1]
    return np.stack([np.real(z1), np.real(z2), -np.imag(z2), np.imag(z1)], axis=-1)


def _from_quaternion(q: np.ndarray) -> np.ndarray:
    z1 = q[..., 0] + 1j * q[..., 3]
    z2 = q[..., 1] - 1j * q[..., 2]
    return np.stack([z1, z2], axis=-1)


def su2_to_so3(g: GroupElement) -> GroupElement:
    """Covering map: the matrix of Ad_g in the basis (E1, E2, E3)."""
    if g.group.tag != SU2:
        raise TagMismatchError("su2_to_so3 expects an SU2 element")
    q = _quaternion(g.payload)
    q0, q1, q2, q3 = (q[..., i] for i in range(4))
    r = np.empty(q.shape[:-1] + (3, 3))
    # transpose of the standard quaternion rotation matrix
    r[..., 0, 0] = 1 - 2 * (q2 * q2 + q3 * q3)
    r[..., 1, 0] = 2 * (q1 * q2 - q0 * q3)
    r[..., 2, 0] = 2 * (q1 * q3 + q0 * q2)
    r[..., 0, 1] = 2 * (q1 * q2 + q0 * q3)
    r[..., 1, 1] = 1 - 2 * (q1 * q1 + q3 * q3)
    r[..., 2, 1] = 2 * (q2 * q3 - q0 * q1)
    r[..., 0, 2] = 2 * (q1 * q3 - q0 * q2)
    r[..., 1, 2] = 2 * (q2 * q3 + q0 * q1)
    r[..., 2, 2] = 1 - 2 * (q1 * q1 + q2 * q2)
    return GroupElement(SO3_GROUP, r)


def _shepperd_map() -> np.ndarray:
    """The linear map R.reshape(9) -> K - I, K = 4 q q^T, for the unit
    quaternion q whose `su2_to_so3` image is R."""
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


def _shepperd(R: np.ndarray) -> np.ndarray:
    """A unit quaternion +-q over each rotation payload R by Shepperd's
    method in matrix form: K = 4 q q^T is linear in R, and its row with the
    largest diagonal entry, normalized, is +-q with the best-conditioned
    division."""
    batch = R.shape[:-2]
    # einsum, not @: a BLAS call here raised u2-product's peak RSS
    K = np.einsum("...i,ij->...j", R.reshape(batch + (9,)), _SHEPPERD)
    K = K.reshape(batch + (4, 4)) + np.eye(4)
    pick = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, pick[..., None, None], axis=-2)[..., 0, :]
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def so3_lift(R: np.ndarray) -> np.ndarray:
    """One of the two SU(2) payloads over each rotation payload R, with no
    sign rule: the canonical lift of the module docstring up to sign.  Even
    SU(2) labels, which the SO(3) irreps read, cannot tell the two apart."""
    return _from_quaternion(_shepperd(R))


def d_cover_inv(S: AlgebraElement) -> AlgebraElement:
    """Inverse differential so(3) -> su(2): J_i -> E_i / 2."""
    if S.group.tag != SO3:
        raise TagMismatchError("d_cover_inv expects an so(3) element")
    return AlgebraElement(SU2_GROUP, su2_alg_from_components(0.5 * so3_alg_components(S.payload)))


# ---------------------------------------------------------------------------
# center projection P_Ad
# ---------------------------------------------------------------------------

def p_ad(Z: AlgebraElement) -> AlgebraElement:
    """Orthogonal projection onto the Ad-invariant subalgebra.

    Torus: identity.  SU2 / SO3: zero (trivial center).  U2: the trace
    part (tr Z / 2) I.
    """
    tag = Z.group.tag
    if tag == TORUS:
        return AlgebraElement(Z.group, np.array(Z.payload))
    if tag in (SU2, SO3):
        return AlgebraElement(Z.group, np.zeros_like(Z.payload))
    tr = (Z.payload[..., 0, 0] + Z.payload[..., 1, 1]) / 2.0
    eye = np.eye(2, dtype=complex)
    return AlgebraElement(Z.group, tr[..., None, None] * eye)


def p_ad_monte_carlo(Z: AlgebraElement, n_samples: int, rng) -> AlgebraElement:
    """Haar average of Ad_g Z over n_samples draws."""
    g = haar_sample(Z.group, n_samples, rng)
    moved = ad(g, AlgebraElement(Z.group, Z.payload[None] if Z.batch_shape == ()
                                 else Z.payload))
    return AlgebraElement(Z.group, np.mean(moved.payload, axis=0))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_sample(group: GroupSpec, n: int, rng) -> GroupElement:
    """n independent Haar draws, batched along the first axis."""
    gen = as_generator(rng)
    tag = group.tag
    if tag == TORUS:
        ph = gen.random((n, group.torus_dim))
        return GroupElement(group, np.exp(2j * np.pi * ph))
    if tag == SU2:
        v = gen.standard_normal((n, 4))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return GroupElement(group, _from_quaternion(v))
    if tag == SO3:
        return su2_to_so3(haar_sample(SU2_GROUP, n, gen))
    # U2 = (circle x SU2) pushed through (z, g) -> z g
    z = np.exp(2j * np.pi * gen.random(n))
    g = haar_sample(SU2_GROUP, n, gen)
    return GroupElement(group, z[:, None, None] * su2_matrix(g.payload))


# ---------------------------------------------------------------------------
# the unit circle
# ---------------------------------------------------------------------------

def unit_exp(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta: cos and sin in one complex array, with glibc
    the bits of np.exp(1j * theta) at about two thirds of its cost."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out

