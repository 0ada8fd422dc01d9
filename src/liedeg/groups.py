"""Compact group backends: torus T^d, SU(2), SO(3,R), U(2).

Element payloads
----------------
TORUS(d)  complex vector of unit-modulus entries, shape (..., d)
SU2       pair (z1, z2) with |z1|^2 + |z2|^2 = 1, shape (..., 2); the
          matrix form is [[z1, z2], [-conj(z2), conj(z1)]]
SO3       the SU2 pair of either lift through the double cover, shape
          (..., 2); p and -p name one rotation
U2        triple (z1, z2, w): the SU2 pair and a unit complex w, shape
          (..., 3), for the unitary w [[z1, z2], [-conj(z2), conj(z1)]];
          (z1, z2, w) and -(z1, z2, w) name one element

Algebra payloads match: purely imaginary vectors for the torus, traceless
skew-Hermitian 2x2 for SU2 and for SO3 (an so(3) element is stored as its
su(2) preimage under the cover), skew-Hermitian 2x2 for U2.  All
operations broadcast over leading batch axes; "one element" and "a grid
of elements" go through the same code path.  The group operations read
the SU2 pair in the first two slots of every non-torus payload, so U2
runs the SU2 arithmetic and carries w alongside.
Points exp(i theta) of the unit circle are `unit_exp`: cos and sin
written into one complex array.

Conventions
-----------
The su(2) basis fixed throughout is

    E1 = [[0, 1], [-1, 0]],  E2 = [[0,-i], [-i, 0]],  E3 = [[i, 0], [0,-i]],

orthonormal for <Z, W> = Re tr(Z W*) / 2.  Writing g = q0 I + q1 E1 +
q2 E2 + q3 E3 (unit quaternion q), the adjoint action of g on the
coordinates (x1, x2, x3) is the *transpose* of the standard quaternion
rotation matrix R(g).  SO(3) = SU(2)/{+-1} is R's image: an SO(3)
element is stored as either g or -g and shares the SU2 group law, Haar
measure and renormalization.  No sign is preferred, since the SO(3)
irreps are even SU(2) labels and Ad is quadratic in g.  The cover's
differential is invertible, so so(3) is stored as its su(2) preimage,
J_i as E_i / 2: the bracket is the commutator, `ad`, `exp_alg` and `p_ad`
are the SU2 ones, and only `algebra_inner`'s factor (2, for unit J_i)
differs.  Ad_g rotates the so(3) coordinates a to R(g) a, and exp(t J3) =
(e^{it/2}, 0) is the x3-rotation by t, R with first row (cos t, sin t,
0).  The canonical lift of a rotation, whose first quaternion entry of
nearly largest magnitude (within LEAD_TIE) is positive, is the
closed-form sign of `dynamics.u2_product`.

U(2) = (SU(2) x U(1))/{+-1} through (g, w) -> w g, and a U2 element is
stored as either preimage, (g, w) or (-g, -w).  Its product is the SU2
product beside w1 w2 and its inverse (g^-1, conj(w)); w cancels from
Ad_{wg} = Ad_g, so `ad` is the SU2 sandwich.  The centre of u(2) is
i R I, and exp(i t I + X) = (exp(X), e^{it}) for traceless X.
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

# so(3) basis as su(2) preimages: J_i rotates about the x_i axis
J1, J2, J3 = E1 / 2, E2 / 2, E3 / 2

# payload slots of the non-torus groups: the SU2 pair, and U2's circle factor w
_WIDTH = {SU2: 2, SO3: 2, U2: 3}

RENORM_TRIGGER = 1e-13
# quaternion entries this close to the largest magnitude tie for the lead
# of the canonical lift's sign, far above round-off
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
    if group.tag == TORUS:
        p = np.ones(batch_shape + (group.torus_dim,), dtype=complex)
    else:
        p = np.zeros(batch_shape + (_WIDTH[group.tag],), dtype=complex)
        p[..., 0] = p[..., 2:] = 1.0
    return GroupElement(group, p)


def algebra_bytes(group: GroupSpec) -> int:
    """Bytes of one algebra payload, known before any payload exists: a
    complex d-vector for the torus, a complex 2x2 otherwise."""
    return 16 * group.torus_dim if group.tag == TORUS else 64


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


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _same_group(a, b)
    tag = a.group.tag
    if tag == TORUS:
        return GroupElement(a.group, a.payload * b.payload)
    a1, a2 = a.payload[..., 0], a.payload[..., 1]
    b1, b2 = b.payload[..., 0], b.payload[..., 1]
    p = np.empty(_broadcast(a1.shape, b1.shape) + (_WIDTH[tag],), dtype=complex)
    np.subtract(a1 * b1, a2 * np.conj(b2), out=p[..., 0])
    np.add(a1 * b2, a2 * np.conj(b1), out=p[..., 1])
    if tag == U2:
        np.multiply(a.payload[..., 2], b.payload[..., 2], out=p[..., 2])
    return GroupElement(a.group, p)


def group_inv(a: GroupElement) -> GroupElement:
    """Every slot conjugated, except that the SU2 pair (z1, z2) inverts to
    (conj(z1), -z2)."""
    p = np.conj(a.payload)
    if a.group.tag != TORUS:
        np.negative(a.payload[..., 1], out=p[..., 1])
    return GroupElement(a.group, p)


def element_defect(g: GroupElement) -> float:
    """Max deviation from the unitarity constraints: |z1|^2 + |z2|^2 = 1 for
    the SU2 pair, |w| = 1 for U2's w and every torus entry."""
    p = g.payload
    if g.group.tag == TORUS:
        return float(np.max(np.abs(np.abs(p) - 1.0), initial=0.0))
    n = np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2
    return float(max(np.max(np.abs(n - 1.0), initial=0.0),
                     np.max(np.abs(np.abs(p[..., 2:]) - 1.0), initial=0.0)))


def renormalize(g: GroupElement) -> GroupElement:
    """Project back onto the group: the unit sphere for the SU2 pair, the
    unit circle for U2's w and every torus entry."""
    p = g.payload
    if g.group.tag == TORUS:
        return GroupElement(g.group, p / np.abs(p))
    n = np.sqrt(np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2)
    out = p / n[..., None]
    out[..., 2:] = p[..., 2:] / np.abs(p[..., 2:])
    return GroupElement(g.group, out)


def maybe_renormalize(g: GroupElement) -> GroupElement:
    """Renormalize only when round-off drift passed the trigger."""
    if element_defect(g) > RENORM_TRIGGER:
        return renormalize(g)
    return g


# ---------------------------------------------------------------------------
# Lie algebra: inner product, adjoint action, exponential
# ---------------------------------------------------------------------------

def ad(g: GroupElement, Z: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad_g Z = g Z g^{-1}: the sandwich of any complex 2x2 Z
    by the SU2 pair g of an SU2, SO3 or U2 payload (U2's w cancels)."""
    _same_group(g, Z)
    if g.group.tag == TORUS:
        return AlgebraElement(Z.group, np.array(Z.payload))
    # g Z g* written out; batched @ is faster below ~30
    z1, z2 = g.payload[..., 0], g.payload[..., 1]
    w1, w2 = np.conj(z1), np.conj(z2)
    Zp = Z.payload
    a, b, c, d = Zp[..., 0, 0], Zp[..., 0, 1], Zp[..., 1, 0], Zp[..., 1, 1]
    p00, p01 = z1 * a + z2 * c, z1 * b + z2 * d
    p10, p11 = w1 * c - w2 * a, w1 * d - w2 * b
    p = np.empty(_broadcast(z1.shape, a.shape) + (2, 2), dtype=complex)
    p[..., 0, 0], p[..., 0, 1] = p00 * w1 + p01 * w2, p01 * z1 - p00 * z2
    p[..., 1, 0], p[..., 1, 1] = p10 * w1 + p11 * w2, p11 * z1 - p10 * z2
    return AlgebraElement(Z.group, p)


def algebra_inner(Z: AlgebraElement, W: AlgebraElement) -> np.ndarray | float:
    """Ad-invariant inner product used for all norms.

    Torus: Euclidean product of the imaginary parts.  SU2 and U2:
    Re tr(Z W*) / 2, SO3: 2 Re tr(Z W*); the bases above are orthonormal.
    """
    _same_group(Z, W)
    if Z.group.tag == TORUS:
        val = np.sum(np.imag(Z.payload) * np.imag(W.payload), axis=-1)
    else:
        prod = Z.payload * np.conj(W.payload)
        val = (2.0 if Z.group.tag == SO3 else 0.5) * np.real(np.sum(prod, axis=(-1, -2)))
    return val if np.ndim(val) else float(val)


def algebra_norm(Z: AlgebraElement) -> np.ndarray | float:
    val = np.sqrt(np.maximum(algebra_inner(Z, Z), 0.0))
    return val if np.ndim(val) else float(val)


def _sinc(x):
    return np.sinc(x / np.pi)


def exp_alg(Z: AlgebraElement) -> GroupElement:
    """Group exponential in closed form: exp(X) = cos(theta) I + sinc(theta) X
    for traceless X, X^2 = -theta^2 I; a U2 payload Z = i t I + X splits
    off its trace part as w = e^{it}."""
    tag = Z.group.tag
    p = Z.payload
    if tag == TORUS:
        return GroupElement(Z.group, np.exp(p))
    a, d = p[..., 0, 0], p[..., 1, 1]
    slots = []
    if tag == U2:
        t = 0.5 * np.imag(a + d)
        a, d, slots = a - 1j * t, d - 1j * t, [unit_exp(t)]
    theta = np.sqrt(np.maximum(np.real(a * d - p[..., 0, 1] * p[..., 1, 0]), 0.0))
    c, s = np.cos(theta), _sinc(theta)
    return GroupElement(Z.group, np.stack([c + s * a, s * p[..., 0, 1]] + slots, axis=-1))


# ---------------------------------------------------------------------------
# coordinates of su(2) / so(3) payloads
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


def so3_alg_from_components(a: np.ndarray) -> np.ndarray:
    """The so(3) payload a1 J1 + a2 J2 + a3 J3."""
    return su2_alg_from_components(a / 2)


def so3_alg_matrix(Z: np.ndarray) -> np.ndarray:
    """The real skew-symmetric 3x3 of so(3) payloads, for the JSON edge:
    J1, J2, J3 generate the rotations about x1, x2, x3.  `+ 0.0` and
    `0.0 -` write a zero coordinate as 0.0 whatever the sign it carries."""
    a = np.moveaxis(2.0 * su2_alg_components(Z), -1, 0)
    S = np.zeros(a.shape[1:] + (3, 3))
    for (i, j), ak in zip(((1, 2), (2, 0), (0, 1)), a):
        S[..., i, j], S[..., j, i] = ak + 0.0, 0.0 - ak
    return S


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
    if group.tag == TORUS:
        ph = gen.random((n, group.torus_dim))
        return GroupElement(group, np.exp(2j * np.pi * ph))
    # U2's uniform w first (none for SU2 and SO3), then a uniform unit
    # quaternion q0 + q1 E1 + q2 E2 + q3 E3: Haar on SU2 pushes forward to
    # Haar on SO3, and Haar on SU2 x U(1) to Haar on U2
    p = np.empty((n, _WIDTH[group.tag]), dtype=complex)
    p[:, 2:] = np.exp(2j * np.pi * gen.random((n, p.shape[1] - 2)))
    v = gen.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    p[:, 0], p[:, 1] = v[:, 0] + 1j * v[:, 3], v[:, 1] - 1j * v[:, 2]
    return GroupElement(group, p)


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

