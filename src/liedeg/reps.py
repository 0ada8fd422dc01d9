"""Finite-dimensional unitary representations of the four groups.

Labels
------
TORUS(d)  integer frequency vector q, dimension 1 (characters)
SU2       integer l >= 0, dimension l+1 (action on binary forms of
          degree l in two variables)
SO3       integer l >= 0, dimension 2l+1 (the SU(2) label 2l through the
          double cover; its rows and columns j = -l..l)
U2        pair (l, m), dimension l+1: Sym^l(u) times det(u)^{m-l}, which
          is w^{2m-l} pi_l(g) for the payload (g, w), u = w g

Characters and U(2)'s centre factor are integer powers of unit complex
numbers, taken by square-and-multiply: |e|.bit_length() - 1 squarings
(at most 30 for a character, 32 for w^{2m-l}) and conj for e < 0.
Round-off is about |e| eps, about 1e-6 at the largest labels.

Every representation is unitary: the monomial basis is normalized, as
the paper's results for unitary irreducible pi require.  The paper's
coefficients against the *unnormalized* monomials p_j = w1^j w2^{l-j}
are the unitary ones times ||p_j|| ||p_k|| = sqrt(j!(l-j)!) sqrt(k!(l-k)!);
`paper_scale` holds that factor.  The scaled coefficients are natural
Peter-Weyl coefficients for that basis but are not multiplicative.

The matrix is assembled from the expansion

    p_k((w1,w2) u) = sum_j c_jk(u) p_j,   u = [[u00, u01], [u10, u11]],

whose coefficients are an explicit double sum in u00, u11, u01, u10
(z1, conj(z1), z2, -conj(z2) for the SU(2) pair that the SU(2), SO(3)
and U(2) payloads carry alike): C(l+3, 3) term products, each
landing with a binomial coefficient in one slot of c.  `_terms` builds
them points-last, one outer product per column, and a fixed scatter
matrix per l takes them to c: `rep_eval_payload` scatters per point,
while `rep_mean_payload` first reduces the terms against quadrature
weights (one GEMM) and scatters only the sums, so a grid mean of pi
never forms a per-point matrix.  U(2) multiplies c(g) by the centre
factor (w / |w|)^(2m-l) (a mean folds it into the weights); normalizing
keeps the payload's modulus round-off out of the power.  The payload's
sign cancels: pi_l(-g) = (-1)^l pi_l(g) and (-w)^(2m-l) = (-1)^l w^(2m-l)
exactly.  SO(3) = SU(2)/{+-1} has the even SU(2) labels as its irreps:
label l evaluates

    pi_l(g) = C pi_2l(g) C^-1,   C = diag(i^j), j = -l..l,

on the SU(2) payload g that an SO(3) element carries: every term has
even degree 2l, so either sign of g gives the same bits; the
x3-rotation with angle t maps to diag(e^{ijt}).

Differentials are exact: su(2) acts on the binary forms as derivations,
so d pi(Z) is tridiagonal in the c_jk basis, and so(3) reuses it at
label 2l on its su(2) payload (see `rep_differential`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics as D
from . import groups as G
from .errors import ConfigError, TagMismatchError

L_CAP = 12  # largest label; SO(3) label l reads the SU(2) tables at 2l <= 24
# label entries stay below this size: square-and-multiply powers (at most 32
# squarings, for w^(2m-l) with |2m - l| up to 2**32 + 10) round off by about
# |e| eps, so pi stays unitary to about 1e-6, while at 2**62 its modulus
# grows to 1e157
LABEL_BOUND = 2 ** 31

_ENTRIES = "rep label entries must be integers below 2**31 in size"
_LABEL_FORMS = {G.SU2: f"SU(2) rep label must be [l] with 0 <= l <= {L_CAP}",
                G.SO3: f"SO(3) rep label must be [l] with 0 <= l <= {L_CAP}",
                G.U2: f"U(2) rep label must be [l, m] with 0 <= l <= {L_CAP}"}


@dataclass(frozen=True)
class Representation:
    """A unitary irreducible representation of `group`.  This is the one
    label check: entries must be integers below LABEL_BOUND in size, and
    the label is stored as a tuple of ints."""
    group: G.GroupSpec
    label: tuple[int, ...]

    def __post_init__(self):
        tag, d = self.group.tag, self.group.torus_dim
        ints = D._integers(self.label, _ENTRIES)
        label = ints.tolist()
        if tag == G.TORUS:
            form = f"torus rep label needs {d} windings"
            ok = ints.ndim == 1 and len(label) == d
        else:
            form = _LABEL_FORMS[tag]
            ok = (ints.ndim == 1 and len(label) == 1 + (tag == G.U2)
                  and 0 <= label[0] <= L_CAP)
        if not ok:
            raise ConfigError(f"{form}, got {label}")
        if any(abs(v) >= LABEL_BOUND for v in label):
            raise ConfigError(f"{_ENTRIES}, got {label}")
        object.__setattr__(self, "label", tuple(label))

    @property
    def dim(self) -> int:
        tag = self.group.tag
        if tag == G.TORUS:
            return 1
        if tag == G.SO3:
            return 2 * self.label[0] + 1
        return self.label[0] + 1

    @property
    def name(self) -> str:
        tag = self.group.tag
        if tag == G.TORUS:
            return f"torus q={list(self.label)}"
        if tag == G.U2:
            return f"u2 (l,m)=({self.label[0]},{self.label[1]})"
        return f"{tag.lower()} l={self.label[0]}"


def torus_rep(q) -> Representation:
    q = tuple(q) if np.ndim(q) else (q,)
    return Representation(G.torus_group(len(q)), q)


def su2_rep(l: int) -> Representation:
    return Representation(G.SU2_GROUP, (l,))


def so3_rep(l: int) -> Representation:
    return Representation(G.SO3_GROUP, (l,))


def u2_rep(l: int, m: int) -> Representation:
    return Representation(G.U2_GROUP, (l, m))


def rep_weight(rep: Representation) -> int:
    """Frequency multiplier: matrix entries of pi(phi) have per-dimension
    trig degree <= rep_weight * (entry degree of phi itself)."""
    tag = rep.group.tag
    if tag == G.TORUS:
        return int(sum(abs(v) for v in rep.label))
    if tag in (G.SU2, G.SO3):
        return rep.label[0]
    l, m = rep.label
    return l + abs(2 * m - l)


# ---------------------------------------------------------------------------
# SU(2): expansion-coefficient tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _su2_table(l: int):
    """The (terms, (l+1)^2) scatter taking term (k, m, n) of `_terms`, times
    its binomial coefficient C(k, m) C(l-k, n), to the flat slot
    j (l+1) + k of c_jk, j = m + n; and the norms."""
    rows = [(k, m, n) for k in range(l + 1) for m in range(k + 1) for n in range(l - k + 1)]
    scatter = np.zeros((len(rows), (l + 1) ** 2))
    for t, (k, m, n) in enumerate(rows):
        scatter[t, (m + n) * (l + 1) + k] = math.comb(k, m) * math.comb(l - k, n)
    norms = np.array([math.sqrt(math.factorial(j) * math.factorial(l - j))
                      for j in range(l + 1)])
    return scatter, norms


def _powers(z: np.ndarray, maxp: int) -> np.ndarray:
    """z^0..z^maxp of a flat z, exponent first: shape (maxp + 1, n)."""
    out = np.empty((maxp + 1,) + z.shape, dtype=complex)
    out[0] = 1.0
    for p in range(1, maxp + 1):
        np.multiply(out[p - 1], z, out=out[p])
    return out


def _terms(l: int, u00, u11, u01, u10) -> np.ndarray:
    """The expansion's term products at label l on flat entry arrays of n
    points, points last: shape (terms, n), ordered by column k, then m,
    then n, so that `terms.T @ scatter` holds the raw coefficients c_jk(u),
    which are multiplicative in u.

    Term (k, m, n) is a_k[m] b_k[n], a_k[m] = u00^m u10^(k-m) and
    b_k[n] = u01^n u11^(l-k-n).  One pass writes every column's a_k from
    the powers of u00 and u10, and a second multiplies in b_k from those
    of u01 and u11, so only two power tables exist at a time and no
    gathered copy of the table."""
    n = len(u00)
    out = np.empty((math.comb(l + 3, 3), n), dtype=complex)
    ends = np.cumsum([(k + 1) * (l - k + 1) for k in range(l)])
    cols = [c.reshape(k + 1, l - k + 1, n) for k, c in enumerate(np.split(out, ends))]
    p, q = _powers(u00, l), _powers(u10, l)
    for k, col in enumerate(cols):
        col[...] = (p[:k + 1] * q[k::-1])[:, None]  # a_k
    del p, q
    p, q = _powers(u01, l), _powers(u11, l)
    for k, col in enumerate(cols):
        col *= (p[:l - k + 1] * q[l - k::-1])[None]  # b_k
    return out


def su2_norms(l: int) -> np.ndarray:
    """Norms ||p_j|| = sqrt(j!(l-j)!) of the monomial basis."""
    return _su2_table(l)[1]


@lru_cache(maxsize=None)
def _scale(rep: Representation) -> np.ndarray:
    """Entrywise factor n_j / n_k taking c_jk at the SU(2) label behind rep
    to rep's unitary matrix; SO(3) label l reads label 2l as
    C (n_j / n_k) C^-1 = i^(j-k) n_j / n_k, j, k = -l..l."""
    so3 = rep.group.tag == G.SO3
    l = rep.label[0]
    n = su2_norms(2 * l if so3 else l)
    out = n[:, None] / n[None, :]
    if so3:
        jj = np.arange(-l, l + 1)
        out = np.array([1, 1j, -1, -1j])[(jj[:, None] - jj[None, :]) % 4] * out
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _unit_power(z: np.ndarray, e: int) -> np.ndarray:
    """z**e, as a new array, for unit-modulus complex z and an integer e:
    square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3) takes
    |e|.bit_length() - 1 squarings, and conj inverts for e < 0.  Round-off
    is about |e| eps."""
    n, out = abs(e), None
    while n:
        if n & 1:
            out = z if out is None else out * z
        n >>= 1
        if n:
            z = z * z
    if out is None:
        return np.ones(z.shape, dtype=complex)
    if e < 0:
        return np.conj(out)
    return out.copy() if e == 1 else out


def _characters(rep: Representation, payload: np.ndarray) -> np.ndarray:
    """The torus character of rep on raw payloads, batched."""
    val = None
    for j, e in enumerate(rep.label):
        if e:
            chi = _unit_power(payload[..., j], e)
            val = chi if val is None else val * chi
    return np.ones(payload.shape[:-1], dtype=complex) if val is None else val


def _expansion(rep: Representation, payload: np.ndarray):
    """(SU(2) label, term products of the SU(2) pair, U(2)'s centre factor
    w^(2m-l) or None) of rep on payloads flattened to n points.  SO(3)
    reads label 2l: the terms have even degree 2l, so the payload's sign
    cancels exactly."""
    tag, l = rep.group.tag, rep.label[0]
    z = payload.reshape(-1, payload.shape[-1])
    e = 2 * rep.label[1] - l if tag == G.U2 else 0
    centre = _unit_power(z[:, 2] / np.abs(z[:, 2]), e) if e else None
    if tag == G.SO3:
        l *= 2
    z1, z2 = z[:, 0], z[:, 1]
    return l, _terms(l, z1, np.conj(z1), z2, -np.conj(z2)), centre


def rep_eval_payload(rep: Representation, payload: np.ndarray) -> np.ndarray:
    """Representation matrix on raw payloads, batched over leading axes:
    the term products scattered point by point."""
    tag = rep.group.tag
    if tag == G.TORUS:
        return _characters(rep, payload)[..., None, None]
    l, terms, centre = _expansion(rep, payload)
    out = (terms.T @ _su2_table(l)[0]) * _scale(rep).reshape(-1)
    if centre is not None:
        out *= centre[:, None]
    return out.reshape(payload.shape[:-1] + (rep.dim, rep.dim))


def rep_mean_payload(rep: Representation, payload: np.ndarray, weights: np.ndarray,
                     split: int) -> np.ndarray:
    """Weighted sums of pi over n points, shape (2, r, d, d): entry [0, i]
    is sum_{x < split} w_i(x) pi(g(x)) and entry [1, i] the sum over all n
    points, for payloads of n points and the (r, n) complex `weights`.

    The term products are reduced against the weights (one GEMM per part)
    before anything is scattered: no per-point matrix exists.  U(2)'s
    centre factor folds into the weights, and the torus is weights @
    characters.
    """
    torus = rep.group.tag == G.TORUS
    l, vals, centre = (0, _characters(rep, payload), None) if torus else _expansion(rep, payload)
    if centre is not None:
        weights = weights * centre
    head = vals[..., :split] @ weights[:, :split].T
    sums = np.stack((head, head + vals[..., split:] @ weights[:, split:].T))
    if torus:
        return sums[..., None, None]
    out = (np.swapaxes(sums, 1, 2) @ _su2_table(l)[0]) * _scale(rep).reshape(-1)
    return out.reshape(sums.shape[0], weights.shape[0], rep.dim, rep.dim)


def rep_eval(rep: Representation, g: G.GroupElement) -> np.ndarray:
    if g.group != rep.group:
        raise TagMismatchError(f"element in {g.group.name}, rep on {rep.group.name}")
    return rep_eval_payload(rep, g.payload)


def paper_scale(rep: Representation) -> np.ndarray:
    """Entrywise factor from rep's unitary coefficients to the paper's
    unnormalized-basis ones: n_j n_k for SU(2)/U(2), ones for the torus
    and SO(3), where the two agree.  The paper's pi is
    rep_eval_payload(rep, p) * paper_scale(rep) and its dpi is
    rep_differential(rep, Z) * paper_scale(rep)."""
    if rep.group.tag in (G.SU2, G.U2):
        n = su2_norms(rep.label[0])
        return n[:, None] * n[None, :]
    return np.ones((rep.dim, rep.dim))


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

def rep_differential(rep: Representation, Z: G.AlgebraElement) -> np.ndarray:
    """d pi (Z), batched, one exact formula per group.

      torus   sum_i q_i Z_i
      su2/u2  Z acts on the binary forms p_k = w1^k w2^(l-k) as a
              derivation, so in the raw c_jk basis d pi(Z) is tridiagonal:
                D_kk      = i x3 (2k - l)  (+ i t (2m - l) for U(2))
                D_(k-1,k) = k Z10,  D_(k+1,k) = (l - k) Z01,
              Z10 = -x1 - i x2, Z01 = x1 - i x2, where (x1, x2, x3) are
              the coordinates of the traceless part against E1..E3 and
              t = Im tr Z / 2; it is rescaled by n_j / n_k as pi is
      so3     the su2 formula at label 2l on the payload, the su(2)
              preimage with coordinates (a1, a2, a3) / 2, rescaled as pi is
    """
    if Z.group != rep.group:
        raise TagMismatchError("algebra element and rep on different groups")
    p = Z.payload
    tag = rep.group.tag
    if tag == G.TORUS:
        # the real dot goes straight into the imaginary part, with no temporary
        out = np.zeros(p.shape[:-1] + (1, 1), dtype=complex)
        np.matmul(np.imag(p), np.array(rep.label), out=out.imag[..., 0, 0])
        return out
    l = 2 * rep.label[0] if tag == G.SO3 else rep.label[0]
    x = G.su2_alg_components(p)
    k = np.arange(l + 1)
    if tag == G.U2:
        t = np.imag(np.trace(p, axis1=-2, axis2=-1))[..., None] / 2.0
        diag = (x[..., 2:3] - t) * (2 * k - l) + t * (2 * rep.label[1] - l)
    else:
        diag = x[..., 2:3] * (2 * k - l)
    out = np.zeros(x.shape[:-1] + (l + 1, l + 1), dtype=complex)
    out[..., k, k] = 1j * diag
    out[..., k[:-1], k[1:]] = k[1:] * (-x[..., 0:1] - 1j * x[..., 1:2])
    out[..., k[1:], k[:-1]] = (l - k[:-1]) * (x[..., 0:1] - 1j * x[..., 1:2])
    out *= _scale(rep)  # in place: no second copy of the batch
    return out


def multiplication_matrix(rep: Representation, Z: G.AlgebraElement) -> np.ndarray:
    """The fiber multiplication matrix i dpi(Z), batched and
    Hermitian-symmetrized against round-off."""
    out = 1j * rep_differential(rep, Z)
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


# ---------------------------------------------------------------------------
# Peter-Weyl checks
# ---------------------------------------------------------------------------

_U2_CIRCLE_NODES = 8  # equispaced circle nodes of the U(2) product rule
_CHUNK_BYTES = 2 ** 26  # largest per-chunk temporary in peter_weyl_check


def su2_euler_nodes(n: int, gamma_period: float = 4 * np.pi
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Haar quadrature nodes/weights on SU(2), (n^3, 2) payload pairs.

    gamma_period = 2 pi gives one preimage of each SO(3) Euler node: the
    cover identifies gamma and gamma + 2 pi.
    """
    alpha = 2 * np.pi * np.arange(n) / n
    gamma = gamma_period * np.arange(n) / n
    u, w = np.polynomial.legendre.leggauss(n)
    hc = np.sqrt((1 + u) / 2)     # cos(beta/2)
    hs = np.sqrt((1 - u) / 2)     # sin(beta/2)
    # (alpha, beta, gamma) on axes 0, 1, 2, broadcast straight into the payload
    ea = np.exp(0.5j * alpha)[:, None, None]
    payload = np.empty((n, n, n, 2), dtype=complex)
    np.multiply(ea * hc[:, None], np.exp(0.5j * gamma), out=payload[..., 0])
    np.multiply(ea * hs[:, None], np.exp(-0.5j * gamma), out=payload[..., 1])
    weights = np.tile(np.repeat(w / 2 / (n * n), n), n)
    return payload.reshape(-1, 2), weights


def _quadrature_nodes(group: G.GroupSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    tag = group.tag
    if tag == G.SU2:
        return su2_euler_nodes(n)
    if tag == G.SO3:
        # Haar on SU(2) pushes forward to Haar on SO(3)
        return su2_euler_nodes(n, 2 * np.pi)
    if tag == G.TORUS:
        d = group.torus_dim
        payload = np.exp(2j * np.pi * D.quadrature_points(D.QuadratureSpec(n), d))
        return payload, np.full(payload.shape[0], 1.0 / n ** d)
    # U2: the SU2 nodes beside each circle node w, as triples (g, w)
    su2_payload, su2_w = su2_euler_nodes(n)
    w = np.exp(2j * np.pi * np.arange(_U2_CIRCLE_NODES) / _U2_CIRCLE_NODES)
    payload = np.concatenate([np.tile(su2_payload, (_U2_CIRCLE_NODES, 1)),
                              np.repeat(w, len(su2_payload))[:, None]], axis=1)
    weights = np.tile(su2_w, _U2_CIRCLE_NODES) / _U2_CIRCLE_NODES
    return payload, weights


def quadrature_bytes(group: G.GroupSpec, n: int) -> int:
    """Payload bytes of the product-rule nodes at n per angle, computed
    before any node exists."""
    count = n ** group.torus_dim if group.tag == G.TORUS else n ** 3
    if group.tag == G.U2:
        count *= _U2_CIRCLE_NODES
    return count * G.identity(group).payload.nbytes


def _term_count(rep: Representation) -> int:
    """Power-table terms per node in one evaluation of rep."""
    tag = rep.group.tag
    if tag == G.TORUS:
        return 1
    l = 2 * rep.label[0] if tag == G.SO3 else rep.label[0]
    return math.comb(l + 3, 3)


def peter_weyl_check(rep: Representation, nodes: int) -> dict:
    """Gram matrix of the matrix elements against Haar measure, by the
    Euler-angle product rule at `nodes` per angle: equispaced x3-angles,
    Gauss-Legendre in cos(beta).

    pi is unitary, so the exact Gram is I / dim.  The rule is exact for
    matrix-element Grams up to l ~ nodes/4, so the returned max absolute
    deviation is pure round-off there.
    """
    d = rep.dim
    payload, weights = _quadrature_nodes(rep.group, nodes)
    gram = np.zeros((d * d, d * d), dtype=complex)
    # complex entries per node in the largest temporary: the term table
    # or the flattened matrices
    chunk = max(1, min(65536, _CHUNK_BYTES // (16 * max(_term_count(rep), d * d))))
    for lo in range(0, payload.shape[0], chunk):
        flat = rep_eval_payload(rep, payload[lo:lo + chunk]).reshape(-1, d * d)
        gram += (flat * weights[lo:lo + chunk, None]).T @ np.conj(flat)
    return {
        "rep": rep.name,
        "dim": d,
        "n_nodes": int(payload.shape[0]),
        "max_abs_deviation": float(np.max(np.abs(gram - np.eye(d * d) / d))),
    }


def haar_batch_bytes(rep: Representation, samples: int) -> int:
    """Bytes of the draws and matrix stacks of `haar_deviations`."""
    return samples * (2 * G.identity(rep.group).payload.nbytes + 3 * 16 * rep.dim ** 2)


def haar_deviations(rep: Representation, samples: int, rng) -> tuple[float, float]:
    """Homomorphism and unitarity deviations on `samples` Haar pairs (g, h):
    max |pi(gh) - pi(g) pi(h)| and max |pi(g) pi(g)^* - I|."""
    pairs = G.haar_sample(rep.group, 2 * samples, rng)
    g = G.GroupElement(rep.group, pairs.payload[:samples])
    h = G.GroupElement(rep.group, pairs.payload[samples:])
    pg = rep_eval(rep, g)
    ph = rep_eval(rep, h)
    pgh = rep_eval(rep, G.group_mul(g, h))
    hom = float(np.max(np.abs(pgh - np.einsum("...ij,...jk->...ik", pg, ph))))
    gram = np.einsum("...ij,...kj->...ik", pg, np.conj(pg))
    return hom, float(np.max(np.abs(gram - np.eye(rep.dim))))
