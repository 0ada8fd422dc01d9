"""Checks and conversions that only the tests need.

Tests import this module as `helpers` (pytest puts the tests directory on
the import path).
"""

from __future__ import annotations

import numpy as np

import liedeg.dynamics as D
import liedeg.groups as G
from liedeg.errors import ConfigError

# unitarity / orthogonality tolerances per group
ELEMENT_TOL = {G.TORUS: 1e-12, G.SU2: 1e-12, G.SO3: 1e-10, G.U2: 1e-10}


def to_matrix(g: G.GroupElement) -> np.ndarray:
    """Matrix form of an element (torus -> diagonal matrix)."""
    tag = g.group.tag
    if tag == G.SU2:
        return G.su2_matrix(g.payload)
    if tag in (G.SO3, G.U2):
        return g.payload
    d = g.group.torus_dim
    m = np.zeros(g.payload.shape[:-1] + (d, d), dtype=complex)
    idx = np.arange(d)
    m[..., idx, idx] = g.payload
    return m


def validate_element(g: G.GroupElement, tol: float | None = None) -> float:
    dev = G.element_defect(g)
    limit = ELEMENT_TOL[g.group.tag] if tol is None else tol
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
    if tag == G.SO3:
        dev = max(dev, float(np.max(np.abs(np.imag(p)), initial=0.0)))
    if tag == G.SU2:
        tr = p[..., 0, 0] + p[..., 1, 1]
        dev = max(dev, float(np.max(np.abs(tr), initial=0.0)))
    return dev


def algebra_zero(group: G.GroupSpec, batch_shape=()) -> G.AlgebraElement:
    if group.tag == G.TORUS:
        p = np.zeros(batch_shape + (group.torus_dim,), dtype=complex)
    elif group.tag == G.SO3:
        p = np.zeros(batch_shape + (3, 3))
    else:
        p = np.zeros(batch_shape + (2, 2), dtype=complex)
    return G.AlgebraElement(group, p)


def cocycle_value(c: D.Cocycle, x: D.BasePoint) -> G.GroupElement:
    return G.GroupElement(c.group, c.value(x.phases))
