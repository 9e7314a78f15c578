"""The degenerate-elliptic operator pair behind the (p,q)-eigenvalue problem.

``apply_A`` realizes the horizontal p-Laplacian in divergence form,
``apply_B`` the L^q source term, both as dual fields paired against node
values through the volume-weighted inner product:

    <A u, w> = sum (|grad u|^2 + eps^2)^{(p-2)/2} grad u . grad w dV
    <B u, w> = sum |u|^{q-2} u w dV

With the gradient/divergence pair adjoint by construction, the operator
laws (positive homogeneity of degrees p-1 and q-1, the Hoelder-type bounds
with their equality cases, coercivity <A u, u> = energy, monotonicity) are
exact discrete statements, not approximations.
"""

from __future__ import annotations

import numpy as np

from .mesh import EnergyState, Field, NodeVector, lq_norm, p_energy

__all__ = ["DualField", "apply_A", "apply_B", "pairing", "residual", "eigen_defect"]


class DualField(NodeVector):
    """A functional on fields, represented against the volume-weighted pairing."""


def apply_A(u: Field, p: float, eps: float = 0.0) -> DualField:
    """Action of the (regularized) horizontal p-Laplacian on u.

    Returns d with pairing(d, w) = sum w_sites . grad w dV for the flux
    w_sites = (|grad u|^2 + eps^2)^{(p-2)/2} grad u; equivalently the
    negative discrete horizontal divergence of that flux.
    """
    return DualField(u.grid, EnergyState(u.grid, u.values, p, eps).flux_divergence())


def apply_B(u: Field, q: float) -> DualField:
    """Pointwise source term |u|^{q-2} u against the volume pairing."""
    if not q > 1:
        raise ValueError(f"operator B requires q > 1, got q = {q}")
    vals = u.values
    return DualField(u.grid, np.abs(vals) ** (q - 2.0) * vals)


def pairing(d: DualField, w: Field) -> float:
    """Volume-weighted duality pairing <d, w>; bilinear, grid-checked."""
    if d.grid != w.grid:
        raise ValueError("pairing requires matching grids")
    return float(np.dot(d.values, w.values) * d.grid.cell_volume)


def eigen_defect(u: Field, lam: float, p: float, q: float, eps: float = 0.0) -> DualField:
    """A(u) - lam * ||u||_q^{p-q} B(u), the dual-side eigenpair defect."""
    scale = lam * lq_norm(u, q) ** (p - q)
    return apply_A(u, p, eps) - scale * apply_B(u, q)


def residual(u: Field, lam: float, p: float, q: float) -> float:
    """Eigenpair certificate: worst pairing defect over node-basis test fields.

    Computes max_i |<A(u) - lam ||u||_q^{p-q} B(u), e_i>| normalized by
    p_energy(u, p)^{(p-1)/p}.  Zero exactly when (lam, u) solves the discrete
    weak eigenvalue identity; invariant under rescaling of u.
    """
    if not np.any(u.values):
        raise ValueError("eigenpair residual is undefined for the zero field")
    d = eigen_defect(u, lam, p, q)
    worst = float(np.max(np.abs(d.values)) * u.grid.cell_volume)
    return worst / p_energy(u, p, 0.0) ** ((p - 1.0) / p)
