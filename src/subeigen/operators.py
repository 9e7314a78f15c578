"""The degenerate-elliptic operator pair behind the (p,q)-eigenvalue problem.

``apply_A`` realizes the exact horizontal p-Laplacian in divergence form,
``apply_B`` the L^q source term; both return a Field, paired against node
values through the volume-weighted inner product:

    <A u, w> = sum |grad u|^{p-2} grad u . grad w dV
    <B u, w> = sum |u|^{q-2} u w dV

With the gradient/divergence pair adjoint by construction, the operator
laws (positive homogeneity of degrees p-1 and q-1, the Hoelder-type bounds
with their equality cases, coercivity <A u, u> = energy, monotonicity) are
exact discrete statements, not approximations.  Only the inner solver
regularizes, by mesh.EnergyState at eps > 0.
"""

from __future__ import annotations

import numpy as np

from .mesh import EnergyState, Field, lq_norm

__all__ = ["apply_A", "apply_B", "pairing", "residual"]


def apply_A(u: Field, p: float) -> Field:
    """Action of the exact horizontal p-Laplacian on u.

    Returns d with pairing(d, w) = sum |grad u|^{p-2} grad u . grad w dV,
    the flux taken as 0 where grad u = 0; equivalently the negative
    discrete horizontal divergence of that flux.
    """
    return Field(u.grid, EnergyState(u.grid, u.values, p, 0.0).flux_divergence())


def apply_B(u: Field, q: float) -> Field:
    """Pointwise source term |u|^{q-2} u against the volume pairing."""
    if not q > 1:
        raise ValueError(f"operator B requires q > 1, got q = {q}")
    vals = u.values
    return Field(u.grid, np.abs(vals) ** (q - 2.0) * vals)


def pairing(d: Field, w: Field) -> float:
    """Volume-weighted duality pairing <d, w>; bilinear, grid-checked."""
    d._check(w)
    return float(np.dot(d.values, w.values) * d.grid.cell_volume)


def residual(u: Field, lam: float, p: float, q: float, state: EnergyState | None = None) -> float:
    """Eigenpair certificate: worst pairing defect over node-basis test fields.

    Computes max_i |<A(u) - lam ||u||_q^{p-q} B(u), e_i>| normalized by
    p_energy(u, p)^{(p-1)/p}.  Zero exactly when (lam, u) solves the discrete
    weak eigenvalue identity; invariant under rescaling of u.  A(u) and the
    energy come from one exact EnergyState of u, ``state`` when the caller has it.
    """
    if not np.any(u.values):
        raise ValueError("eigenpair residual is undefined for the zero field")
    state = state or EnergyState(u.grid, u.values, p, 0.0)
    scale = lam * lq_norm(u, q) ** (p - q) if p != q else lam  # the factor is 1 at p = q
    defect = state.flux_divergence() - scale * apply_B(u, q).values
    worst = float(np.max(np.abs(defect)) * u.grid.cell_volume)
    return worst / (state.energy() * u.grid.cell_volume) ** ((p - 1.0) / p)
