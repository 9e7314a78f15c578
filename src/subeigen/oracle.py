"""Independent ground truth for tiny grids (at most 25 interior nodes).

``brute_force_lambda`` takes one of two routes, neither sharing code with
the iterative solvers:

* ``dense_eig`` (p = q = 2): the smallest eigenvalue of the dense G^T G, formed
  from G, not by the banded assembler it checks; exact up to LAPACK roundoff.
* ``multistart`` (any other p, q > 1): derivative-free minimization of the
  Rayleigh quotient by coordinate-wise quadratic-fit line searches from one
  positive start and ``RESTARTS`` random unit-sphere starts, merged by
  minimum.  All starts advance in lockstep as rows of one array, so the
  sweeps vectorize.

Node counts are capped so the multistart search stays trustworthy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh import Field, Grid

__all__ = ["OracleResult", "brute_force_lambda", "multistart_minimize"]

NODE_CAP = 25

# Random starts of the multistart route, beside its one positive start.
RESTARTS = 64


@dataclass
class OracleResult:
    lambda_star: float
    minimizer: Field
    method: str  # dense_eig | multistart
    restarts_used: int


def _quotient_batch(grid: Grid, p: float, q: float):
    """Vectorized Rayleigh quotient over rows of a (restarts, n_nodes) array."""
    G = grid.gradient_matrix
    n1 = grid.group.horizontal_dim
    vol = grid.cell_volume

    def quot(X: np.ndarray) -> np.ndarray:
        g = (G @ X.T).reshape(n1, grid.n_sites, X.shape[0])
        gsq = np.sum(g * g, axis=0)
        energy = np.sum(gsq ** (p / 2.0), axis=0) * vol
        lq = (np.sum(np.abs(X) ** q, axis=1) * vol) ** (1.0 / q)
        return energy / lq ** p

    return quot


def multistart_minimize(objective, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise quadratic-fit descent on each row of ``starts``.

    ``objective`` maps a (restarts, n) array to (restarts,) values.  Per
    coordinate the objective is probed at +/- d, a parabola is fitted, and
    the best of {vertex, probes, stay} is kept; probe radii adapt per row.
    Stops after 500 sweeps, or once every row has gone 5 sweeps without a
    relative improvement above 1e-13.
    Returns (points, values).
    """
    X = np.array(starts, dtype=float)
    R, n = X.shape
    rows = np.arange(R)
    vals = objective(X)
    d = 0.3 * np.maximum(np.max(np.abs(X), axis=1), 1e-12)
    stall = np.zeros(R, dtype=int)
    for _ in range(500):
        improved = np.zeros(R, dtype=bool)
        for i in range(n):
            base = X[:, i].copy()
            X[:, i] = base + d
            f_plus = objective(X)
            X[:, i] = base - d
            f_minus = objective(X)
            # parabola through (-d, 0, +d); vertex kept only when convex, clamped
            denom = f_plus - 2.0 * vals + f_minus
            with np.errstate(divide="ignore", invalid="ignore"):
                vertex = 0.5 * d * (f_minus - f_plus) / denom
            vertex = np.where((denom > 0) & np.isfinite(vertex),
                              np.clip(vertex, -4.0 * d, 4.0 * d), 0.0)
            X[:, i] = base + vertex
            f_vertex = objective(X)
            cand = np.stack([vals, f_minus, f_plus, f_vertex])
            offs = np.stack([np.zeros(R), -d, d, vertex])
            pick = np.argmin(cand, axis=0)
            new_vals = cand[pick, rows]
            X[:, i] = base + offs[pick, rows]
            improved |= new_vals < vals - 1e-13 * np.abs(vals)
            vals = new_vals
        d = np.where(improved, d, d * 0.5)
        d = np.maximum(d, 1e-10)
        stall = np.where(improved, 0, stall + 1)
        if np.all(stall >= 5):
            break
    return X, vals


def brute_force_lambda(grid: Grid, p: float, q: float, seed: int = 0) -> OracleResult:
    """Reference first (p,q)-eigenvalue on a tiny grid: the dense symmetric
    eigensolve when p = q = 2, otherwise the multistart search seeded by
    ``seed`` (module docstring).  Another seed reruns a search that warned.
    """
    if grid.n_nodes > NODE_CAP:
        raise ValueError(
            f"oracle is limited to {NODE_CAP} interior nodes, grid has {grid.n_nodes}"
        )
    if p == 2.0 and q == 2.0:
        K = (grid.gradient_matrix.T @ grid.gradient_matrix).toarray()
        evals, evecs = scipy.linalg.eigh(K)
        u = _normalized(grid, evecs[:, 0], q)
        return OracleResult(float(evals[0]), u, "dense_eig", 0)
    return _multistart(grid, p, q, seed)


def _multistart(grid: Grid, p: float, q: float, seed: int) -> OracleResult:
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((RESTARTS + 1, grid.n_nodes))
    starts[0] = 1.0  # positive start targets the ground state
    vol = grid.cell_volume
    starts /= ((np.sum(np.abs(starts) ** q, axis=1) * vol) ** (1.0 / q))[:, None]
    quot = _quotient_batch(grid, p, q)
    start_vals = quot(starts)
    X, vals = multistart_minimize(quot, starts)
    best = int(np.argmin(vals))
    if float(np.min(vals)) >= start_vals[0] * (1.0 - 1e-9):
        warnings.warn(
            "multistart oracle found no improvement over the raw positive start; "
            "treat lambda_star as suspect", RuntimeWarning, stacklevel=3,
        )
    u = _normalized(grid, X[best], q)
    return OracleResult(float(vals[best]), u, "multistart", RESTARTS)


def _normalized(grid: Grid, values: np.ndarray, q: float) -> Field:
    vol = grid.cell_volume
    nrm = float((np.sum(np.abs(values) ** q) * vol) ** (1.0 / q))
    vals = values / nrm
    if vals.sum() < 0:
        vals = -vals
    return Field(grid, vals)
