"""Strictly convex inner problem: solve A(z) = f by energy minimization.

The subproblem behind one inverse-iteration step asks for the unique z with

    <A(z), v> = <f, v>   for all v,

i.e. the minimizer of J(z) = (1/p) * p_energy(z, p, eps) - <f, z>.  For
p = 2 the operator is the linear SPD stiffness G^T G and a Jacobi
preconditioned conjugate gradient is used.  Otherwise one loop minimizes J
at the single eps EPS = 1e-8, which keeps the flux weight
a = (|grad z|^2 + eps^2)^{(p-2)/2} finite (p < 2) and nonzero (p > 2)
where the gradient vanishes.  A cold start is the scaled p = 2 solution.
For p < 2, Kacanov (lagged-diffusivity) steps solve the weighted Laplacian
G^T diag(a(z)) G z' = f with the weight frozen at z: as s -> s^{p/2} is
concave, that quadratic majorizes J, so each step lowers J with no line
search (Kacanov 1959; Diening, Fornasier, Tomasi & Wank 2020).  Once
||grad J|| <= 1e-2 ||f||, and from the start for p > 2, each step is
Newton: it solves G^T D G d = -grad J by the same conjugate gradient loop,
preconditioned by the exact Hessian diagonal, to the relative forcing
tolerance min(0.5, sqrt(||grad J|| / ||f||)) (Eisenstat & Walker), then
backtracks on J from the full step (Armijo).

All tolerances are relative to the data: the reported solution satisfies
||A_eps(z) - f|| <= tol * ||f|| on the node-value arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .mesh import EnergyState, Field, Grid, p_energy
from .operators import DualField, pairing

__all__ = ["ConvergenceError", "solve_inner", "solve_linear_cg", "inner_objective"]


class ConvergenceError(RuntimeError):
    """Iteration limit hit; carries the last iterate and its gradient norm."""

    def __init__(self, message: str, last_iterate: Field, grad_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm


# The regularization eps of every p != 2 solve.
EPS = 1e-8


def inner_objective(z: Field, f: DualField, p: float, eps: float) -> float:
    """J(z) = (1/p) p_energy(z, p, eps) - pairing(f, z)."""
    return p_energy(z, p, eps) / p - pairing(f, z)


def _pcg(matvec, b: np.ndarray, Minv: np.ndarray, x: np.ndarray, tol: float,
         max_iters: int) -> tuple[np.ndarray, float, int]:
    """Conjugate gradient for the SPD system matvec(x) = b, preconditioned
    by the diagonal inverse Minv, from x (updated in place).  Stops when
    ||b - matvec(x)|| <= tol; returns (x, residual norm, iterations)."""
    r = b - matvec(x) if x.any() else b.copy()
    z = Minv * r
    d = z.copy()
    rz = float(np.dot(r, z))
    for it in range(max_iters):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            return x, rnorm, it
        Kd = matvec(d)
        alpha = rz / float(np.dot(d, Kd))
        x += alpha * d
        r -= alpha * Kd
        z = Minv * r
        rz_new = float(np.dot(r, z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    return x, float(np.linalg.norm(r)), max_iters


def solve_linear_cg(f: DualField, tol: float, max_iters: int = 100_000,
                    x0: Field | None = None, stats: dict | None = None) -> Field:
    """Jacobi-preconditioned CG for G^T G z = f (the p = 2 inner problem).

    Stops when ||G^T G z - f|| <= tol * ||f||, tol finite and positive;
    raises ConvergenceError after max_iters iterations.  ``stats`` (when
    given) receives {"iters": count}.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    grid, b = f.grid, f.values
    tol_abs = tol * float(np.linalg.norm(b))
    # the solution of f = 0 is 0, which a zero start reaches in no iterations
    x = np.zeros(grid.n_nodes) if x0 is None or tol_abs == 0.0 else x0.values.copy()
    x, rnorm, iters = _pcg(lambda v: grid.stiffness_p2 @ v, b, 1.0 / grid.stiffness_diagonal,
                           x, tol_abs, max_iters)
    if stats is not None:
        stats["iters"] = iters
    if rnorm <= tol_abs:
        return Field(grid, x)
    raise ConvergenceError(
        f"CG did not reach tolerance {tol:g} within {max_iters} iterations",
        Field(grid, x), rnorm,
    )


def _minimize(grid: Grid, fvals: np.ndarray, z: np.ndarray | None, p: float, tol_abs: float,
              max_iters: int, history: list | None) -> tuple[np.ndarray, float, int]:
    """Minimize J at EPS by the steps of the module docstring; returns (z,
    grad_norm, steps) once grad_norm <= tol_abs or after max_iters steps.

    z = None starts cold, which is one step.  A Newton step whose predicted
    decrease -grad.d is below J's rounding noise is taken whole if it lowers
    ||grad J||; if it does not, or backtracking shrinks the predicted
    decrease to that noise, ConvergenceError ("line search stalled") is
    raised.  J at each iterate (volume factor excluded) goes to ``history``
    when given.
    """
    fnorm, cold = float(np.linalg.norm(fvals)), z is None
    if cold:  # G^T G z = f to 1e-1, scaled to the minimizer of J_0 along its ray
        flat = EnergyState(grid, np.zeros(grid.n_nodes), 2.0, 0.0)  # a = 1
        z, _, _ = _pcg(lambda v: flat.hessian_vector(v, frozen=True), fvals,
                       1.0 / flat.hessian_diagonal(frozen=True), np.zeros(grid.n_nodes),
                       0.1 * fnorm, grid.n_nodes)
        z *= (np.dot(fvals, z) / EnergyState(grid, z, p, 0.0).energy()) ** (1.0 / (p - 1.0))
    state = EnergyState(grid, z, p, EPS)
    energy, fz = state.energy() / p, float(np.dot(fvals, z))
    grad = state.flux_divergence() - fvals
    kacanov = p < 2.0
    for it in range(int(cold), max_iters + 1):
        if history is not None:
            history.append(energy - fz)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol_abs or it == max_iters:
            return z, gnorm, it
        kacanov = kacanov and gnorm > 1e-2 * fnorm  # once Newton, always Newton
        if kacanov:
            d = _pcg(lambda v: state.hessian_vector(v, frozen=True), fvals,
                     1.0 / state.hessian_diagonal(frozen=True), z.copy(), 0.5 * gnorm,
                     grid.n_nodes)[0] - z
        else:
            d, _, _ = _pcg(state.hessian_vector, -grad, 1.0 / state.hessian_diagonal(),
                           np.zeros_like(z), min(0.5, np.sqrt(gnorm / fnorm)) * gnorm,
                           grid.n_nodes)
        decrement = -float(np.dot(grad, d))
        noise = 64 * np.finfo(float).eps * (abs(energy) + abs(fz))
        step, stalled = 1.0, False
        while not stalled:  # a Kacanov step is taken whole
            z_try = z + step * d
            with np.errstate(over="ignore"):  # a J that overflows fails the Armijo test
                trial = EnergyState(grid, z_try, p, EPS)
                energy_try, fz_try = trial.energy() / p, float(np.dot(fvals, z_try))
            if kacanov or decrement <= noise or \
                    energy_try - fz_try <= energy - fz - 1e-4 * step * decrement:
                break
            step *= 0.5
            stalled = not step * decrement > noise  # also stops on a NaN direction
        grad_try = trial.flux_divergence() - fvals
        if stalled or not kacanov and decrement <= noise and np.linalg.norm(grad_try) >= gnorm:
            raise ConvergenceError(
                f"inner solve missed tolerance {tol_abs / fnorm:g} (line search stalled; "
                f"relative gradient {gnorm / fnorm:.3e})", Field(grid, z), gnorm)
        z, state, energy, fz, grad = z_try, trial, energy_try, fz_try, grad_try


def solve_inner(f: DualField, p: float, tol: float, max_iters: int = 100_000,
                x0: Field | None = None, history: list | None = None,
                stats: dict | None = None,
                loose: tuple[float, Callable[[Field], bool]] | None = None) -> Field:
    """Minimize J(z) = (1/p) p_energy(z, p, EPS) - <f, z> for p > 1 and tol
    finite and positive.

    p = 2 goes to solve_linear_cg.  Otherwise the steps of the module
    docstring run from x0, or from the cold start when x0 is None, until
    ||A_eps(z) - f|| <= tol * ||f||; the cap of max_iters steps (CG
    iterations at p = 2) or a line-search stall raises ConvergenceError.
    ``history`` gets J at each iterate; ``stats`` (when given) gets
    {"iters": CG iterations at p = 2, otherwise the steps, the cold start
    counting as one}.

    ``loose = (loose_tol, accept)`` makes the solve tighten one decade at a
    time: it stops first at loose_tol and returns that z if accept(z)
    holds; otherwise it continues from z to loose_tol / 10 and asks again,
    and so on while the tolerance is above tol.  The decade that reaches
    tol is final and not asked.  ``history`` then gets J at the iterates
    of every decade, ``stats["iters"]`` counts every decade and
    ``stats["loose"]`` says whether the result stopped above tol.
    """
    if loose is not None:
        stage_tol, accept = loose
        total = 0
        while True:
            # a decade that lands on tol up to rounding is the final one
            final = stage_tol <= tol * (1.0 + 1e-9)
            stage: dict = {}
            z = solve_inner(f, p, tol if final else stage_tol, max_iters, x0, history, stage)
            total += stage["iters"]
            if final or accept(z):
                break
            x0, stage_tol = z, stage_tol / 10.0
        if stats is not None:
            stats.update(iters=total, loose=not final)
        return z
    if p == 2.0:
        return solve_linear_cg(f, tol, max_iters, x0=x0, stats=stats)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    grid, fnorm = f.grid, float(np.linalg.norm(f.values))
    # for f = 0 the zero start is the solution
    z = np.zeros(grid.n_nodes) if fnorm == 0.0 else None if x0 is None else x0.values.copy()
    z, gnorm, iters = _minimize(grid, f.values, z, p, tol * fnorm, max_iters, history)
    if gnorm > tol * fnorm:
        raise ConvergenceError(
            f"inner solve missed tolerance {tol:g} ({max_iters} iterations "
            f"exhausted; relative gradient {gnorm / fnorm:.3e})",
            Field(grid, z), gnorm,
        )
    if stats is not None:
        stats["iters"] = iters
    return Field(grid, z)
