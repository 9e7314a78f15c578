"""Strictly convex inner problem: solve A(z) = f by energy minimization.

The subproblem behind one inverse-iteration step asks for the unique z with

    <A(z), v> = <f, v>   for all v,

i.e. the minimizer of J(z) = (1/p) * p_energy(z, p, eps) - <f, z>.  For
p = 2 the operator is the linear SPD stiffness G^T G and a Jacobi
preconditioned conjugate gradient is used.  Otherwise truncated Newton runs
through the fixed, decreasing eps ladder EPS_LADDER = (1e-2, 1e-4, 1e-8)
(warm-started), since the flux weight |grad z|^{p-2} degenerates (p > 2)
or blows up (p < 2) where the gradient vanishes; a warm start tries the
floor eps 1e-8 alone first and walks the ladder only if that stops making
progress (adaptive continuation).  Each Newton step solves
G^T D G d = -grad J with the same conjugate gradient loop, preconditioned
by the exact Hessian diagonal, to the relative forcing tolerance
min(0.5, sqrt(||grad J|| / ||f||)) (Eisenstat & Walker), then backtracks
on J from the full step (Armijo).

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


# The eps stages of a p != 2 solve; the last one, the floor eps, is the eps
# of every returned solution.
EPS_LADDER = (1e-2, 1e-4, 1e-8)


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


def _newton_stage(grid: Grid, fvals: np.ndarray, z: np.ndarray, p: float, eps: float,
                  tol_abs: float, max_iters: int, history: list | None,
                  guarded: bool = False) -> tuple[np.ndarray, float, int]:
    """Minimize J at fixed eps by line-search Newton-PCG; returns (z,
    grad_norm, iters) once grad_norm <= tol_abs or after max_iters steps.

    J cannot judge a step whose predicted decrease -grad.d is below J's
    rounding noise, so such a step is taken whole if it lowers ||grad J||.
    If it does not, or backtracking shrinks the predicted decrease to that
    noise, ConvergenceError ("line search stalled") is raised; a ``guarded``
    stage returns unconverged instead, and also at a Newton decrement not
    below the previous one.  Accepted objective values (volume factor
    excluded) go to ``history`` when given.
    """
    fnorm = float(np.linalg.norm(fvals))
    state = EnergyState(grid, z, p, eps)
    energy, fz = state.energy() / p, float(np.dot(fvals, z))
    grad = state.flux_divergence() - fvals
    last_decrement = np.inf
    for it in range(max_iters + 1):
        if history is not None:
            history.append(energy - fz)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol_abs or it == max_iters:
            return z, gnorm, it
        d, _, _ = _pcg(state.hessian_vector, -grad, 1.0 / state.hessian_diagonal(),
                       np.zeros_like(z), min(0.5, np.sqrt(gnorm / fnorm)) * gnorm, grid.n_nodes)
        decrement = -float(np.dot(grad, d))
        if guarded and not decrement < last_decrement:
            return z, gnorm, it
        last_decrement = decrement
        noise = 64 * np.finfo(float).eps * (abs(energy) + abs(fz))
        step, stalled = 1.0, False
        while not stalled:
            z_try = z + step * d
            trial = EnergyState(grid, z_try, p, eps)
            energy_try, fz_try = trial.energy() / p, float(np.dot(fvals, z_try))
            if decrement <= noise or energy_try - fz_try <= energy - fz - 1e-4 * step * decrement:
                break
            step *= 0.5
            stalled = not step * decrement > noise  # also stops on a NaN direction
        grad_try = trial.flux_divergence() - fvals
        if stalled or decrement <= noise and np.linalg.norm(grad_try) >= gnorm:
            if guarded:
                return z, gnorm, it
            raise ConvergenceError(
                f"inner solve missed tolerance {tol_abs / fnorm:g} (line search stalled; "
                f"relative gradient {gnorm / fnorm:.3e})", Field(grid, z), gnorm)
        z, state, energy, fz, grad = z_try, trial, energy_try, fz_try, grad_try


def solve_inner(f: DualField, p: float, tol: float, max_iters: int = 100_000,
                x0: Field | None = None, history: list | None = None,
                stats: dict | None = None,
                loose: tuple[float, Callable[[Field], bool]] | None = None) -> Field:
    """Minimize J(z) = (1/p) p_energy(z, p, eps) - <f, z> for p > 1 and tol
    finite and positive.

    p = 2 goes to solve_linear_cg.  Otherwise truncated Newton runs through
    EPS_LADDER with warm starts, max_iters capping the Newton steps of each
    stage (and the CG iterations at p = 2).  Given x0, a guarded stage at
    the floor eps runs from x0 first; if it gives up (rising Newton
    decrement, cap or stall), the ladder runs from x0.  Cold starts need the
    ladder to reach the floor-eps basin.  The result has ||A_eps(z) - f||
    <= tol * ||f|| at the floor eps, or the cap or a line-search stall
    raises ConvergenceError.  ``history`` gets the final stage; ``stats``
    (when given) gets {"iters": CG iterations at p = 2, otherwise the
    Newton steps of every stage, abandoned ones included}.

    ``loose = (loose_tol, accept)`` makes the solve tighten one decade at a
    time: it stops first at loose_tol and returns that z if accept(z)
    holds; otherwise it continues from z to loose_tol / 10 and asks again,
    and so on while the tolerance is above tol.  The decade that reaches
    tol is final and not asked.  ``history`` then gets the final stage of
    each decade run, ``stats["iters"]`` counts every decade and
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
    tol_abs = tol * fnorm
    # for f = 0 the zero start is the solution and every stage returns it at once
    z = np.zeros(grid.n_nodes) if x0 is None or fnorm == 0.0 else x0.values.copy()
    total_iters, ladder = 0, EPS_LADDER
    if x0 is not None and fnorm > 0.0:
        floor_history: list = []
        z_floor, gnorm, total_iters = _newton_stage(grid, f.values, z, p, ladder[-1], tol_abs,
                                                    max_iters, floor_history, guarded=True)
        if gnorm <= tol_abs:
            z, ladder = z_floor, ()
            if history is not None:
                history.extend(floor_history)
    for i, eps in enumerate(ladder):
        final = i == len(ladder) - 1
        stage_tol = tol_abs if final else max(10.0 * tol_abs, 1e-3 * fnorm)
        z, gnorm, iters = _newton_stage(grid, f.values, z, p, eps, stage_tol, max_iters,
                                        history if final else None)
        total_iters += iters
        if final and gnorm > tol_abs:
            raise ConvergenceError(
                f"inner solve missed tolerance {tol:g} ({max_iters} iterations "
                f"exhausted; relative gradient {gnorm / fnorm:.3e})",
                Field(grid, z), gnorm,
            )
    if stats is not None:
        stats["iters"] = total_iters
    return Field(grid, z)
