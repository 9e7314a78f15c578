"""Strictly convex inner problem: solve A(z) = f by energy minimization.

The subproblem behind one inverse-iteration step asks for the unique z with

    <A(z), v> = <f, v>   for all v,

i.e. the minimizer of J(z) = (1/p) E_eps(z) - <f, z>, E_eps mesh.EnergyState's energy.
solve_inner is the one entry point for every p.  At p = 2 the operator is the
assembled linear SPD stiffness K = G^T G, the grid's banded DIA matrix, and the
solve is a float64 defect correction (Carson & Higham 2018): each round solves
K d = f - K z to RHO relative by preconditioned conjugate gradient (PCG) in
float32, on Grid.stiffness_p2_float32's K / 2^k (2^k a power of two that keeps
K in the float32 range and moves no bit), and adds d to z; a round that does
not halve ||f - K z|| meets the rounding floor.  Otherwise one loop minimizes J
at the single eps EPS = 1e-8, which keeps the flux weight a = (|grad z|^2 +
eps^2)^{(p-2)/2} finite (p < 2) and nonzero (p > 2) where the gradient
vanishes.  A cold start is the scaled p = 2 solution, by PCG on K.  Every step
assembles H as a banded matrix (mesh.EnergyState.hessian), solves H d = -grad J
from zero by PCG, which stops on nonpositive curvature, and backtracks on J
from the full step (Armijo).  Every PCG, on K / 2^k, K or a step's H, applies
_preconditioner's r -> s M^{-1}(s r), s = sqrt(diag K / diag H), M^{-1} the
exact inverse of K's separable part M (Grid.separable_inverse; M = K on E2).
For p < 2, H is first G^T diag(a(z)) G, the flux weight frozen at z: this
is a Kacanov (lagged-diffusivity) step, the Newton step of the frozen
weight, and as s -> s^{p/2} is concave its quadratic majorizes J, so the
full step passes the Armijo test (Kacanov 1959; Diening, Fornasier, Tomasi
& Wank 2020).  Once ||grad J|| <= 1e-2 ||f||, and from the start for p > 2,
H is the exact Hessian G^T D G: a Newton step.  The relative forcing
tolerance is 0.5 for a Kacanov step and min(0.5, sqrt(||grad J|| / ||f||))
for a Newton step (Eisenstat & Walker).

All tolerances are relative to the data: the reported solution satisfies
||A_eps(z) - f|| <= tol * ||f|| on the node-value arrays, at p = 2 for the
float64 residual f - K z.  Every p != 2 PCG runs in float64.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .mesh import EnergyState, Field, Grid

__all__ = ["ConvergenceError", "solve_inner"]


class ConvergenceError(RuntimeError):
    """Iteration limit hit; carries the last iterate and its gradient norm."""

    def __init__(self, message: str, last_iterate: Field, grad_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm


# The regularization eps of every p != 2 solve.
EPS = 1e-8

# The step cap of each decade of a solve: CG iterations at p = 2, steps otherwise.
MAX_ITERS = 100_000

# Each float32 correction round at p = 2 solves to this relative tolerance.
RHO = 1e-3


def _pcg(A, b: np.ndarray, precondition: Callable[[np.ndarray, np.ndarray], object], tol: float,
         max_iters: int) -> tuple[np.ndarray, float, int]:
    """Conjugate gradient for the SPD system A x = b from x = 0, preconditioned by
    precondition(r, out), which writes M^{-1} r into out,
    until the updated residual r has ||r|| <= tol or a direction d has d^T A d <= 0
    (Steihaug 1983; a floating point singular H), with x so far, or M^{-1} b if the
    first d fails.  Returns (x, ||r||, iterations); only A d and M^{-1} r allocate."""
    x, r, z = np.zeros_like(b), b.copy(), np.empty_like(b)
    precondition(r, z)
    d = z.copy()
    step = np.empty_like(r)
    rz = float(np.dot(r, z))
    for it in range(max_iters):
        rnorm = math.sqrt(np.dot(r, r))
        if rnorm <= tol:
            return x, rnorm, it
        Kd = A @ d
        curvature = float(np.dot(d, Kd))
        if not curvature > 0.0:  # A is not positive along d: stop (Steihaug 1983)
            return (x if it else d), rnorm, it
        alpha = rz / curvature
        x += np.multiply(d, alpha, out=step)
        r -= np.multiply(Kd, alpha, out=step)
        precondition(r, z)
        rz_new = float(np.dot(r, z))
        d *= rz_new / rz
        d += z
        rz = rz_new
    return x, math.sqrt(np.dot(r, r)), max_iters


def _preconditioner(grid: Grid, diagonal: np.ndarray, scale: float = 1.0) -> Callable:
    """Every _pcg's preconditioner, for H = G^T D G / scale of this diagonal, in its dtype: the
    module docstring's s M^{-1}(s r) (Concus & Golub 1973) as s' (M / scale)^{-1}(s' r), s' ~ 1."""
    s = np.sqrt(grid.stiffness_diagonal / scale / diagonal).astype(diagonal.dtype)
    return lambda r, out: np.multiply(s, grid.separable_inverse(s * r, scale), out=out)


def _minimize(grid: Grid, fvals: np.ndarray, z: np.ndarray | None, p: float, tol_abs: float,
              history: list | None) -> tuple[np.ndarray, float, int]:
    """Minimize J at EPS by the steps of the module docstring; returns (z,
    grad_norm, steps) once grad_norm <= tol_abs or after MAX_ITERS steps.

    z = None starts cold, which is one step.  A step whose predicted
    decrease -grad.d is below J's rounding noise is taken whole if it
    lowers ||grad J||; if it does not, or backtracking shrinks the predicted
    decrease to that noise, ConvergenceError ("line search stalled") is
    raised.  J at each iterate (volume factor excluded) goes to ``history``
    when given.
    """
    fnorm, cold = float(np.linalg.norm(fvals)), z is None
    if cold:  # K z = f to 1e-1, scaled to the minimizer of J_0 along its ray
        z, _, _ = _pcg(grid.stiffness_p2, fvals, _preconditioner(grid, grid.stiffness_diagonal),
                       0.1 * fnorm, grid.n_nodes)
        z *= (np.dot(fvals, z) / EnergyState(grid, z, p, 0.0).energy()) ** (1.0 / (p - 1.0))
    state = EnergyState(grid, z, p, EPS)
    energy, fz = state.energy() / p, float(np.dot(fvals, z))
    grad = state.flux_divergence() - fvals
    kacanov = p < 2.0
    for it in range(int(cold), MAX_ITERS + 1):
        if history is not None:
            history.append(energy - fz)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol_abs or it == MAX_ITERS:
            return z, gnorm, it
        kacanov = kacanov and gnorm > 1e-2 * fnorm  # once Newton, always Newton
        forcing = 0.5 if kacanov else min(0.5, np.sqrt(gnorm / fnorm))
        hessian = state.hessian(frozen=kacanov)
        d, _, _ = _pcg(hessian, -grad, _preconditioner(grid, hessian.diagonal()), forcing * gnorm,
                       grid.n_nodes)
        del hessian  # freed before the next step assembles its own
        decrement = -float(np.dot(grad, d))
        noise = 64 * np.finfo(float).eps * (abs(energy) + abs(fz))
        step, stalled = 1.0, False
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed trial fails below
            while not stalled:
                z_try = z + step * d
                trial = EnergyState(grid, z_try, p, EPS)
                energy_try, fz_try = trial.energy() / p, float(np.dot(fvals, z_try))
                if decrement <= noise or \
                        energy_try - fz_try <= energy - fz - 1e-4 * step * decrement:
                    break
                step *= 0.5
                stalled = not step * decrement > noise  # also stops on a NaN direction
            grad_try = trial.flux_divergence() - fvals
        if stalled or decrement <= noise and not np.linalg.norm(grad_try) < gnorm:
            raise ConvergenceError(
                f"inner solve missed tolerance {tol_abs / fnorm:g} (line search stalled; "
                f"relative gradient {gnorm / fnorm:.3e})", Field(grid, z), gnorm)
        z, state, energy, fz, grad = z_try, trial, energy_try, fz_try, grad_try


def solve_inner(f: Field, p: float, tol: float, x0: Field | None = None,
                history: list | None = None, stats: dict | None = None,
                loose: tuple[float, Callable[[Field], bool]] | None = None) -> Field:
    """Minimize J of the module docstring at eps = EPS for p > 1 and tol
    finite and positive, until ||A_eps(z) - f|| <= tol * ||f||: at p = 2 by
    the defect correction of the module docstring, which tests the float64
    residual f - K z, otherwise by the steps given there, from x0 (a
    ValueError unless finite and on f's grid) or else from 0 (p = 2) or the
    cold start.  A non-finite f is a ValueError; f = 0 returns 0.
    ``history`` gets J at each p != 2 iterate.  MAX_ITERS CG iterations or
    steps in one decade (below), a NaN residual, a correction round that
    does not halve the residual or a line-search stall raise ConvergenceError.

    ``loose = (loose_tol, accept)`` makes the solve tighten one decade at a
    time: it stops first at loose_tol and returns that z if accept(z)
    holds; otherwise it continues from z to loose_tol / 10 and asks again,
    and so on while the tolerance is above tol.  The decade that reaches
    tol is final and not asked, so a loose_tol at or below tol is the plain
    solve.  ``stats`` (when given) gets {"iters": CG iterations or steps
    over every decade, the cold start counting as one, "loose": whether the
    result stopped above tol}.
    """
    stage_tol, accept = loose or (tol, None)
    if not (math.isfinite(tol) and tol > 0 and math.isfinite(stage_tol)):
        raise ValueError(f"tol must be finite and positive and loose_tol finite, "
                         f"got {tol} and {stage_tol}")
    grid, fvals = f.grid, f.values
    if not np.isfinite(fvals).all():
        raise ValueError("f must be finite")
    if x0 is not None:
        f._check(x0)
        if not np.isfinite(x0.values).all():
            raise ValueError("x0 must be finite")
    fnorm = float(np.linalg.norm(fvals))
    # for f = 0 the zero start is the solution; p = 2 also starts cold from 0
    z = x0.values.copy() if x0 is not None and fnorm > 0.0 else \
        np.zeros(grid.n_nodes) if fnorm == 0.0 or p == 2.0 else None
    total = 0
    while True:
        final = stage_tol <= tol * (1.0 + 1e-9)  # a decade on tol up to rounding is final
        stage_tol = tol if final else stage_tol
        if p == 2.0:  # float32 PCG rounds on (K / 2^k) d = r / ||r||, r = f - K z in float64
            K32, scale = grid.stiffness_p2_float32
            precondition = _preconditioner(grid, K32.diagonal(), scale)
            r = fvals - grid.stiffness_p2 @ z
            gnorm, last, iters = math.sqrt(np.dot(r, r)), math.inf, 0
            # stop on tol, on MAX_ITERS or on a round that did not halve the residual
            while stage_tol * fnorm < gnorm <= 0.5 * last and iters < MAX_ITERS:
                d, _, its = _pcg(K32, (r / gnorm).astype(np.float32), precondition,
                                 max(RHO, stage_tol * fnorm / gnorm), MAX_ITERS - iters)
                iters += its
                z += gnorm / scale * d.astype(float)
                r = fvals - grid.stiffness_p2 @ z
                last, gnorm = gnorm, math.sqrt(np.dot(r, r))
        else:
            z, gnorm, iters = _minimize(grid, fvals, z, p, stage_tol * fnorm, history)
        total += iters
        if not gnorm <= stage_tol * fnorm:  # also a NaN residual
            why = "correction stalled" if iters < MAX_ITERS else f"{MAX_ITERS} iterations exhausted"
            raise ConvergenceError(f"inner solve missed tolerance {stage_tol:g} ({why}; relative "
                                   f"residual {gnorm / fnorm:.3e})", Field(grid, z), gnorm)
        if final or accept(Field(grid, z.copy())):  # CG goes on updating z in place
            break
        stage_tol /= 10.0
    if stats is not None:
        stats.update(iters=total, loose=not final)
    return Field(grid, z)
