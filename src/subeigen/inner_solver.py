"""Strictly convex inner problem: solve A(z) = f by energy minimization.

The subproblem behind one inverse-iteration step asks for the unique z with

    <A(z), v> = <f, v>   for all v,

i.e. the minimizer of J(z) = (1/p) * p_energy(z, p, eps) - <f, z>.  For
p = 2 the operator is the linear SPD stiffness G^T G and a Jacobi
preconditioned conjugate gradient is used; otherwise a Barzilai-Borwein
gradient descent with Armijo backtracking runs through a decreasing eps
schedule (warm-started), since the flux weight |grad z|^{p-2} degenerates
(p > 2) or blows up (p < 2) where the gradient vanishes.

All tolerances are relative to the data: the reported solution satisfies
||A_eps(z) - f|| <= tol_grad * ||f|| on the node-value arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import EnergyState, Field, Grid
from .operators import DualField

__all__ = [
    "InnerConfig",
    "ConvergenceError",
    "default_inner_config",
    "solve_inner",
    "solve_linear_cg",
    "inner_objective",
]


class ConvergenceError(RuntimeError):
    """Iteration limit hit; carries the last iterate and its gradient norm."""

    def __init__(self, message: str, last_iterate: Field, grad_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm


@dataclass
class InnerConfig:
    """Controls for the inner solve.

    eps_schedule must be nonincreasing; the final entry is the regularization
    the returned solution is reported at.  For p < 2 the final entry must be
    strictly positive; for p >= 2 it must not exceed 1e-8.
    """

    tol_grad: float = 1e-8
    max_iters: int = 100_000
    eps_schedule: tuple[float, ...] = (1e-2, 1e-4, 1e-8)
    method: str = "auto"  # auto | descent_bb

    def __post_init__(self):
        if self.tol_grad <= 0:
            raise ValueError(f"tol_grad must be positive, got {self.tol_grad}")
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            raise ValueError("eps_schedule must be nonempty")
        if any(e < 0 for e in sched):
            raise ValueError("eps_schedule entries must be nonnegative")
        if any(a < b for a, b in zip(sched, sched[1:])):
            raise ValueError(f"eps_schedule must be nonincreasing, got {sched}")
        if self.method not in ("auto", "descent_bb"):
            raise ValueError(f"unknown inner method {self.method!r}")
        self.eps_schedule = sched

    def validate_for(self, p: float) -> None:
        last = self.eps_schedule[-1]
        if p < 2 and last == 0.0:
            raise ValueError("eps_schedule needs a strictly positive floor for p < 2")
        if p >= 2 and last > 1e-8:
            raise ValueError(f"eps_schedule floor must be <= 1e-8 for p >= 2, got {last}")


def default_inner_config(p: float, tol_grad: float | None = None,
                         max_iters: int = 100_000, eps_floor: float = 1e-8) -> InnerConfig:
    """Config with the default tolerances: 1e-8 on the p = 2 path, 1e-6 otherwise."""
    if tol_grad is None:
        tol_grad = 1e-8 if p == 2.0 else 1e-6
    floor = max(eps_floor, 1e-300) if p < 2 else min(eps_floor, 1e-8)
    sched = [e for e in (1e-2, 1e-4) if e > floor] + [floor]
    return InnerConfig(tol_grad=tol_grad, max_iters=max_iters, eps_schedule=tuple(sched))


def inner_objective(z: Field, f: DualField, p: float, eps: float) -> float:
    """J(z) = (1/p) p_energy(z, p, eps) - pairing(f, z)."""
    from .mesh import p_energy
    from .operators import pairing
    return p_energy(z, p, eps) / p - pairing(f, z)


def solve_linear_cg(f: DualField, cfg: InnerConfig, x0: Field | None = None,
                    stats: dict | None = None) -> Field:
    """Jacobi-preconditioned CG for G^T G z = f (the p = 2 inner problem).

    Stops when ||G^T G z - f|| <= tol_grad * ||f||; raises ConvergenceError
    at the iteration cap.  ``stats`` (when given) receives {"iters": count}.
    """
    grid = f.grid
    b = f.values
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        if stats is not None:
            stats["iters"] = 0
        return Field.zeros(grid)
    K = grid.stiffness_p2
    Minv = 1.0 / grid.stiffness_diagonal
    x = np.zeros(grid.n_nodes) if x0 is None else x0.values.copy()
    r = b - K @ x
    z = Minv * r
    d = z.copy()
    rz = float(np.dot(r, z))
    tol = cfg.tol_grad * bnorm
    for it in range(cfg.max_iters):
        if np.linalg.norm(r) <= tol:
            if stats is not None:
                stats["iters"] = it
            return Field(grid, x)
        Kd = K @ d
        alpha = rz / float(np.dot(d, Kd))
        x += alpha * d
        r -= alpha * Kd
        z = Minv * r
        rz_new = float(np.dot(r, z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    if stats is not None:
        stats["iters"] = cfg.max_iters
    if np.linalg.norm(r) <= tol:
        return Field(grid, x)
    raise ConvergenceError(
        f"CG did not reach tolerance {cfg.tol_grad:g} within {cfg.max_iters} iterations",
        Field(grid, x), float(np.linalg.norm(r)),
    )


def _bb_stage(grid: Grid, fvals: np.ndarray, z: np.ndarray, p: float, eps: float,
              tol_abs: float, max_iters: int,
              history: list | None) -> tuple[np.ndarray, float, bool, int]:
    """Minimize J at fixed eps by BB steps with Armijo backtracking.

    Returns (z, grad_norm, stalled, iters); ``stalled`` means the line search
    could not find further decrease.  Accepted objective values (volume
    factor excluded) are appended to ``history`` when given.
    """
    state = EnergyState(grid, z, p, eps)
    g = state.flux_divergence() - fvals
    J = state.energy() / p - float(np.dot(fvals, z))
    if history is not None:
        history.append(J)
    # conservative first step: inverse of the p = 2 diagonal times the worst flux weight
    s_max = float(np.max(state.s))
    tau = 1.0 / (float(np.max(grid.stiffness_diagonal)) * max(s_max ** ((p - 2.0) / 2.0), 1e-12))
    z_prev = g_prev = None
    flat_streak = 0
    for it in range(max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_abs:
            return z, gnorm, False, it
        if z_prev is not None:
            s = z - z_prev
            y = g - g_prev
            sy = float(np.dot(s, y))
            if sy > 0:
                tau = float(np.dot(s, s)) / sy
        tau = min(max(tau, 1e-18), 1e18)
        step = tau
        accepted = False
        for _ in range(120):
            z_try = z - step * g
            trial = EnergyState(grid, z_try, p, eps)
            J_try = trial.energy() / p - float(np.dot(fvals, z_try))
            if J_try <= J - 1e-4 * step * gnorm * gnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return z, gnorm, True, it
        # objective progress at the float noise floor cannot improve the gradient
        flat_streak = flat_streak + 1 if J - J_try <= 8e-16 * abs(J) else 0
        if flat_streak >= 50:
            return z_try, gnorm, True, it
        z_prev, g_prev = z, g
        z, J = z_try, J_try
        if history is not None:
            history.append(J)
        g = trial.flux_divergence() - fvals
    return z, float(np.linalg.norm(g)), False, max_iters


def solve_inner(f: DualField, p: float, cfg: InnerConfig, x0: Field | None = None,
                history: list | None = None, stats: dict | None = None) -> Field:
    """Minimize J(z) = (1/p) p_energy(z, p, eps) - <f, z>.

    Dispatches to CG when p = 2 (unless cfg.method forces the descent path);
    otherwise runs BB descent through cfg.eps_schedule with warm starts.
    The returned field satisfies ||A_eps(z) - f|| <= tol_grad * ||f|| at the
    final eps of the schedule.
    """
    if p <= 1:
        raise ValueError(f"inner solve requires p > 1, got p = {p}")
    cfg.validate_for(p)
    grid = f.grid
    fnorm = float(np.linalg.norm(f.values))
    if fnorm == 0.0:
        if stats is not None:
            stats["iters"] = 0
        return Field.zeros(grid)
    if p == 2.0 and cfg.method == "auto":
        return solve_linear_cg(f, cfg, x0=x0, stats=stats)

    z = np.zeros(grid.n_nodes) if x0 is None else x0.values.copy()
    tol_abs = cfg.tol_grad * fnorm
    total_iters = 0
    for i, eps in enumerate(cfg.eps_schedule):
        final = i == len(cfg.eps_schedule) - 1
        stage_tol = tol_abs if final else max(10.0 * tol_abs, 1e-3 * fnorm)
        stage_cap = cfg.max_iters if final else max(200, cfg.max_iters // (4 * len(cfg.eps_schedule)))
        z, gnorm, stalled, iters = _bb_stage(grid, f.values, z, p, eps, stage_tol, stage_cap,
                                             history if final else None)
        total_iters += iters
        if final and gnorm > tol_abs:
            reason = "line search stalled" if stalled else f"{cfg.max_iters} iterations exhausted"
            raise ConvergenceError(
                f"inner solve missed tolerance {cfg.tol_grad:g} ({reason}; relative "
                f"gradient {gnorm / fnorm:.3e})",
                Field(grid, z), gnorm,
            )
    if stats is not None:
        stats["iters"] = total_iters
    return Field(grid, z)
