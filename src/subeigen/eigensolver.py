"""First Dirichlet (p,q)-eigenpair solvers on a discretized box.

Two independent routes to the same minimum of the Rayleigh quotient

    R(u) = p_energy(u, p) / lq_norm(u, q)^p :

* ``inverse_iteration`` -- the nonlinear inverse power scheme: solve
  A(z_{n+1}) = B(w_n), renormalize w_{n+1} = z_{n+1}/||z_{n+1}||_q and read
  off mu_n = ||z_{n+1}||_q^{1-p}.  By degree-(p-1) homogeneity of A this is
  the unique constant making the normalized iterate satisfy
  A(w_{n+1}) = mu_n B(w_n) exactly.  With exact inner solves both {mu_n}
  and the energies ||w_{n+1}||^p are nonincreasing and squeeze onto a
  common limit >= the discrete minimum.

* ``rayleigh_minimize`` -- projected descent on the unit L^q sphere along
  the scale-invariant quotient gradient A(u) - R(u) B(u), renormalizing
  each step, with a monotone Armijo line search on R.

Both return an EigenResult whose eigenfunction has unit L^q norm and
nonnegative node sum (sign fixed for deterministic output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inner_solver import ConvergenceError, InnerConfig, default_inner_config, solve_inner
from .mesh import Field, Grid, lq_norm, p_energy
from .operators import apply_A, apply_B, residual

__all__ = [
    "SolverConfig",
    "EigenResult",
    "rayleigh_quotient",
    "inverse_iteration",
    "rayleigh_minimize",
    "normalize",
]


@dataclass
class SolverConfig:
    """Everything one eigenpair solve needs.

    tol_inner defaults to 1e-8 when p = 2 (CG path) and 1e-6 otherwise;
    tol_outer controls both the eigenvalue-change and iterate-change stops.
    """

    grid: Grid
    p: float
    q: float
    tol_inner: float | None = None
    tol_outer: float = 1e-6
    eps_floor: float = 1e-8
    max_inner: int = 100_000
    max_outer: int = 500

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"requires p > 1, got p = {self.p}")
        if self.q <= 1:
            raise ValueError(f"requires q > 1, got q = {self.q}")
        if self.tol_inner is None:
            self.tol_inner = 1e-8 if self.p == 2.0 else 1e-6
        if self.tol_outer <= 0:
            raise ValueError(f"tol_outer must be positive, got {self.tol_outer}")

    def inner_config(self) -> InnerConfig:
        return default_inner_config(self.p, tol_grad=self.tol_inner,
                                    max_iters=self.max_inner, eps_floor=self.eps_floor)


@dataclass
class EigenResult:
    """Converged (or best-effort) eigenpair with its iteration history."""

    lambda_hat: float
    eigenfunction: Field
    mu_trace: list[float]
    unorm_trace: list[float]
    change_trace: list[float]
    residual: float
    converged: bool
    outer_iters: int
    inner_iters_trace: list[int] = field(default_factory=list)
    residual_trace: list[float] = field(default_factory=list)
    method: str = ""


def rayleigh_quotient(u: Field, p: float, q: float) -> float:
    """p_energy(u, p) / lq_norm(u, q)^p; scale invariant, undefined at u = 0."""
    if not np.any(u.values):
        raise ValueError("Rayleigh quotient is undefined for the zero field")
    return p_energy(u, p, 0.0) / lq_norm(u, q) ** p


def normalize(u: Field, q: float) -> Field:
    """Rescale to unit L^q norm and flip sign so the node sum is >= 0."""
    nrm = lq_norm(u, q)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    vals = u.values / nrm
    if vals.sum() < 0.0:
        vals = -vals
    return Field(u.grid, vals)


def _default_start(grid: Grid, q: float) -> Field:
    """Normalized product-tent bump: strictly positive, peaked at the box center."""
    def tent(*coords):
        out = np.ones_like(coords[0])
        for j, (lo, hi) in enumerate(grid.box):
            out = out * (1.0 - np.abs(2.0 * (coords[j] - lo) / (hi - lo) - 1.0))
        return out
    return normalize(Field.from_function(grid, tent), q)


def inverse_iteration(cfg: SolverConfig, w0: Field | str = "default") -> EigenResult:
    """Nonlinear inverse power iteration for the first (p,q)-eigenpair.

    Each step solves A(z) = B(w_n) and renormalizes; mu_n = ||z||_q^{1-p}.
    Stops once both the relative mu-change and the L^q change of successive
    normalized iterates drop below tol_outer, or at max_outer with
    converged = False.  An inner solve that raises ConvergenceError also
    stops the iteration with converged = False, returning the last completed
    step; if the very first inner solve fails, the error propagates.  A zero
    inner solution signals a solver defect and raises RuntimeError.
    """
    p, q = cfg.p, cfg.q
    if isinstance(w0, str):
        if w0 != "default":
            raise ValueError(f"unknown start {w0!r}")
        w = _default_start(cfg.grid, q)
    else:
        if w0.grid != cfg.grid:
            raise ValueError("start iterate lives on a different grid")
        if not np.any(w0.values):
            raise ValueError("start iterate must be nonzero")
        w = normalize(w0, q)
    icfg = cfg.inner_config()

    mu_trace: list[float] = []
    unorm_trace: list[float] = []
    change_trace: list[float] = []
    inner_iters: list[int] = []
    resid_trace: list[float] = []
    converged = False
    mu_prev = None
    warm: Field | None = None
    for _ in range(cfg.max_outer):
        rhs = apply_B(w, q)
        stats: dict = {}
        try:
            z = solve_inner(rhs, p, icfg, x0=warm, stats=stats)
        except ConvergenceError:
            if not mu_trace:
                raise
            break
        znorm = lq_norm(z, q)
        if znorm == 0.0 or not math.isfinite(znorm):
            raise RuntimeError(
                "inner solver returned a degenerate iterate; A(z) = B(w) has a "
                "nonzero solution for nonzero w, so this indicates a solver bug"
            )
        mu = znorm ** (1.0 - p)
        w_next = normalize(z, q)
        mu_trace.append(mu)
        unorm_trace.append(p_energy(w_next, p, 0.0))
        change_trace.append(lq_norm(w_next - w, q))
        inner_iters.append(int(stats.get("iters", 0)))
        resid_trace.append(residual(w_next, mu, p, q))
        # warm start the next solve near the expected fixed point z* = mu^{1/(1-p)} w
        warm = w_next * (mu ** (1.0 / (1.0 - p)))
        w = w_next
        if mu_prev is not None:
            if abs(mu_prev - mu) <= cfg.tol_outer * mu and change_trace[-1] <= cfg.tol_outer:
                converged = True
                break
        mu_prev = mu

    lam = mu_trace[-1]
    return EigenResult(
        lambda_hat=lam,
        eigenfunction=w,
        mu_trace=mu_trace,
        unorm_trace=unorm_trace,
        change_trace=change_trace,
        residual=resid_trace[-1],
        converged=converged,
        outer_iters=len(mu_trace),
        inner_iters_trace=inner_iters,
        residual_trace=resid_trace,
        method="inverse",
    )


def rayleigh_minimize(cfg: SolverConfig, u0: Field | str = "default") -> EigenResult:
    """Monotone projected descent on the quotient over the unit L^q sphere.

    The descent direction at a normalized iterate is the quotient gradient
    A(u) - R(u) B(u); steps are renormalized and accepted only on sufficient
    decrease of R, so the quotient trace is nonincreasing by construction.
    Stops after 5 consecutive steps with relative change <= tol_outer.
    """
    p, q = cfg.p, cfg.q
    if isinstance(u0, str):
        if u0 != "default":
            raise ValueError(f"unknown start {u0!r}")
        u = _default_start(cfg.grid, q)
    else:
        if u0.grid != cfg.grid:
            raise ValueError("start iterate lives on a different grid")
        if not np.any(u0.values):
            raise ValueError("start iterate must be nonzero")
        u = normalize(u0, q)

    eps_grad = cfg.eps_floor if p < 2 else 0.0
    max_iters = 10 * cfg.max_outer
    patience_needed = 5
    vol = cfg.grid.cell_volume

    R = rayleigh_quotient(u, p, q)
    quot_trace = [R]
    change_trace: list[float] = []
    evals_trace: list[int] = []
    tau = 1.0 / float(np.max(cfg.grid.stiffness_diagonal))
    patience = 0
    converged = False
    u_prev_vals = g_prev = None
    for _ in range(max_iters):
        d = apply_A(u, p, eps_grad).values - R * apply_B(u, q).values
        if u_prev_vals is not None and g_prev is not None:
            s = u.values - u_prev_vals
            y = d - g_prev
            sy = float(np.dot(s, y))
            if sy > 0:
                tau = float(np.dot(s, s)) / sy
        tau = min(max(tau, 1e-18), 1e18)
        gsq = float(np.dot(d, d))
        step = tau
        accepted = False
        evals = 0
        u_new, R_new = u, R
        for _ in range(60):
            trial = normalize(Field(cfg.grid, u.values - step * d), q)
            R_trial = rayleigh_quotient(trial, p, q)
            evals += 1
            if R_trial <= R - 1e-4 * step * p * vol * gsq:
                u_new, R_new, accepted = trial, R_trial, True
                break
            step *= 0.5
        evals_trace.append(evals)
        if accepted:
            u_prev_vals, g_prev = u.values, d
            change_trace.append(lq_norm(u_new - u, q))
            u, R = u_new, R_new
        else:
            change_trace.append(0.0)
        quot_trace.append(R)
        rel_change = abs(quot_trace[-2] - quot_trace[-1]) / max(R, 1e-300)
        patience = patience + 1 if rel_change <= cfg.tol_outer else 0
        if patience >= patience_needed:
            converged = True
            break

    res = residual(u, R, p, q)
    return EigenResult(
        lambda_hat=R,
        eigenfunction=u,
        mu_trace=quot_trace,
        unorm_trace=[p_energy(u, p, 0.0)],
        change_trace=change_trace,
        residual=res,
        converged=converged,
        outer_iters=len(quot_trace) - 1,
        inner_iters_trace=evals_trace,
        residual_trace=[res],
        method="rayleigh",
    )
