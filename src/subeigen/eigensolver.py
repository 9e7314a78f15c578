"""First Dirichlet (p,q)-eigenpair solver on a discretized box.

The eigenvalue is the minimum of the Rayleigh quotient

    R(u) = p_energy(u, p) / lq_norm(u, q)^p ,

and ``inverse_iteration`` reaches it by the nonlinear inverse power scheme
as a fixed point of F(w) = normalize(A^{-1} B(w)), accelerated by
safeguarded Anderson mixing.  Step n solves A(z) = B(w_n), sets
mu_n = ||z||_q^{1-p} and g_n = z/||z||_q; by degree-(p-1) homogeneity of A,
mu_n is the unique constant with A(g_n) = mu_n B(w_n).  An Anderson
extrapolation of the recent (w_i, g_i) pairs becomes w_{n+1} only if it
does not raise the quotient above R(g_n); otherwise w_{n+1} = g_n.  For any
unit-norm w_n, Hoelder gives R(g_n) <= mu_n <= R(w_n), so with exact inner
solves both {mu_n} and the quotients R(w_{n+1}) are nonincreasing and
squeeze onto a common limit >= the discrete minimum.  Steps far from the
fixed point solve inexactly, and such a solve is kept only if its mu_n
passes that bracket (within tol_inner), so the monotonicity holds for them
too.

It returns an EigenResult whose eigenfunction has unit L^q norm and
nonnegative node sum (sign fixed for deterministic output), and whose
history holds one IterationRecord per outer step.  It raises OverflowError
when the quotient of the start iterate leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import check_regime
from .inner_solver import ConvergenceError, solve_inner
from .mesh import Field, Grid, lq_norm, p_energy
from .operators import apply_B, residual

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "EigenResult",
    "rayleigh_quotient",
    "inverse_iteration",
    "normalize",
]


@dataclass
class SolverConfig:
    """Everything one eigenpair solve needs, and the owner of its defaults.

    (p, q) must lie in groups.check_regime's window and max_outer is an
    integer >= 1.  Tolerances must be finite and positive: tol_inner
    defaults to 1e-8 when p = 2 (CG path) and 1e-6 otherwise; tol_outer
    controls both the eigenvalue-change and iterate-change stops.  tol_inner
    is the inner tolerance of every inverse-iteration step that can end the
    run; earlier steps solve to the looser tau_n of inverse_iteration.  The
    inner solve's eps and step cap are fixed (see inner_solver).
    """

    grid: Grid
    p: float
    q: float
    tol_inner: float | None = None
    tol_outer: float = 1e-6
    max_outer: int = 500

    def __post_init__(self):
        message = check_regime(self.p, self.q, self.grid.group)
        if message is not None:
            raise ValueError(message)
        if self.tol_inner is None:
            self.tol_inner = 1e-8 if self.p == 2.0 else 1e-6
        for name in ("tol_inner", "tol_outer"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be finite and positive, got {tol}")
        if not isinstance(self.max_outer, (int, np.integer)) or self.max_outer < 1:
            raise ValueError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One outer step, whose n is its index in EigenResult.history; the
    fields are the remaining trace.csv columns.  unorm is the exact quotient
    of the next (unit-norm) iterate."""

    mu: float
    unorm: float
    change: float
    inner_iters: int
    residual: float


@dataclass
class EigenResult:
    """Converged (or best-effort) eigenpair with its iteration history;
    lambda_hat and residual are those of the last record."""

    eigenfunction: Field
    history: list[IterationRecord]
    converged: bool

    @property
    def lambda_hat(self) -> float:
        return self.history[-1].mu

    @property
    def residual(self) -> float:
        return self.history[-1].residual

    @property
    def outer_iters(self) -> int:
        return len(self.history)

    # The benchmark harness in perfbench/ sums this per solve to cross-check
    # its own inner-iteration count, so the name stays as a derived view.
    @property
    def inner_iters_trace(self) -> list[int]:
        return [rec.inner_iters for rec in self.history]


def rayleigh_quotient(u: Field, p: float, q: float) -> float:
    """p_energy(u, p) / lq_norm(u, q)^p; scale invariant, undefined at u = 0."""
    if not np.any(u.values):
        raise ValueError("Rayleigh quotient is undefined for the zero field")
    return p_energy(u, p) / lq_norm(u, q) ** p


def normalize(u: Field, q: float) -> Field:
    """Rescale to unit L^q norm and flip sign so the node sum is >= 0."""
    nrm = lq_norm(u, q)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return _rescale(u, nrm)


def _rescale(u: Field, nrm: float) -> Field:
    """u / nrm, u's L^q norm already taken, sign flipped so the node sum is >= 0."""
    vals = u.values / nrm
    if vals.sum() < 0.0:
        vals = -vals
    return Field(u.grid, vals)


def _start_iterate(grid: Grid, p: float, q: float, start: Field | str) -> tuple[Field, float]:
    """Normalized start iterate and its exact p-energy; "default" is the
    product-tent bump, strictly positive and peaked at the box center.  An
    energy that overflows the float range raises OverflowError."""
    if isinstance(start, str):
        if start != "default":
            raise ValueError(f"unknown start {start!r}")

        def tent(*coords):
            out = np.ones_like(coords[0])
            for j, (lo, hi) in enumerate(grid.box):
                out = out * (1.0 - np.abs(2.0 * (coords[j] - lo) / (hi - lo) - 1.0))
            return out
        start = Field.from_function(grid, tent)
    elif start.grid != grid:
        raise ValueError("start iterate lives on a different grid")
    elif not np.all(np.isfinite(start.values)):
        raise ValueError("start iterate must be finite")
    elif not np.any(start.values):
        raise ValueError("start iterate must be nonzero")
    u = normalize(start, q)
    with np.errstate(over="ignore"):
        energy = p_energy(u, p)
    if not math.isfinite(energy):
        raise OverflowError(f"the Rayleigh quotient of the start iterate overflows the "
                            f"float range at p={p:g}")
    return u, energy


# Anderson mixing depth: the number of past differences the extrapolation
# uses, those of the last _ANDERSON_DEPTH + 1 (w, g) pairs.
_ANDERSON_DEPTH = 5

# Inexact inner solves: while the iterate is still moving, step n first solves
# to _LOOSE_FACTOR times the previous fixed-point residual, capped at _LOOSE_CAP.
_LOOSE_FACTOR = 0.1
_LOOSE_CAP = 1e-2


def _anderson_candidate(pairs: list[tuple[Field, np.ndarray]], R_g: float, p: float,
                        q: float) -> tuple[Field, float, list[tuple[Field, np.ndarray]]]:
    """(next iterate, its exact quotient R, pairs to keep) from the kept pairs
    (g_i, f_i = g_i - w_i), oldest first with (g_n, f_n) last, and R_g = R(g_n):
    the normalized g_n - dG gamma of the last _ANDERSON_DEPTH + 1 pairs, gamma
    the least-squares fit of f_n by the differences dF of their f_i and dG those
    of their g_i, if finite, nonzero and R <= R_g; else g_n, restarting from it."""
    pairs = pairs[-_ANDERSON_DEPTH - 1:]
    g, f = pairs[-1]
    if len(pairs) > 1:
        dG = np.array([new.values - old.values for (old, _), (new, _) in zip(pairs, pairs[1:])])
        dF = np.array([new - old for (_, old), (_, new) in zip(pairs, pairs[1:])])
        try:
            cand = Field(g.grid, g.values - dG.T @ np.linalg.lstsq(dF.T, f, rcond=None)[0])
        except np.linalg.LinAlgError:
            return g, R_g, pairs[-1:]
        nrm = lq_norm(cand, q)
        if math.isfinite(nrm) and nrm > 0.0:
            cand = _rescale(cand, nrm)
            if (R := p_energy(cand, p)) <= R_g:
                return cand, R, pairs
    return g, R_g, pairs[-1:]


def _in_hoelder_bracket(z: Field, p: float, q: float, R_w: float, slack: float) -> bool:
    """Whether mu = ||z||_q^{1-p} of an inexact solution z of A(z) = B(w)
    obeys R(z) (1 - slack) <= mu <= R(w) (1 + slack), the bound an exact
    solution meets; R(w) = R_w is given."""
    znorm = lq_norm(z, q)
    if not 0.0 < znorm < math.inf:
        return False
    mu = znorm ** (1.0 - p)
    return p_energy(z, p) / znorm ** p * (1.0 - slack) <= mu <= R_w * (1.0 + slack)


def inverse_iteration(cfg: SolverConfig, w0: Field | str = "default") -> EigenResult:
    """Nonlinear inverse power iteration for the first (p,q)-eigenpair.

    Step n solves A(z) = B(w_n) and sets mu_n = ||z||_q^{1-p} and
    g_n = normalize(z).  The next iterate w_{n+1} is the Anderson
    extrapolation of the last _ANDERSON_DEPTH + 1 pairs (w_i, g_i), accepted
    only if it is finite, nonzero and R(w_{n+1}) <= R(g_n) with R the exact
    (eps = 0) quotient; otherwise w_{n+1} = g_n and the history restarts
    from (w_n, g_n).  Since R(g_n) <= mu_n <= R(w_n) for unit-norm w_n, the
    safeguard keeps the records' mu nonincreasing and unorm = R(w_{n+1})
    below mu_n.  Record n's change is the fixed-point residual
    ||g_n - w_n||_q, and the next solve is warm-started from
    w_{n+1} mu_n^{1/(1-p)}.

    Step n first solves to tau_n = max(tol_inner, min(_LOOSE_CAP,
    _LOOSE_FACTOR * change_{n-1})), step 0 to max(tol_inner, _LOOSE_CAP),
    and every step after a change <= tol_outer to tol_inner.  A loose solve
    is kept only if R(g_n)(1 - tol_inner) <= mu_n <= R(w_n)(1 + tol_inner),
    the Hoelder bracket with slack; otherwise the same inner solve goes on
    from there one decade tighter, tau_n / 10, tau_n / 100, ..., asking the
    bracket again at each decade above tol_inner and ending at tol_inner.
    So mu stays nonincreasing and unorm below mu within a slack of about
    2 tol_inner.

    Stops once both the relative mu-change and the fixed-point residual drop
    below tol_outer on a step solved to tol_inner, or at max_outer with
    converged = False; the first stop is converged only if the quotient gap
    |R(g_n) - mu_n| is at most tol_outer mu_n too.  The returned
    eigenfunction, residual and lambda_hat = mu_n belong to g_n of the last
    completed step.  An inner solve that raises ConvergenceError also stops
    the iteration with converged = False, returning the last completed step;
    if the very first inner solve fails, the error propagates.  A zero or
    non-finite inner solution signals a solver defect and raises RuntimeError.
    """
    p, q = cfg.p, cfg.q
    w, R_w = _start_iterate(cfg.grid, p, q, w0)

    history: list[IterationRecord] = []
    pairs: list[tuple[Field, np.ndarray]] = []  # (g_i, f_i = g_i - w_i), oldest first
    converged = False
    tol, loose_tol = cfg.tol_inner, _LOOSE_CAP
    for _ in range(cfg.max_outer):
        stats: dict = {}
        # warm start near the expected fixed point z* = mu^{1/(1-p)} w
        warm = w * (history[-1].mu ** (1.0 / (1.0 - p))) if history else None
        try:
            z = solve_inner(apply_B(w, q), p, tol, x0=warm, stats=stats,
                            loose=(loose_tol, lambda z: _in_hoelder_bracket(z, p, q, R_w, tol)))
        except ConvergenceError:
            if not history:
                raise
            break
        znorm = lq_norm(z, q)
        if znorm == 0.0 or not math.isfinite(znorm):
            raise RuntimeError("inner solver returned a degenerate iterate; A(z) = B(w) has a "
                               "nonzero solution for nonzero w, so this indicates a solver bug")
        mu = znorm ** (1.0 - p)
        g = _rescale(z, znorm)
        pairs.append((g, g.values - w.values))
        R_g = p_energy(g, p)
        w_next, R_next, pairs = _anderson_candidate(pairs, R_g, p, q)
        change = lq_norm(g - w, q)
        history.append(IterationRecord(mu, R_next, change, stats["iters"],
                                       residual(g, mu, p, q)))
        w, R_w = w_next, R_next
        if (not stats["loose"] and len(history) > 1
                and abs(history[-2].mu - mu) <= cfg.tol_outer * mu and change <= cfg.tol_outer):
            converged = abs(R_g - mu) <= cfg.tol_outer * mu
            break
        loose_tol = tol if change <= cfg.tol_outer else min(_LOOSE_CAP, _LOOSE_FACTOR * change)

    return EigenResult(g, history, converged)

