"""Regularity diagnostics for converged eigenfunctions.

Numerically exercises the qualitative eigenfunction properties: the
L-infinity bound via superlevel-set decay (De Giorgi style: one threshold,
constant and exponent alpha for both cases q <= p and q > p, written in
r = max(p, q)), interior positivity, and the measure-scaling law of the
Sobolev-type embedding

    ||u||_l  <=  S |Omega|^{1/l - 1/p + 1/nu} ||grad_H u||_p .

The report takes S from u's own embedding quotient, a lower bound on the
discrete best constant (``estimate_sobolev_constant``), so each threshold
and decay bound it tests is at most the exact one, and it runs no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import SolverConfig, inverse_iteration, normalize, rayleigh_quotient
from .mesh import Field, Grid, lq_norm, p_energy

__all__ = [
    "RegularityReport",
    "ThresholdInfo",
    "estimate_sobolev_constant",
    "sobolev_constant_from_lambda",
    "linf_threshold",
    "level_set_measure",
    "positivity_check",
    "decay_inequality_checks",
    "regularity_report",
    "embedding_ratio",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass
class ThresholdInfo:
    k: float
    case_tag: str  # "I" (q <= p) or "II" (q > p)
    alpha: float | None  # case II only


@dataclass
class RegularityReport:
    sup_norm: float
    k_threshold: float
    case_tag: str
    alpha: float | None
    level_measures: list[tuple[float, float]]
    min_on_core: float
    positive: bool


def embedding_ratio(u: Field, p: float, l: float) -> float:
    """||u||_l / p_energy(u, p)^{1/p}, the raw embedding quotient."""
    return lq_norm(u, l) / p_energy(u, p) ** (1.0 / p)


def sobolev_constant_from_lambda(lam: float, grid: Grid, p: float, l: float) -> float:
    """Best embedding constant from a first (p,l)-eigenvalue on the same grid.

    The maximizer of the embedding quotient is the (p,l) ground state, so
    S = lam^{-1/p} |Omega|^{-(1/l - 1/p + 1/nu)}.
    """
    nu = grid.group.homogeneous_dim
    return lam ** (-1.0 / p) * grid.box_volume ** (-(1.0 / l - 1.0 / p + 1.0 / nu))


def estimate_sobolev_constant(grid: Grid, p: float, l: float) -> float:
    """Discrete best constant of the volume-normalized embedding on this grid.

    Runs inverse_iteration with default settings for the (p, l) problem and
    rearranges; the result is the largest S-free ratio over all nonzero
    fields.  SolverConfig rejects an exponent pair outside the window.
    """
    result = inverse_iteration(SolverConfig(grid=grid, p=p, q=l))
    return sobolev_constant_from_lambda(result.lambda_hat, grid, p, l)


def _superlevel_exponents(p: float, q: float, nu: int) -> tuple[float, float]:
    """(r, alpha) = (max(p, q), p (1/r - 1/p + 1/nu)) of the superlevel bound;
    alpha = p/nu when q <= p.  alpha <= 0 is a ValueError."""
    r = max(p, q)
    alpha = p * (1.0 / r + (1.0 / nu - 1.0 / p))  # 1/r last would round away at huge r
    if alpha <= 0:
        raise ValueError(f"internal inconsistency: alpha = {alpha} must be positive in the "
                         f"subcritical window")
    return r, alpha


def linf_threshold(lam: float, S: float, l1_norm: float, p: float, q: float,
                   nu: int) -> ThresholdInfo:
    """Superlevel threshold k = (2^r S lam)^{1/alpha} ||u||_1 above which the
    decay inequality takes hold, (r, alpha) as in _superlevel_exponents and S
    the (p, r) constant; only case II (q > p) reports alpha.  k is floored at
    1, matching the level range the bound addresses, and computed in
    logarithms: a threshold beyond the float range (large q) is inf.
    """
    if lam <= 0 or S <= 0 or l1_norm <= 0:
        raise ValueError("lam, S and the L^1 norm must all be positive")
    r, alpha = _superlevel_exponents(p, q, nu)
    log_base = math.log(S) + math.log(lam)
    log_k = (r * math.log(2.0) + log_base) / alpha + math.log(l1_norm)
    k = math.exp(max(log_k, 0.0)) if log_k < _LOG_FLOAT_MAX else math.inf
    return ThresholdInfo(k=k, case_tag="I" if q <= p else "II",
                         alpha=None if q <= p else alpha)


def level_set_measure(u: Field, k: float) -> float:
    """Volume of the discrete superlevel set {u > k}."""
    return float(np.count_nonzero(u.values > k) * u.grid.cell_volume)


def positivity_check(u: Field) -> tuple[bool, float]:
    """(all interior values positive, min over the centered half-size sub-box)."""
    if not np.any(u.values):
        raise ValueError("positivity check is undefined for the zero field")
    positive = bool(np.all(u.values > 0.0))
    core = u.grid.core_mask()
    c = float(np.min(u.values[core])) if np.any(core) else float("nan")
    return positive, c


def _level_grid(u: Field, k_start: float) -> list[tuple[float, float]]:
    """(k, level_set_measure(u, k)) at k = k_start * 1.25^j, j = 0, 1, ...,
    up to the first empty superlevel set or 200 levels."""
    levels = [(k_start, level_set_measure(u, k_start))]
    while levels[-1][1] > 0.0 and len(levels) < 200:
        k = levels[-1][0] * 1.25
        levels.append((k, level_set_measure(u, k)))
    return levels


def decay_inequality_checks(u: Field, lam: float, S: float, p: float, q: float) -> list[dict]:
    """Evaluate the superlevel decay bound at each tested level.

    For the normalized eigenfunction the excess mass above level k must obey

        int_{u>k} (u - k) dV <= (lam S 2^r)^{1/(r-1)} k |{u>k}|^{1 + alpha/(r-1)}

    with (r, alpha) those of ``linf_threshold``, in both cases; nu is the
    homogeneous dimension of u's group, read from u's grid.  Levels follow
    the geometric grid starting at the threshold.  Returns one dict per
    level with keys k, measure, lhs, rhs, ok.
    """
    nu = u.grid.group.homogeneous_dim
    info = linf_threshold(lam, S, lq_norm(u, 1.0), p, q, nu)
    r, alpha = _superlevel_exponents(p, q, nu)
    vol = u.grid.cell_volume
    const = (lam * S * 2.0 ** r) ** (1.0 / (r - 1.0))
    expo = 1.0 + alpha / (r - 1.0)
    out = []
    for k, measure in _level_grid(u, info.k):
        lhs = float(np.sum(u.values[u.values > k] - k) * vol)
        rhs = const * k * measure ** expo
        out.append({"k": k, "measure": measure, "lhs": lhs, "rhs": rhs,
                    "ok": bool(lhs <= rhs * (1.0 + 1e-12))})
    return out


def regularity_report(u: Field, lam: float, p: float, q: float) -> RegularityReport:
    """Assemble the qualitative-property report for one converged eigenpair.

    ``u`` is renormalized to unit L^q norm internally (the bound is stated
    for that representative).  S comes from u's own (p, r) quotient,
    r = max(p, q): lam itself when r = q, else R_{p,r}(u) >= lambda_{p,r}.
    It is at most the discrete best constant, so sup|u| <= k_threshold,
    with margin k_threshold / sup_norm, implies the exact bound.
    """
    grid = u.grid
    nu = grid.group.homogeneous_dim
    u = normalize(u, q)
    r, _ = _superlevel_exponents(p, q, nu)
    S = sobolev_constant_from_lambda(lam if r == q else rayleigh_quotient(u, p, r),
                                     grid, p, r)
    info = linf_threshold(lam, S, lq_norm(u, 1.0), p, q, nu)
    positive, c = positivity_check(u)
    return RegularityReport(
        sup_norm=float(np.max(np.abs(u.values))),
        k_threshold=info.k,
        case_tag=info.case_tag,
        alpha=info.alpha,
        level_measures=_level_grid(u, info.k),
        min_on_core=c,
        positive=positive,
    )
