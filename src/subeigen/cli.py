"""Command line front end: single eigenpair runs and (p,q) sweeps.

Configuration comes from a JSON file (--config) updated by flags that
mirror the config fields one to one.  A run writes into --out:

* ``summary.json`` -- group/box/resolution/exponents, lambda_hat, residual,
  convergence flag, iteration count, runtime, the regularity report, and
  (method = both) both method values with their relative gap.
* ``trace.csv`` -- the solver's history, one row per outer step: n, mu_n,
  unorm_p, lq_change, inner_iters, residual, with an empty cell where the
  method has no value (rayleigh's unorm_p and residual before the last row).
* ``field.csv`` (--dump-field) -- eigenfunction node values with coordinates.
* ``results.csv`` (sweep mode) -- one row per (p, q) pair in lexicographic
  order; out-of-window pairs are skipped with a warning.

Exit codes: 0 converged, 2 ran but not converged (results still written;
an inner solve that fails after the first outer step ends a run this way),
1 configuration or validation error (including out-of-range solver
settings), or an inner solve that fails on the first outer step.
Identical config and seed give byte-identical outputs except for the
runtime_seconds field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import regularity_report
from .eigensolver import EigenResult, SolverConfig, inverse_iteration, rayleigh_minimize
from .groups import check_regime, get_group
from .inner_solver import ConvergenceError
from .mesh import build_grid, dump_field_csv
from .oracle import NODE_CAP, brute_force_lambda

__all__ = ["RunConfig", "run", "sweep", "main"]


@dataclass
class RunConfig:
    group: str = "euclidean2"
    box: list = field(default_factory=lambda: [[0.0, 1.0], [0.0, 1.0]])
    resolution: list = field(default_factory=lambda: [16, 16])
    p: float = 2.0
    q: float = 2.0
    method: str = "inverse"  # inverse | rayleigh | both
    tol_inner: float | None = None
    tol_outer: float = 1e-6
    eps_floor: float = 1e-8
    max_outer: int = 500
    max_inner: int = 100_000
    seed: int = 0
    output_dir: str = "subeigen_out"
    dump_field: bool = False
    oracle: bool = False
    sweep_p: list | None = None
    sweep_q: list | None = None

    def validate(self) -> str | None:
        """Returns an error message naming the violated requirement, or None."""
        try:
            group = get_group(self.group)
        except ValueError as exc:
            return str(exc)
        if self.method not in ("inverse", "rayleigh", "both"):
            return f"unknown method {self.method!r} (inverse | rayleigh | both)"
        N = group.topological_dim
        if len(self.box) != N:
            return f"group {self.group} needs {N} box axes, got {len(self.box)}"
        if any(len(ax) != 2 or not ax[0] < ax[1] for ax in self.box):
            return f"every box axis needs lo < hi, got {self.box}"
        if len(self.resolution) != N:
            return f"group {self.group} needs {N} resolution entries, got {len(self.resolution)}"
        if any(int(r) < 1 for r in self.resolution):
            return f"resolution must be >= 1 per axis, got {self.resolution}"
        if self.sweep_p is None and self.sweep_q is None:
            return check_regime(self.p, self.q, group)
        return None


def _float_repr(x) -> str:
    """CSV cell for a float; None, a value the method lacks, is empty."""
    return "" if x is None else repr(float(x))


def _solver_config(cfg: RunConfig, grid, p: float, q: float) -> SolverConfig:
    return SolverConfig(
        grid=grid, p=p, q=q, tol_inner=cfg.tol_inner, tol_outer=cfg.tol_outer,
        eps_floor=cfg.eps_floor, max_inner=cfg.max_inner, max_outer=cfg.max_outer,
    )


def _write_trace(result: EigenResult, path: Path) -> None:
    """One row per history record, its fields in order."""
    with open(path, "w", newline="") as fh:
        fh.write("n,mu_n,unorm_p,lq_change,inner_iters,residual\n")
        for n, rec in enumerate(result.history):
            fh.write(f"{n},{_float_repr(rec.mu)},{_float_repr(rec.unorm)},"
                     f"{_float_repr(rec.change)},{rec.inner_iters},"
                     f"{_float_repr(rec.residual)}\n")


def run(cfg: RunConfig) -> int:
    """Single eigenpair run; writes summary.json, trace.csv and extras."""
    message = cfg.validate()
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
        return 1
    group = get_group(cfg.group)
    grid = build_grid(group, [tuple(ax) for ax in cfg.box], cfg.resolution)
    if cfg.oracle and grid.n_nodes > NODE_CAP:
        print(f"error: --oracle needs at most {NODE_CAP} interior nodes, "
              f"grid has {grid.n_nodes}", file=sys.stderr)
        return 1
    solver_cfg = _solver_config(cfg, grid, cfg.p, cfg.q)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    results: dict[str, EigenResult] = {}
    if cfg.method in ("inverse", "both"):
        results["inverse"] = inverse_iteration(solver_cfg)
    if cfg.method in ("rayleigh", "both"):
        results["rayleigh"] = rayleigh_minimize(solver_cfg)
    runtime = time.perf_counter() - t0

    primary = results.get("inverse", results.get("rayleigh"))
    report = regularity_report(primary.eigenfunction, primary.lambda_hat, cfg.p, cfg.q)
    summary = {
        "group": cfg.group,
        "box": [[float(lo), float(hi)] for lo, hi in cfg.box],
        "resolution": [int(r) for r in cfg.resolution],
        "p": float(cfg.p),
        "q": float(cfg.q),
        "method": cfg.method,
        "lambda_hat": primary.lambda_hat,
        "converged": all(r.converged for r in results.values()),
        "outer_iters": primary.outer_iters,
        "residual": primary.residual,
        "runtime_seconds": runtime,
        "regularity": dataclasses.asdict(report),
    }
    if cfg.method == "both":
        li, lr = results["inverse"].lambda_hat, results["rayleigh"].lambda_hat
        summary["lambda_hat_inverse"] = li
        summary["lambda_hat_rayleigh"] = lr
        summary["rel_gap"] = abs(li - lr) / max(abs(li), abs(lr))
    if cfg.oracle:
        summary["oracle_lambda"] = brute_force_lambda(grid, cfg.p, cfg.q,
                                                      seed=cfg.seed).lambda_star

    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_trace(primary, out / "trace.csv")
    if cfg.dump_field:
        dump_field_csv(primary.eigenfunction, out / "field.csv")
    return 0 if summary["converged"] else 2


def sweep(cfg: RunConfig) -> int:
    """Grid of (p, q) runs; writes one results.csv row per in-window pair."""
    base_message = dataclasses.replace(cfg, sweep_p=None, sweep_q=None, p=2.0, q=2.0).validate()
    if base_message is not None:
        print(f"error: {base_message}", file=sys.stderr)
        return 1
    group = get_group(cfg.group)
    ps = sorted(set(float(p) for p in (cfg.sweep_p or [cfg.p])))
    qs = sorted(set(float(q) for q in (cfg.sweep_q or [cfg.q])))
    pairs = []
    for p in ps:
        for q in qs:
            message = check_regime(p, q, group)
            if message is None:
                pairs.append((p, q))
            else:
                print(f"warning: skipping (p={p:g}, q={q:g}): {message}", file=sys.stderr)
    if not pairs:
        print("error: sweep has no admissible (p, q) pairs", file=sys.stderr)
        return 1

    grid = build_grid(group, [tuple(ax) for ax in cfg.box], cfg.resolution)
    solver_cfgs = {(p, q): _solver_config(cfg, grid, p, q) for p, q in pairs}
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    solver = rayleigh_minimize if cfg.method == "rayleigh" else inverse_iteration
    results = {pair: solver(solver_cfg) for pair, solver_cfg in solver_cfgs.items()}

    with open(out / "results.csv", "w", newline="") as fh:
        fh.write("p,q,lambda_hat,residual,outer_iters,converged\n")
        for pair, r in results.items():
            fh.write(f"{_float_repr(pair[0])},{_float_repr(pair[1])},"
                     f"{_float_repr(r.lambda_hat)},{_float_repr(r.residual)},"
                     f"{r.outer_iters},{str(r.converged).lower()}\n")
    return 0 if all(r.converged for r in results.values()) else 2


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subeigen",
        description="First Dirichlet (p,q)-eigenpair of the horizontal p-Laplacian "
                    "on a box, by inverse iteration and/or Rayleigh quotient descent.",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    parser.add_argument("--group", help="euclidean2 | heisenberg1")
    parser.add_argument("--box", help="comma separated lo,hi per axis, e.g. 0,1,0,1")
    parser.add_argument("--resolution", help="comma separated interior node counts per axis")
    parser.add_argument("--p", type=float, help="gradient exponent p > 1")
    parser.add_argument("--q", type=float, help="norm exponent q > 1")
    parser.add_argument("--method", help="inverse | rayleigh | both")
    parser.add_argument("--tol-inner", type=float, dest="tol_inner")
    parser.add_argument("--tol-outer", type=float, dest="tol_outer")
    parser.add_argument("--eps-floor", type=float, dest="eps_floor")
    parser.add_argument("--max-outer", type=int, dest="max_outer")
    parser.add_argument("--max-inner", type=int, dest="max_inner")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--dump-field", action="store_true", default=None)
    parser.add_argument("--oracle", action="store_true", default=None,
                        help="also run the tiny-grid reference solver")
    parser.add_argument("--sweep-p", dest="sweep_p", help="comma separated p values")
    parser.add_argument("--sweep-q", dest="sweep_q", help="comma separated q values")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data.update(json.load(fh))
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in known:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "box":
            flat = _parse_floats(value)
            if len(flat) % 2:
                raise ValueError("--box needs an even number of values (lo,hi per axis)")
            value = [[flat[i], flat[i + 1]] for i in range(0, len(flat), 2)]
        elif name == "resolution":
            value = [int(v) for v in _parse_floats(value)]
        elif name in ("sweep_p", "sweep_q"):
            value = _parse_floats(value)
        data[name] = value
    return RunConfig(**data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.sweep_p is not None or cfg.sweep_q is not None:
            return sweep(cfg)
        return run(cfg)
    except (ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
