"""Command line front end: single eigenpair runs and (p,q) sweeps.

The CLI only parses input, writes artifacts and reports errors: Grid owns
the group, box and resolution rules, SolverConfig the exponents and solver
settings.  A JSON object in a file (--config), updated by flags that mirror
its fields one to one, configures a run, which writes into --out.  The one
flag without a field is the deprecated --method (inverse | both): every
solve is an inverse_iteration, so main warns once and ignores it.

* ``summary.json`` -- group/box/resolution/exponents, lambda_hat, residual, convergence
  flag, iteration count, runtime (of inverse_iteration) and the regularity report.
* ``trace.csv`` -- the solver's history, one row per outer step: n, mu_n,
  unorm_p, lq_change, inner_iters, residual.
* ``field.csv`` (--dump-field) -- eigenfunction node values with coordinates.
* ``results.csv`` (sweep mode, which takes no --oracle, --dump-field or
  empty p or q list) -- one row per (p, q) pair in lexicographic order;
  out-of-window pairs are skipped with a warning.

Exit codes: 0 converged, 2 ran but not converged (results still written;
an inner solve that fails after the first outer step, or a solve whose
quotient gap |R(g) - mu| stays above tol_outer mu at the stop, ends a run
this way),
1 command-line, configuration or validation error (including out-of-range
solver settings and exponents outside check_regime's window), an inner
solve that fails on the first outer step, or a start iterate whose Rayleigh
quotient overflows the float range (large p on a small box; the message
names p).  main reports every error as one ``error:`` line; an input
rejected before the solve writes no --out.
summary.json is strict JSON: a value that is not finite is written as null.
Identical config and seed give byte-identical outputs except for the
runtime_seconds field on one host with a fixed numpy SIMD path and a fixed
BLAS thread count (say OPENBLAS_NUM_THREADS=1); threaded BLAS reductions
can change the last bits of lambda_hat and the inner iteration counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import regularity_report
from .eigensolver import EigenResult, SolverConfig, inverse_iteration
from .groups import check_regime
from .inner_solver import ConvergenceError
from .mesh import build_grid, dump_field_csv
from .oracle import NODE_CAP, brute_force_lambda

__all__ = ["RunConfig", "run", "sweep", "main"]


@dataclass
class RunConfig:
    group: str = "euclidean2"
    box: list[list[float]] = field(default_factory=lambda: [[0.0, 1.0], [0.0, 1.0]])
    resolution: list[int] = field(default_factory=lambda: [16, 16])
    p: float = 2.0
    q: float = 2.0
    tol_inner: float | None = SolverConfig.tol_inner
    tol_outer: float = SolverConfig.tol_outer
    max_outer: int = SolverConfig.max_outer
    seed: int = 0
    output_dir: str = "subeigen_out"
    dump_field: bool = False
    oracle: bool = False
    sweep_p: list[float] | None = None
    sweep_q: list[float] | None = None

    def __post_init__(self):
        """Rejects what the command line alone can get wrong; Grid checks the
        group, box and resolution, SolverConfig the exponents and settings."""
        for name in ("oracle", "dump_field"):
            if self.sweeping and getattr(self, name):
                raise ValueError(f"{name} applies to a single run, not a sweep")
        for name in ("sweep_p", "sweep_q"):
            if getattr(self, name) == []:  # an empty list would fall back to p or q
                raise ValueError(f"{name} needs at least one value")
        if any(len(ax) != 2 for ax in self.box):
            raise ValueError(f"every box axis needs a lo,hi pair, got {self.box}")

    @property
    def sweeping(self) -> bool:
        return self.sweep_p is not None or self.sweep_q is not None


def _conforms(value, kind) -> bool:
    """Whether a JSON value has the annotated type; an int is a float, a bool no number."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if args:
        return any(_conforms(value, arg) for arg in args)
    return isinstance(value, (int, float) if kind is float else kind) and (
        kind is bool or not isinstance(value, bool))


def _float_repr(x) -> str:
    """CSV cell for a float."""
    return repr(float(x))


def _finite_or_null(x):
    """``x`` with every float that is not finite replaced by None (JSON null)."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _solver_config(cfg: RunConfig, grid, p: float, q: float) -> SolverConfig:
    return SolverConfig(grid=grid, p=p, q=q, tol_inner=cfg.tol_inner,
                        tol_outer=cfg.tol_outer, max_outer=cfg.max_outer)


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
    grid = build_grid(cfg.group, cfg.box, cfg.resolution)
    if cfg.oracle and grid.n_nodes > NODE_CAP:
        raise ValueError(f"--oracle needs at most {NODE_CAP} interior nodes, "
                         f"grid has {grid.n_nodes}")
    solver_cfg = _solver_config(cfg, grid, cfg.p, cfg.q)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = inverse_iteration(solver_cfg)
    runtime = time.perf_counter() - t0

    report = regularity_report(result.eigenfunction, result.lambda_hat, cfg.p, cfg.q)
    summary = {
        "group": cfg.group,
        "box": [[float(lo), float(hi)] for lo, hi in cfg.box],
        "resolution": [int(r) for r in cfg.resolution],
        "p": float(cfg.p),
        "q": float(cfg.q),
        "lambda_hat": result.lambda_hat,
        "converged": result.converged,
        "outer_iters": result.outer_iters,
        "residual": result.residual,
        "runtime_seconds": runtime,
        "regularity": dataclasses.asdict(report),
    }
    if cfg.oracle:
        summary["oracle_lambda"] = brute_force_lambda(grid, cfg.p, cfg.q,
                                                      seed=cfg.seed).lambda_star

    with open(out / "summary.json", "w") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_trace(result, out / "trace.csv")
    if cfg.dump_field:
        dump_field_csv(result.eigenfunction, out / "field.csv")
    return 0 if result.converged else 2


def sweep(cfg: RunConfig) -> int:
    """Grid of (p, q) runs; writes one results.csv row per in-window pair."""
    grid = build_grid(cfg.group, cfg.box, cfg.resolution)
    ps = sorted(set(float(p) for p in (cfg.sweep_p or [cfg.p])))
    qs = sorted(set(float(q) for q in (cfg.sweep_q or [cfg.q])))
    pairs = []
    for p in ps:
        for q in qs:
            message = check_regime(p, q, grid.group)
            if message is None:
                pairs.append((p, q))
            else:
                print(f"warning: skipping (p={p:g}, q={q:g}): {message}", file=sys.stderr)
    if not pairs:
        raise ValueError("sweep has no admissible (p, q) pairs")

    solver_cfgs = {(p, q): _solver_config(cfg, grid, p, q) for p, q in pairs}
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = {pair: inverse_iteration(solver_cfg) for pair, solver_cfg in solver_cfgs.items()}

    with open(out / "results.csv", "w", newline="") as fh:
        fh.write("p,q,lambda_hat,residual,outer_iters,converged\n")
        for pair, r in results.items():
            fh.write(f"{_float_repr(pair[0])},{_float_repr(pair[1])},"
                     f"{_float_repr(r.lambda_hat)},{_float_repr(r.residual)},"
                     f"{r.outer_iters},{str(r.converged).lower()}\n")
    return 0 if all(r.converged for r in results.values()) else 2


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # main reports it in one line with exit code 1
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="subeigen",
        description="First Dirichlet (p,q)-eigenpair of the horizontal p-Laplacian "
                    "on a box, by nonlinear inverse iteration.",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    parser.add_argument("--group", help="euclidean2 | heisenberg1")
    parser.add_argument("--box", help="comma separated lo,hi per axis, e.g. 0,1,0,1")
    parser.add_argument("--resolution", help="comma separated interior node counts per axis")
    parser.add_argument("--p", type=float, help="gradient exponent p > 1")
    parser.add_argument("--q", type=float, help="norm exponent q > 1")
    parser.add_argument("--method", choices=("inverse", "both"),
                        help="deprecated and ignored: every run uses inverse iteration")
    parser.add_argument("--tol-inner", type=float, help="inner tolerance of every outer step "
                        "that can end the run; earlier steps solve more loosely (default "
                        "1e-8 at p = 2, 1e-6 otherwise)")
    parser.add_argument("--tol-outer", type=float, help="outer stop tolerance "
                        f"(default {SolverConfig.tol_outer:g})")
    parser.add_argument("--max-outer", type=int, help="outer step cap "
                        f"(default {SolverConfig.max_outer})")
    parser.add_argument("--seed", type=int, help="seed of the --oracle multistart (default 0)")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--dump-field", action="store_true", default=None)
    parser.add_argument("--oracle", action="store_true", default=None,
                        help="also run the tiny-grid reference solver")
    parser.add_argument("--sweep-p", help="comma separated p values")
    parser.add_argument("--sweep-q", help="comma separated q values")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean",
                    type(None): "null"}.get(type(data), "a number")
            raise ValueError(f"--config must hold a JSON object, got {kind}")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in known:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name in ("box", "resolution", "sweep_p", "sweep_q"):
            kind = int if name == "resolution" else float
            try:
                value = [kind(tok) for tok in value.replace(",", " ").split()]
            except ValueError:
                raise ValueError(f"--{name.replace('_', '-')} needs comma separated "
                                 f"{kind.__name__} values, got {value!r}") from None
        if name == "box":
            value = [value[i:i + 2] for i in range(0, len(value), 2)]
        data[name] = value
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(RunConfig):
        if f.name in data and not _conforms(data[f.name], hints[f.name]):
            raise ValueError(f"config value {f.name} = {data[f.name]!r} is not {f.type}")
    return RunConfig(**data)


def main(argv=None) -> int:
    """The one place that reports an error: one line on stderr, exit code 1."""
    try:
        args = build_parser().parse_args(argv)
        if args.method is not None:
            print(f"warning: --method {args.method} is deprecated and ignored; "
                  f"every run uses inverse iteration", file=sys.stderr)
        cfg = config_from_args(args)
        return sweep(cfg) if cfg.sweeping else run(cfg)
    except (ConvergenceError, OSError, OverflowError, ValueError) as exc:
        # JSONDecodeError is a ValueError; OverflowError a start quotient past float range
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
