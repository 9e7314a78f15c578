"""The benchmark's workloads: the solves each one runs, the inputs it makes
from the seed, and the references every returned eigenvalue is checked
against.

Each workload is a tuple of jobs.  A library job is one
``subeigen.inverse_iteration`` call on a grid the benchmark assembles; a CLI
job is one in-process ``subeigen.cli.main`` call.  Every job yields one
``Outcome`` per eigenvalue it returns.  See README.md for why each workload
exists and which later change it is meant to catch.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import subeigen as se
from subeigen import cli

# Stated accuracy of every lambda-hat against its reference.  It accepts the
# ~1e-6 relative shift of reporting R(w) instead of mu_n, and the ~1e-6
# spread that different starts give at the default inner tolerance.
REL_TOL = 1e-5

# Seed n != 0 multiplies the tent start by 1 + START_PERTURBATION * U[0, 1).
START_PERTURBATION = 0.01

GROUP_NAMES = {"E2": "euclidean2", "H1": "heisenberg1"}


def build_grid(group: str, n: int) -> se.Grid:
    """Unit box with n interior nodes per axis, every cached operator assembled."""
    dim = 2 if group == "E2" else 3
    grid = se.build_grid(GROUP_NAMES[group], [(0.0, 1.0)] * dim, (n,) * dim)
    return assemble(grid)


def assemble(grid: se.Grid) -> se.Grid:
    """Force the lazily cached operators that every solve uses."""
    grid.gradient_matrix
    grid.stiffness_p2
    grid.stiffness_diagonal
    return grid


@dataclass(frozen=True)
class Outcome:
    """One eigenvalue the program returned, or the error it gave instead."""

    label: str
    lam: float | None
    reference: float
    converged: bool
    error: str | None = None
    outer_steps: int | None = None
    inner_iters: int | None = None

    @property
    def rel_err(self) -> float:
        if self.lam is None:
            return float("inf")
        return abs(self.lam - self.reference) / abs(self.reference)

    @property
    def wrong(self) -> bool:
        """The program claimed convergence to a value outside the stated accuracy."""
        return self.error is None and self.converged and not self.rel_err <= REL_TOL

    @property
    def broken(self) -> bool:
        """Raised, exited with an error, or returned a wrong converged value."""
        return self.error is not None or self.wrong

    @property
    def solved(self) -> bool:
        return self.error is None and self.converged and self.rel_err <= REL_TOL


@dataclass(frozen=True)
class LibraryJob:
    """``inverse_iteration`` with default settings on one unit-box grid."""

    group: str
    n: int
    p: float
    q: float
    reference: float

    @property
    def label(self) -> str:
        dim = 2 if self.group == "E2" else 3
        return f"{self.group} {self.n}^{dim} p={self.p:g} q={self.q:g}"

    @property
    def grids(self) -> tuple[tuple[str, int], ...]:
        return ((self.group, self.n),)

    def start(self, grid: se.Grid, seed: int, index: int, draw: int):
        """Seed 0: the program's own default start.  Otherwise a positive
        perturbation of the same product tent, drawn from (seed, index, draw);
        each pass of a run takes its own draw."""
        if seed == 0:
            return "default"
        boxes = grid.box

        def tent(*coords):
            out = np.ones_like(coords[0])
            for x, (lo, hi) in zip(coords, boxes):
                out = out * (1.0 - np.abs(2.0 * (x - lo) / (hi - lo) - 1.0))
            return out

        rng = np.random.default_rng([seed, index, draw])
        base = se.Field.from_function(grid, tent).values
        return se.Field(grid, base * (1.0 + START_PERTURBATION * rng.random(grid.n_nodes)))

    def solve(self, grid: se.Grid, start):
        """Returns (EigenResult or None, outcome)."""
        cfg = se.SolverConfig(grid=grid, p=self.p, q=self.q)
        try:
            result = se.inverse_iteration(cfg, start)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            return None, Outcome(self.label, None, self.reference, False,
                                 f"{type(exc).__name__}: {exc}")
        return result, Outcome(self.label, float(result.lambda_hat), self.reference,
                               bool(result.converged), outer_steps=result.outer_iters,
                               inner_iters=sum(result.inner_iters_trace))


@dataclass(frozen=True)
class CliJob:
    """One in-process ``subeigen.cli.main`` call.

    ``references`` maps each (p, q) the call reports to its reference; a
    sweep reports one row per pair in results.csv, a single run one
    summary.json.
    """

    label: str
    argv: tuple[str, ...]
    group: str
    n: int
    references: tuple[tuple[tuple[float, float], float], ...]

    @property
    def grids(self) -> tuple[tuple[str, int], ...]:
        return ((self.group, self.n),)

    @property
    def is_sweep(self) -> bool:
        return "--sweep-p" in self.argv

    def call(self, out_dir: Path) -> int:
        """Exit code of ``main()``.  An exception escaping it counts as exit
        code 1, which is what the console script would return."""
        try:
            return cli.main(list(self.argv) + ["--out", str(out_dir)])
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            print(f"perfbench: {self.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1

    def outcomes(self, code: int, out_dir: Path) -> list[Outcome]:
        """Read the artifacts one ``call`` wrote into ``out_dir``."""
        found: dict[tuple[float, float], tuple[float, bool, int]] = {}
        if self.is_sweep:
            csv = out_dir / "results.csv"
            if csv.is_file():
                for line in csv.read_text().splitlines()[1:]:
                    p, q, lam, _res, outer, conv = line.split(",")
                    found[(float(p), float(q))] = (float(lam), conv == "true", int(outer))
        else:
            summary = out_dir / "summary.json"
            if summary.is_file():
                data = json.loads(summary.read_text())
                found[(data["p"], data["q"])] = (float(data["lambda_hat"]),
                                                 bool(data["converged"]), data["outer_iters"])
        expected_code = 0 if found and all(f[1] for f in found.values()) else 2
        out = []
        for (p, q), ref in self.references:
            label = f"{self.label} p={p:g} q={q:g}"
            if code == 1 or (p, q) not in found:
                out.append(Outcome(label, None, ref, False, f"exit code {code}, no result"))
            elif code != expected_code:
                out.append(Outcome(label, None, ref, False,
                                   f"exit code {code} disagrees with the artifacts"))
            else:
                lam, conv, outer = found[(p, q)]
                out.append(Outcome(label, lam, ref, conv, outer_steps=outer))
        return out

    def rel_gap(self, out_dir: Path) -> float | None:
        """Inverse-vs-Rayleigh gap a ``--method both`` run writes into summary.json."""
        summary = out_dir / "summary.json"
        if self.is_sweep or not summary.is_file():
            return None
        return json.loads(summary.read_text()).get("rel_gap")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# References.  p = q = 2: smallest eigenvalue of grid.stiffness_p2 by sparse
# shift-invert (scipy eigsh, sigma=0).  H1 12^3 p=2 q=3: the program's own
# value with max_outer=5000, where it converges after 548 steps.  All other
# cases: the program's lambda-hat from the default start at the commit that
# added this benchmark.  make_references.py recomputes every one of them.
H1_32_P2 = 20.004849530029293
H1_12_P2_Q3 = 10.3541590098619
H1_24_P3_Q2 = 109.02016712566164
H1_10_SWEEP = (
    ((2.0, 1.5), 25.95551139473777),
    ((2.0, 2.0), 20.04875671874723),
    ((2.0, 3.0), 10.474929899944405),
    ((2.5, 1.5), 63.36670958695237),
    ((2.5, 2.0), 47.434893217302005),
    ((2.5, 3.0), 26.67570627973608),
    ((3.0, 1.5), 154.067446382162),
    ((3.0, 2.0), 109.80483342321276),
    ((3.0, 3.0), 63.33269046685567),
)

H1_BOX = ("--group", "heisenberg1", "--box", "0,1,0,1,0,1")

WORKLOADS = {
    "h1-outer": (
        LibraryJob("H1", 32, 2.0, 2.0, H1_32_P2),
        LibraryJob("H1", 12, 2.0, 3.0, H1_12_P2_Q3),
    ),
    "e2-inner": (
        LibraryJob("E2", 32, 1.5, 2.0, 8.991277743996351),
        LibraryJob("E2", 64, 3.0, 3.0, 62.74610373893629),
    ),
    "h1-nonlinear": (
        LibraryJob("H1", 16, 3.0, 3.0, 63.32825303214684),
        LibraryJob("H1", 24, 3.0, 2.0, H1_24_P3_Q2),
        LibraryJob("H1", 8, 1.5, 1.5, 10.32713871989625),
    ),
    "cli-sweep": (
        CliJob("sweep H1 10^3", H1_BOX + ("--resolution", "10,10,10",
                                          "--sweep-p", "2,2.5,3", "--sweep-q", "1.5,2,3"),
               "H1", 10, H1_10_SWEEP),
        CliJob("run H1 24^3", H1_BOX + ("--resolution", "24,24,24", "--p", "3", "--q", "2",
                                        "--method", "both", "--dump-field"),
               "H1", 24, (((3.0, 2.0), H1_24_P3_Q2),)),
    ),
}
