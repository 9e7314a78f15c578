"""Recompute the reference eigenvalues that workloads.py records, and print
each next to the recorded value.

    python3 perfbench/make_references.py

p = q = 2 references come from a sparse shift-invert solve (scipy eigsh with
sigma = 0) on grid.stiffness_p2; the 32^3 factorisation needs about 5 s and
0.5 GB, which is why the benchmark records the value instead of solving
during each run.  The other references are the program's own lambda-hat from
the default start (H1 12^3 p=2 q=3 with max_outer=5000), so rerunning this
after a solver change shows how far the new solver moved from them.
"""

from __future__ import annotations

import sys

import run

run.pin_environment()
run.import_program()

import scipy.sparse.linalg as sla  # noqa: E402

import subeigen as se  # noqa: E402
from workloads import WORKLOADS, CliJob, build_grid  # noqa: E402


def stiffness_minimum(grid: se.Grid) -> float:
    K = grid.stiffness_p2.tocsc()
    return float(sla.eigsh(K, k=1, sigma=0, which="LM", return_eigenvectors=False)[0])


def recompute(group: str, n: int, p: float, q: float) -> float:
    grid = build_grid(group, n)
    if p == q == 2.0:
        return stiffness_minimum(grid)
    max_outer = 5000 if (group, n, p, q) == ("H1", 12, 2.0, 3.0) else 500
    return se.inverse_iteration(se.SolverConfig(grid=grid, p=p, q=q, max_outer=max_outer)).lambda_hat


def main() -> int:
    cases = []
    for jobs in WORKLOADS.values():
        for job in jobs:
            if isinstance(job, CliJob):
                cases += [(job.group, job.n, p, q, ref) for (p, q), ref in job.references]
            else:
                cases.append((job.group, job.n, job.p, job.q, job.reference))
    for group, n, p, q, recorded in dict.fromkeys(cases):
        value = recompute(group, n, p, q)
        print(f"{group} n={n} p={p:g} q={q:g}: recorded {recorded!r}, recomputed {value!r}, "
              f"rel diff {abs(value - recorded) / recorded:.2e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
