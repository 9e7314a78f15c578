"""Solves under the benchmark's tracer return what untraced solves return.

``perfbench/tracing.py`` swaps a grid's cached gradient and stiffness
matrices for product-counting proxies and wraps the solver's module-level
functions.  Each case below solves once plain and once traced, the way
``perfbench/run.py`` runs a library job, at p > 2 (Newton steps), p < 2
(Kacanov then Newton steps) and p = 2 (CG).
"""

from pathlib import Path

import pytest

import subeigen as se

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def heisenberg_grid():
    return se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (6, 6, 6))


@pytest.mark.parametrize("p, q", [(3.0, 2.0), (1.5, 1.5), (2.0, 2.0)])
def test_traced_solve_matches_untraced(tracing, p, q):
    plain = se.inverse_iteration(se.SolverConfig(grid=heisenberg_grid(), p=p, q=q))
    tracer = tracing.Tracer()
    grid = heisenberg_grid()
    tracer.count_products(grid)
    with tracer.installed(), tracer.span("eigensolver.inverse_iteration") as span:
        traced = se.inverse_iteration(se.SolverConfig(grid=grid, p=p, q=q))
    span.attrs["result"] = traced
    assert traced.lambda_hat.hex() == plain.lambda_hat.hex()
    # one wrapped solve_inner call per outer step, its stats passed by keyword
    counts = (sum(rec.inner_iters for rec in traced.history), traced.outer_iters)
    assert tracing.program_counts(tracer) == tracing.traced_counts(tracer) == counts
