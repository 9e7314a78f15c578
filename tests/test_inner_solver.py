import numpy as np
import pytest

import subeigen as se
from subeigen.inner_solver import (
    ConvergenceError,
    _minimize,
    inner_objective,
    solve_inner,
    solve_linear_cg,
)
from subeigen.operators import DualField
from subeigen.oracle import multistart_minimize
from conftest import chain_grid, random_field


def test_config_validation(unit_square):
    f = DualField(unit_square, np.ones(unit_square.n_nodes))
    nan = float("nan")
    for p, kwargs in [(1.0, {}), (nan, {}), (3.0, {"tol": 0.0}), (3.0, {"tol": nan}),
                      (2.0, {"tol": 0.0}), (2.0, {"tol": nan})]:
        with pytest.raises(ValueError):
            solve_inner(f, p, **{"tol": 1e-6, **kwargs})
    with pytest.raises(ValueError):
        solve_linear_cg(f, 0.0)


def test_zero_rhs_returns_zero(unit_square):
    f = DualField(unit_square, np.zeros(unit_square.n_nodes))
    assert np.all(solve_linear_cg(f, 1e-8).values == 0.0)
    assert np.all(solve_inner(f, 3.0, 1e-6).values == 0.0)


def test_chain_linear_solve():
    # K = tridiag(2,-1) at h = 1; f = (1,0,0) has solution (0.75, 0.5, 0.25)
    grid = chain_grid(3)
    f = DualField(grid, np.array([1.0, 0.0, 0.0]))
    z = solve_linear_cg(f, 1e-12)
    assert np.allclose(z.values, [0.75, 0.5, 0.25], atol=1e-8)


def test_poisson_sine_solution():
    # -lap u = 2 sin x sin y on (0, pi)^2 has u = sin x sin y
    errors = []
    for n in (16, 32):
        g = se.build_grid("euclidean2", [(0, np.pi), (0, np.pi)], (n, n))
        rhs = se.Field.from_function(g, lambda x, y: 2 * np.sin(x) * np.sin(y))
        z = solve_inner(DualField(g, rhs.values), 2.0, 1e-10)
        exact = se.Field.from_function(g, lambda x, y: np.sin(x) * np.sin(y))
        errors.append(float(np.max(np.abs(z.values - exact.values))))
    assert errors[0] < 0.02
    assert errors[1] < 0.6 * errors[0]  # at least first-order decay


def test_p4_matches_derivative_free_minimizer(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = DualField(grid, rng.standard_normal(9))
    z = solve_inner(f, 4.0, 1e-8)
    eps = 1e-8  # the eps of every p != 2 solve

    def batch(X):
        return np.array([inner_objective(se.Field(grid, row), f, 4.0, eps) for row in X])

    starts = 0.3 * rng.standard_normal((33, 9))
    starts[0] = 0.1
    X, vals, _ = multistart_minimize(batch, starts, max_sweeps=800)
    best = X[np.argmin(vals)]
    assert np.max(np.abs(z.values - best)) < 1e-6


def test_cg_and_newton_agree_at_p2(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    tol = 1e-8
    z_cg = solve_linear_cg(f, tol)
    z_newton, _, _ = _minimize(grid, f.values, np.zeros(grid.n_nodes), 2.0,
                               tol * np.linalg.norm(f.values), 100, None)
    assert np.max(np.abs(z_cg.values - z_newton)) < 10 * tol


def test_energy_descent_history(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (5, 5))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    hist: list = []
    solve_inner(f, 3.0, 1e-6, history=hist)
    hist = np.array(hist)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) <= 1e-10 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_homogeneity_transfer(rng):
    # A(z) = f and A(z') = t f imply z' = t^{1/(p-1)} z
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = DualField(grid, rng.standard_normal(9))
    for p in (1.5, 3.0):
        z1 = solve_inner(f, p, 1e-9)
        z5 = solve_inner(DualField(grid, 5.0 * f.values), p, 1e-9)
        scale = 5.0 ** (1.0 / (p - 1.0))
        assert np.allclose(z5.values, scale * z1.values, rtol=1e-6, atol=1e-9)


def test_p2_weak_identity(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    tol = 1e-10
    z = solve_linear_cg(f, tol)
    defect = se.apply_A(z, 2.0).values - f.values
    # against every node basis field the pairing defect is below tolerance
    assert np.max(np.abs(defect)) <= tol * np.linalg.norm(f.values)


def test_iteration_limit_error_carries_iterate(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    # the CG cap, and the Newton step cap of the p != 2 stages
    for solve in (lambda: solve_linear_cg(f, 1e-12, max_iters=2),
                  lambda: solve_inner(f, 3.0, 1e-12, max_iters=1)):
        with pytest.raises(ConvergenceError, match="iterations") as info:
            solve()
        assert info.value.last_iterate.grid == grid
        assert info.value.grad_norm > 0.0


def test_unreachable_tolerance_stalls_out(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = DualField(grid, rng.standard_normal(9))
    with pytest.raises(ConvergenceError):
        solve_inner(f, 4.0, 1e-20)


def spy_steps(monkeypatch) -> list:
    """Record the ``frozen`` flag of every EnergyState.hessian_diagonal call:
    one per step, True for the cold start and Kacanov steps, False for Newton."""
    from subeigen.mesh import EnergyState
    real, calls = EnergyState.hessian_diagonal, []

    def diagonal(self, frozen=False):
        calls.append(frozen)
        return real(self, frozen)

    monkeypatch.setattr(EnergyState, "hessian_diagonal", diagonal)
    return calls


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_warm_start_at_solution_takes_no_steps(rng, p):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    z = solve_inner(f, p, 1e-6)
    stats: dict = {}
    again = solve_inner(f, p, 1e-6, x0=z, stats=stats)
    assert stats["iters"] == 0
    assert np.array_equal(again.values, z.values)


@pytest.mark.parametrize("p", [1.2, 1.5])
def test_rough_warm_start_below_p2(monkeypatch, p):
    # a start far from the solution's gradient scale, where backtracking on
    # the s^{(p-2)/2}-weighted Newton step takes tiny steps
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = DualField(grid, np.ones(grid.n_nodes))
    x0 = se.Field(grid, np.random.default_rng(0).standard_normal(grid.n_nodes))
    cold = solve_inner(f, p, 1e-10)
    calls = spy_steps(monkeypatch)
    hist: list = []
    stats: dict = {}
    z = solve_inner(f, p, 1e-10, x0=x0, history=hist, stats=stats)
    assert stats["iters"] == len(calls) == len(hist) - 1 <= 50
    assert calls[0] and not calls[-1]  # Kacanov steps first, Newton steps to finish
    hist = np.array(hist)
    assert np.all(np.diff(hist) <= 1e-10 * np.maximum(np.abs(hist[:-1]), 1.0))
    assert np.max(np.abs(z.values - cold.values)) <= 1e-8 * np.max(np.abs(cold.values))


def test_warm_start_above_p2_runs_newton_steps_only(monkeypatch):
    # the warm start of an outer step: the solution for a nearby right-hand side
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = DualField(grid, np.ones(grid.n_nodes))
    x0 = solve_inner(DualField(grid, 1.1 * f.values), 3.0, 1e-6)
    cold = solve_inner(f, 3.0, 1e-8)
    calls = spy_steps(monkeypatch)
    stats: dict = {}
    z = solve_inner(f, 3.0, 1e-8, x0=x0, stats=stats)
    assert calls == [False] * stats["iters"] and stats["iters"] > 0
    assert np.max(np.abs(z.values - cold.values)) <= 1e-6 * np.max(np.abs(cold.values))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_rejected_loose_solve_tightens_one_decade_at_a_time(rng, p):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    fnorm = np.linalg.norm(f.values)
    seen = []
    stats: dict = {}
    z = solve_inner(f, p, 1e-8, stats=stats, loose=(1e-2, lambda z: seen.append(z) or False))
    # asked once at each of 1e-2, 1e-3, ..., 1e-7, never at tol itself
    assert len(seen) == 6 and stats["loose"] is False
    for k, checked in enumerate(seen):
        defect = se.apply_A(checked, p, 1e-8).values - f.values
        assert np.linalg.norm(defect) <= 1.001 * 10.0 ** (-2 - k) * fnorm
    defect = se.apply_A(z, p, 1e-8).values - f.values
    assert np.linalg.norm(defect) <= 1e-8 * fnorm

    first: dict = {}
    second: dict = {}
    expected = solve_inner(f, p, 1e-3, x0=solve_inner(f, p, 1e-2, stats=first), stats=second)
    asked = []
    stats = {}
    z = solve_inner(f, p, 1e-8, stats=stats,
                    loose=(1e-2, lambda z: asked.append(z) or len(asked) == 2))
    assert len(asked) == 2
    assert np.array_equal(z.values, expected.values)
    assert stats == {"iters": first["iters"] + second["iters"], "loose": True}
    assert second["iters"] > 0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_accepted_loose_phase_returns_early(rng, p):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = DualField(grid, rng.standard_normal(grid.n_nodes))
    loose_stats: dict = {}
    z_loose = solve_inner(f, p, 1e-2, stats=loose_stats)
    full: dict = {}
    solve_inner(f, p, 1e-8, stats=full)
    stats: dict = {}
    z = solve_inner(f, p, 1e-8, stats=stats, loose=(1e-2, lambda z: True))
    assert np.array_equal(z.values, z_loose.values)
    assert stats == {"iters": loose_stats["iters"], "loose": True}
    assert stats["iters"] < full["iters"]
