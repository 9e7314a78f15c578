import time
import warnings

import numpy as np
import pytest

import subeigen as se
from subeigen import inner_solver
from subeigen.eigensolver import _start_iterate
from subeigen.inner_solver import ConvergenceError, _minimize, _pcg, solve_inner
from subeigen.mesh import EnergyState
from subeigen.operators import apply_B, pairing
from subeigen.oracle import multistart_minimize
from conftest import chain_grid, random_field


def test_config_validation(unit_square):
    f = se.Field(unit_square, np.ones(unit_square.n_nodes))
    nan, inf = float("nan"), float("inf")
    for p, kwargs in [(1.0, {}), (nan, {}), (3.0, {"tol": 0.0}), (3.0, {"tol": nan}),
                      (2.0, {"tol": 0.0}), (2.0, {"tol": nan}),
                      (2.0, {"loose": (nan, bool)}), (3.0, {"loose": (inf, bool)})]:
        with pytest.raises(ValueError):
            solve_inner(f, p, **{"tol": 1e-6, **kwargs})


def test_zero_rhs_returns_zero(unit_square):
    f = se.Field(unit_square, np.zeros(unit_square.n_nodes))
    for p in (2.0, 3.0):
        stats: dict = {}
        assert np.all(solve_inner(f, p, 1e-6, stats=stats).values == 0.0)
        assert stats == {"iters": 0, "loose": False}


def test_chain_linear_solve():
    # K = tridiag(2,-1) at h = 1; f = (1,0,0) has solution (0.75, 0.5, 0.25)
    grid = chain_grid(3)
    f = se.Field(grid, np.array([1.0, 0.0, 0.0]))
    z = solve_inner(f, 2.0, 1e-12)
    assert np.allclose(z.values, [0.75, 0.5, 0.25], atol=1e-8)


def test_poisson_sine_solution():
    # -lap u = 2 sin x sin y on (0, pi)^2 has u = sin x sin y
    errors = []
    for n in (16, 32):
        g = se.build_grid("euclidean2", [(0, np.pi), (0, np.pi)], (n, n))
        rhs = se.Field.from_function(g, lambda x, y: 2 * np.sin(x) * np.sin(y))
        z = solve_inner(se.Field(g, rhs.values), 2.0, 1e-10)
        exact = se.Field.from_function(g, lambda x, y: np.sin(x) * np.sin(y))
        errors.append(float(np.max(np.abs(z.values - exact.values))))
    assert errors[0] < 0.02
    assert errors[1] < 0.6 * errors[0]  # at least first-order decay


def test_p4_matches_derivative_free_minimizer(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = se.Field(grid, rng.standard_normal(9))
    z = solve_inner(f, 4.0, 1e-8)

    def J(z):  # the energy at the eps of every p != 2 solve
        return (EnergyState(grid, z.values, 4.0, inner_solver.EPS).energy()
                * grid.cell_volume / 4.0 - pairing(f, z))

    def batch(X):
        return np.array([J(se.Field(grid, row)) for row in X])

    starts = 0.3 * rng.standard_normal((33, 9))
    starts[0] = 0.1
    X, vals = multistart_minimize(batch, starts)
    best = X[np.argmin(vals)]
    assert np.max(np.abs(z.values - best)) < 1e-6


def test_cg_and_newton_agree_at_p2(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    tol = 1e-8
    z_cg = solve_inner(f, 2.0, tol)
    z_newton, _, _ = _minimize(grid, f.values, np.zeros(grid.n_nodes), 2.0,
                               tol * np.linalg.norm(f.values), None)
    assert np.max(np.abs(z_cg.values - z_newton)) < 10 * tol


def allocating_pcg(matvec, b, Minv, x, tol, max_iters):
    """The Jacobi-PCG loop as first written, with fresh vectors per iteration."""
    r = b - matvec(x) if x.any() else b.copy()
    z = Minv * r
    d = z.copy()
    rz = float(np.dot(r, z))
    for it in range(max_iters):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol:
            return x, rnorm, it
        Kd = matvec(d)
        alpha = rz / float(np.dot(d, Kd))
        x += alpha * d
        r -= alpha * Kd
        z = Minv * r
        rz_new = float(np.dot(r, z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    return x, float(np.linalg.norm(r)), max_iters


@pytest.mark.parametrize("seed", range(6))
def test_pcg_work_vectors_change_no_bit(seed):
    # random SPD systems with a spread diagonal, from zero
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    Q = rng.standard_normal((n, n))
    K = Q @ Q.T + np.diag(rng.uniform(0.1, 10.0, n)) * n
    b, Minv = rng.standard_normal(n), 1.0 / np.diag(K)
    for tol, max_iters in ((1e-10 * np.linalg.norm(b), 10 * n), (0.0, 3)):
        x, res, its = _pcg(K, b, Minv, tol, max_iters)
        x_ref, res_ref, its_ref = allocating_pcg(lambda v: K @ v, b, Minv, np.zeros(n), tol,
                                                 max_iters)
        assert x.tobytes() == x_ref.tobytes()
        assert (res, its) == (res_ref, its_ref)


@pytest.mark.parametrize("group, n", [("euclidean2", 16), ("heisenberg1", 8)])
def test_p2_solve_meets_tol_on_its_float64_residual(rng, group, n):
    # the tolerance holds for f - K z, not only for the float32 rounds' own residual
    dim = 2 if group == "euclidean2" else 3
    grid = se.build_grid(group, [(0, 1)] * dim, (n,) * dim)
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    fnorm = np.linalg.norm(f.values)
    for tol in 10.0 ** -np.arange(2, 13):
        z = solve_inner(f, 2.0, tol)
        assert np.linalg.norm(f.values - grid.stiffness_p2 @ z.values) <= tol * fnorm


def test_p2_solve_below_the_rounding_floor_stalls_out_at_once(rng):
    grid = se.build_grid("heisenberg1", [(0, 1)] * 3, (8, 8, 8))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="correction stalled") as info:
        solve_inner(f, 2.0, 1e-16)
    assert time.perf_counter() - start < 1.0
    # the error carries the float64 residual of the iterate it returns
    z = info.value.last_iterate.values
    assert info.value.grad_norm == pytest.approx(
        np.linalg.norm(f.values - grid.stiffness_p2 @ z), rel=1e-12)
    assert 0.0 < info.value.grad_norm < 1e-13 * np.linalg.norm(f.values)


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_p2_solve_scales_outside_the_float32_range(rng, scale):
    # every float32 round solves for r / ||r||, so f far outside float32's
    # range solves like f itself
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    z = solve_inner(f, 2.0, 1e-10)
    scaled = solve_inner(se.Field(grid, scale * f.values), 2.0, 1e-10)
    assert np.linalg.norm(scaled.values / scale - z.values) <= 1e-8 * np.linalg.norm(z.values)


@pytest.mark.parametrize("width", [1e-19, 1e-21, 1e21, 1e25, 1.6e-153])
def test_p2_solve_holds_on_boxes_whose_stiffness_leaves_the_float32_range(width):
    # K's entries scale as width^-2; the float32 rounds run on K over a power
    # of two, at most 2^1023 (K's largest diagonal is 1.3e308 on the last box)
    grid = se.build_grid("euclidean2", [(0, width), (0, width)], (8, 8))
    f = se.Field.ones(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = solve_inner(f, 2.0, 1e-8).values
    assert np.linalg.norm(f.values - grid.stiffness_p2 @ z) <= 1e-8 * np.linalg.norm(f.values)


@pytest.mark.parametrize("seed", [4, 9, 11])
def test_overflowed_trial_is_never_accepted(seed):
    # at p = 100 on E2 16^2 these perturbed tent data send a stalled line
    # search to a trial whose J overflows; it must be refused, not taken
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (16, 16))
    u0, _ = _start_iterate(grid, 100.0, 2.0, "default")
    xi = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    f = se.Field(grid, apply_B(u0, 2.0).values * (1.0 + 1e-9 * xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            z, gnorm = solve_inner(f, 100.0, 1e-6).values, None
        except ConvergenceError as exc:
            z, gnorm = exc.last_iterate.values, exc.grad_norm
        energy = EnergyState(grid, z, 100.0, inner_solver.EPS).energy()
    assert np.isfinite(z).all() and np.isfinite(energy)
    assert gnorm is None or np.isfinite(gnorm)


@pytest.mark.parametrize("seed", [4, 9, 11])
def test_large_p_solve_stops_pcg_on_nonpositive_curvature(seed):
    # at p = 100 the Newton weight s^49 underflows where grad z ~ 0, so H is
    # singular in floating point; PCG stops there instead of returning an
    # ascent direction, and these solves meet their tolerance with no warning
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (16, 16))
    u0, _ = _start_iterate(grid, 100.0, 2.0, "default")
    xi = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    f = se.Field(grid, apply_B(u0, 2.0).values * (1.0 + 1e-9 * xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = solve_inner(f, 100.0, 1e-6).values
        grad = EnergyState(grid, z, 100.0, inner_solver.EPS).flux_divergence() - f.values
    assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(f.values)


def test_pcg_stops_on_nonpositive_curvature():
    # the first direction Minv b = (1, 0.5) has d^T A d = 0: it is returned
    b, Minv = np.ones(2), np.array([1.0, 0.5])
    x, rnorm, its = _pcg(np.diag([1.0, -4.0]), b, Minv, 1e-12, 10)
    assert np.array_equal(x, Minv * b) and rnorm == np.sqrt(2.0) and its == 0
    # the second direction (6, 12) has d^T A d = -72: the first step (2, 2) is
    x, rnorm, its = _pcg(np.diag([2.0, -1.0]), b, np.ones(2), 1e-12, 10)
    assert np.array_equal(x, [2.0, 2.0]) and rnorm == np.sqrt(18.0) and its == 1


def test_energy_descent_history(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (5, 5))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    hist: list = []
    solve_inner(f, 3.0, 1e-6, history=hist)
    hist = np.array(hist)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) <= 1e-10 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_homogeneity_transfer(rng):
    # A(z) = f and A(z') = t f imply z' = t^{1/(p-1)} z
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = se.Field(grid, rng.standard_normal(9))
    for p in (1.5, 3.0):
        z1 = solve_inner(f, p, 1e-9)
        z5 = solve_inner(se.Field(grid, 5.0 * f.values), p, 1e-9)
        scale = 5.0 ** (1.0 / (p - 1.0))
        assert np.allclose(z5.values, scale * z1.values, rtol=1e-6, atol=1e-9)


def test_p2_weak_identity(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    tol = 1e-10
    z = solve_inner(f, 2.0, tol)
    defect = se.apply_A(z, 2.0).values - f.values
    # against every node basis field the pairing defect is below tolerance
    assert np.max(np.abs(defect)) <= tol * np.linalg.norm(f.values)


def test_iteration_limit_error_carries_iterate(monkeypatch, rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    # one CG iteration at p = 2; at p = 3 the cold start is the one step
    monkeypatch.setattr(inner_solver, "MAX_ITERS", 1)
    for p in (2.0, 3.0):
        with pytest.raises(ConvergenceError, match="1 iterations exhausted") as info:
            solve_inner(f, p, 1e-12)
        assert info.value.last_iterate.grid == grid
        assert info.value.grad_norm > 0.0


def test_unreachable_tolerance_stalls_out(rng):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    f = se.Field(grid, rng.standard_normal(9))
    with pytest.raises(ConvergenceError):
        solve_inner(f, 4.0, 1e-20)


def spy_steps(monkeypatch) -> list:
    """Record the ``frozen`` flag of every EnergyState.hessian call: one per
    step after the cold start, True for Kacanov steps, False for Newton."""
    real, calls = EnergyState.hessian, []

    def hessian(self, frozen=False):
        calls.append(frozen)
        return real(self, frozen)

    monkeypatch.setattr(EnergyState, "hessian", hessian)
    return calls


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_warm_start_at_solution_takes_no_steps(rng, p):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
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
    f = se.Field(grid, np.ones(grid.n_nodes))
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


@pytest.mark.parametrize("p", [1.2, 1.5])
def test_overlong_kacanov_steps_pass_the_armijo_test(monkeypatch, p):
    # a quarter of the frozen operator makes every Kacanov step about four
    # times too long; the one Armijo test still lowers J
    real = EnergyState.hessian

    def quarter(self, frozen=False):
        return 0.25 * real(self, frozen) if frozen else real(self, frozen)

    monkeypatch.setattr(EnergyState, "hessian", quarter)
    monkeypatch.setattr(inner_solver, "MAX_ITERS", 200)
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = se.Field(grid, np.ones(grid.n_nodes))
    hist: list = []
    solve_inner(f, p, 1e-8, history=hist)
    hist = np.array(hist)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) <= 1e-10 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_warm_start_above_p2_runs_newton_steps_only(monkeypatch):
    # the warm start of an outer step: the solution for a nearby right-hand side
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    f = se.Field(grid, np.ones(grid.n_nodes))
    x0 = solve_inner(se.Field(grid, 1.1 * f.values), 3.0, 1e-6)
    cold = solve_inner(f, 3.0, 1e-8)
    calls = spy_steps(monkeypatch)
    stats: dict = {}
    z = solve_inner(f, 3.0, 1e-8, x0=x0, stats=stats)
    assert calls == [False] * stats["iters"] and stats["iters"] > 0
    assert np.max(np.abs(z.values - cold.values)) <= 1e-6 * np.max(np.abs(cold.values))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_rejected_loose_solve_tightens_one_decade_at_a_time(rng, p):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    fnorm = np.linalg.norm(f.values)
    seen = []
    stats: dict = {}
    z = solve_inner(f, p, 1e-8, stats=stats, loose=(1e-2, lambda z: seen.append(z) or False))
    # asked once at each of 1e-2, 1e-3, ..., 1e-7, never at tol itself
    assert len(seen) == 6 and stats["loose"] is False
    def defect(z):  # ||A_eps(z) - f||, the equation the solve meets to each decade
        state = EnergyState(grid, z.values, p, inner_solver.EPS)
        return np.linalg.norm(state.flux_divergence() - f.values)

    for k, checked in enumerate(seen):
        assert defect(checked) <= 1.001 * 10.0 ** (-2 - k) * fnorm
    assert defect(z) <= 1e-8 * fnorm

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
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    loose_stats: dict = {}
    z_loose = solve_inner(f, p, 1e-2, stats=loose_stats)
    full: dict = {}
    solve_inner(f, p, 1e-8, stats=full)
    stats: dict = {}
    z = solve_inner(f, p, 1e-8, stats=stats, loose=(1e-2, lambda z: True))
    assert np.array_equal(z.values, z_loose.values)
    assert stats == {"iters": loose_stats["iters"], "loose": True}
    assert stats["iters"] < full["iters"]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("loose_tol", [1e-8, 1e-8 * (1.0 + 1e-12), 1e-9, 0.0])
def test_loose_tol_at_or_below_tol_is_the_plain_solve(rng, p, loose_tol):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    f = se.Field(grid, rng.standard_normal(grid.n_nodes))
    plain: dict = {}
    expected = solve_inner(f, p, 1e-8, stats=plain)
    asked = []
    stats: dict = {}
    z = solve_inner(f, p, 1e-8, stats=stats, loose=(loose_tol, asked.append))
    assert asked == []
    assert z.values.tobytes() == expected.values.tobytes()
    assert stats == plain and stats["loose"] is False


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("case, error", [("x0 on another grid", ValueError),
                                         ("NaN in x0", ValueError),
                                         ("inf in x0", ValueError),
                                         ("NaN in f", ValueError),
                                         ("inf in f", ValueError)])
def test_bad_start_or_nan_residual_raises(monkeypatch, p, case, error):
    # every case is rejected before the first iteration; MAX_ITERS keeps a
    # solve that misses the fault short
    monkeypatch.setattr(inner_solver, "MAX_ITERS", 50)
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))
    other = se.build_grid("euclidean2", [(0, 2), (0, 1)], (8, 8))  # same node count
    fvals, x0 = np.ones(grid.n_nodes), se.Field(grid, np.ones(grid.n_nodes))
    if case == "x0 on another grid":
        x0 = se.Field(other, x0.values)
    elif case.endswith("in f"):
        fvals[5], x0 = (np.nan if case == "NaN in f" else np.inf), None
    else:
        x0.values[5] = np.nan if case == "NaN in x0" else np.inf
    with pytest.raises(error):
        solve_inner(se.Field(grid, fvals), p, 1e-8, x0=x0)
