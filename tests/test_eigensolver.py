import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

import subeigen as se
from subeigen.eigensolver import _ANDERSON_DEPTH, _anderson_candidate, normalize
from subeigen.inner_solver import EPS
from subeigen.mesh import EnergyState
from conftest import chain_grid, fail_inner_solve_on_call, random_field

TWO_PI_SQ = 2 * np.pi ** 2


def small_square(n=10):
    return se.build_grid("euclidean2", [(0, 1), (0, 1)], (n, n))


def test_rayleigh_quotient_scale_invariance(unit_square, rng):
    u = random_field(unit_square, rng)
    for p, q in ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5)):
        r = se.rayleigh_quotient(u, p, q)
        for t in (4.0, -0.3):
            assert se.rayleigh_quotient(t * u, p, q) == pytest.approx(r, rel=1e-12)
    with pytest.raises(ValueError):
        se.rayleigh_quotient(se.Field.zeros(unit_square), 2.0, 2.0)


def test_rayleigh_quotient_sine_anchor():
    g = se.build_grid("euclidean2", [(0, 1), (0, 1)], (64, 64))
    u = se.Field.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert se.rayleigh_quotient(u, 2.0, 2.0) == pytest.approx(TWO_PI_SQ, rel=0.01)


def test_rayleigh_quotient_chain_minimum():
    grid = chain_grid(3)
    oracle = se.brute_force_lambda(grid, 2.0, 2.0)
    assert oracle.lambda_star == pytest.approx(2 - np.sqrt(2), abs=1e-8)


def test_inverse_iteration_square_anchor():
    cfg = se.SolverConfig(grid=small_square(24), p=2.0, q=2.0)
    r = se.inverse_iteration(cfg)
    # exact discrete 5-point eigenvalue: per-axis (2 - 2 cos(pi h))/h^2
    h = 1.0 / 25
    lam_h = 2 * (2 - 2 * np.cos(np.pi * h)) / h ** 2
    assert r.converged
    assert r.lambda_hat == pytest.approx(lam_h, rel=1e-8)
    assert r.lambda_hat == pytest.approx(TWO_PI_SQ, rel=0.01)


def test_inverse_iteration_traces_monotone():
    cube = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (8, 8, 8))
    for grid, p, q in ((small_square(), 2.0, 2.0), (small_square(), 1.5, 2.0),
                       (small_square(), 3.0, 3.0), (cube, 2.0, 2.0), (cube, 3.0, 3.0)):
        cfg = se.SolverConfig(grid=grid, p=p, q=q)
        r = se.inverse_iteration(cfg)
        slack = 10 * cfg.tol_inner
        h = r.history
        assert all(b.mu <= a.mu * (1 + slack) for a, b in zip(h, h[1:]))
        assert all(rec.unorm <= rec.mu * (1 + slack) for rec in h)
        assert abs(h[-1].unorm - h[-1].mu) <= 1e-4 * r.lambda_hat
        assert r.converged


def test_inverse_iteration_heisenberg_p2_outer_steps():
    # the gap lambda_2 / lambda_1 is only ~1.05 here; plain inverse iteration
    # needs 114 outer steps
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (16, 16, 16))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    lam = sla.eigsh(grid.stiffness_p2, k=1, sigma=0, return_eigenvectors=False)[0]
    assert r.converged
    assert r.outer_iters <= 30
    assert r.lambda_hat == pytest.approx(lam, rel=1e-8)


@pytest.mark.parametrize("group, n, dim, q", [("euclidean2", 16, 2, 2.0),
                                              ("heisenberg1", 8, 3, 3.0)])
def test_banded_stiffness_changes_no_bit_of_inverse_iteration(group, n, dim, q):
    # the same solve on the CSR product G^T G in place of the banded DIA K
    runs = []
    for csr in (False, True):
        grid = se.build_grid(group, [(0, 1)] * dim, (n,) * dim)
        if csr:
            G = grid.gradient_matrix
            grid.__dict__["stiffness_p2"] = sp.csr_matrix(G.T @ G)
        runs.append(se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=q)))
    banded, product = runs
    assert banded.lambda_hat.hex() == product.lambda_hat.hex()
    assert banded.outer_iters == product.outer_iters
    assert banded.inner_iters_trace == product.inner_iters_trace
    assert banded.eigenfunction.values.tobytes() == product.eigenfunction.values.tobytes()


def spy_inner_solves(monkeypatch) -> list:
    """Record (f, tol, loose, stats, z) for each inner solve of inverse iteration."""
    from subeigen import eigensolver
    real, calls = eigensolver.solve_inner, []

    def solve(f, p, tol, *args, stats=None, loose=None, **kwargs):
        z = real(f, p, tol, *args, stats=stats, loose=loose, **kwargs)
        calls.append((f, tol, loose, stats, z))
        return z

    monkeypatch.setattr(eigensolver, "solve_inner", solve)
    return calls


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (1.5, 2.0)])
def test_inexact_inner_solves(monkeypatch, p, q):
    cfg = se.SolverConfig(grid=small_square(12), p=p, q=q)
    calls = spy_inner_solves(monkeypatch)
    r = se.inverse_iteration(cfg)
    assert r.converged
    assert len(calls) == len(r.history)
    assert [c[3]["iters"] for c in calls] == r.inner_iters_trace
    assert calls[0][2][0] == 1e-2
    assert all(c[2][0] <= 1e-2 for c in calls)
    assert all(c[1] == cfg.tol_inner for c in calls)
    assert any(c[3]["loose"] for c in calls)
    # a solve stops early only at a loose tolerance above tol_inner
    assert all(c[2][0] > cfg.tol_inner for c in calls if c[3]["loose"])
    # the step that ends the run solved A(z) = B(w) to tol_inner
    f, _, _, stats, z = calls[-1]
    assert not stats["loose"]
    defect = EnergyState(cfg.grid, z.values, p, EPS).flux_divergence() - f.values
    assert np.linalg.norm(defect) <= cfg.tol_inner * np.linalg.norm(f.values)


@pytest.mark.parametrize("tol_inner", [1e-2, 0.05])
def test_loose_tol_inner_solves_every_step_at_tol_inner(monkeypatch, tol_inner):
    cfg = se.SolverConfig(grid=small_square(), p=2.0, q=2.0, tol_inner=tol_inner)
    calls = spy_inner_solves(monkeypatch)
    r = se.inverse_iteration(cfg)
    assert len(calls) == r.outer_iters
    assert all(c[1] == tol_inner and c[3]["loose"] is False for c in calls)


def test_inexact_inner_solves_cut_cg_work():
    # 542 CG iterations with every step solved to tol_inner, 244 with loose
    # solves that tighten one decade at a time when rejected
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (10, 10, 10))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    assert r.converged
    assert sum(r.inner_iters_trace) <= 300


def test_inverse_iteration_heisenberg_q3_converges():
    # reference: unaccelerated inverse iteration with max_outer=5000, as
    # recorded in perfbench/workloads.py
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (12, 12, 12))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=3.0))
    assert r.converged
    assert r.lambda_hat == pytest.approx(10.3541590098619, rel=1e-8)
    # 1,394 CG iterations; 2,098 if a rejected loose solve jumps straight
    # to tol_inner
    assert sum(r.inner_iters_trace) <= 1600


def test_inverse_iteration_eigenfunction_contract():
    cfg = se.SolverConfig(grid=small_square(), p=2.5, q=2.0)
    r = se.inverse_iteration(cfg)
    assert se.lq_norm(r.eigenfunction, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert float(np.sum(r.eigenfunction.values)) >= 0.0
    assert r.residual <= 1e-4
    assert r.lambda_hat == r.history[-1].mu
    assert r.residual == r.history[-1].residual
    assert r.outer_iters == len(r.history)


def test_inverse_iteration_tiny_grid_matches_oracle():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    cfg = se.SolverConfig(grid=grid, p=2.5, q=2.0, tol_outer=1e-8)
    r = se.inverse_iteration(cfg)
    oracle = se.brute_force_lambda(grid, 2.5, 2.0)
    assert r.lambda_hat == pytest.approx(oracle.lambda_star, rel=1e-4)


def test_inverse_iteration_custom_start(rng):
    grid = small_square()
    cfg = se.SolverConfig(grid=grid, p=2.0, q=2.0)
    w0 = se.Field(grid, np.abs(rng.standard_normal(grid.n_nodes)) + 0.1)
    r = se.inverse_iteration(cfg, w0=w0)
    r_def = se.inverse_iteration(cfg)
    assert r.lambda_hat == pytest.approx(r_def.lambda_hat, rel=1e-6)
    with pytest.raises(ValueError):
        se.inverse_iteration(cfg, w0=se.Field.zeros(grid))
    with pytest.raises(ValueError):
        se.inverse_iteration(cfg, w0="bump")


def test_invalid_start_iterate_is_rejected():
    grid = small_square(4)
    cfg = se.SolverConfig(grid=grid, p=2.0, q=2.0)
    nan_start, inf_start = np.ones(grid.n_nodes), np.ones(grid.n_nodes)
    nan_start[3], inf_start[3] = np.nan, np.inf
    for start, message in [(nan_start, "finite"), (inf_start, "finite"),
                           (np.zeros(grid.n_nodes), "nonzero")]:
        with pytest.raises(ValueError, match=message):
            se.inverse_iteration(cfg, se.Field(grid, start))
    with pytest.raises(ValueError, match="different grid"):
        se.inverse_iteration(cfg, se.Field.zeros(small_square(5)))


def test_inverse_iteration_max_outer_reports_unconverged():
    cfg = se.SolverConfig(grid=small_square(), p=2.0, q=2.0, max_outer=2)
    r = se.inverse_iteration(cfg)
    assert not r.converged
    assert r.outer_iters == 2


def test_inverse_iteration_inner_failure_returns_last_step(monkeypatch):
    cfg = se.SolverConfig(grid=small_square(), p=3.0, q=2.0)
    two_steps = se.inverse_iteration(se.SolverConfig(grid=small_square(), p=3.0, q=2.0,
                                                     max_outer=2))
    fail_inner_solve_on_call(monkeypatch, 3)
    r = se.inverse_iteration(cfg)
    assert not r.converged
    assert r.outer_iters == 2
    assert r.lambda_hat == two_steps.lambda_hat
    assert np.array_equal(r.eigenfunction.values, two_steps.eigenfunction.values)


@pytest.mark.parametrize("bad", ["zero", "inf node"])
def test_degenerate_inner_iterate_raises(monkeypatch, bad):
    # A(z) = B(w) has a nonzero finite solution for nonzero w, so a zero or
    # non-finite z from the inner solver is a defect, not a failed solve
    from subeigen import eigensolver

    def solve(f, *args, **kwargs):
        z = se.Field.zeros(f.grid)
        if bad == "inf node":
            z.values[3] = np.inf
        return z

    monkeypatch.setattr(eigensolver, "solve_inner", solve)
    with pytest.raises(RuntimeError, match="degenerate iterate") as info:
        se.inverse_iteration(se.SolverConfig(grid=small_square(), p=2.0, q=2.0))
    assert not isinstance(info.value, se.ConvergenceError)


def test_scalar_multiple_structure():
    cfg = se.SolverConfig(grid=small_square(), p=2.0, q=2.0)
    r = se.inverse_iteration(cfg)
    u, lam = r.eigenfunction, r.lambda_hat
    quot = se.rayleigh_quotient(u, 2.0, 2.0)
    assert quot == pytest.approx(lam, rel=1e-6)  # mu and the quotient agree at stop
    for t in (2.0, -5.0):
        assert se.rayleigh_quotient(t * u, 2.0, 2.0) == pytest.approx(quot, rel=1e-12)
        assert se.residual(t * u, lam, 2.0, 2.0) == pytest.approx(
            se.residual(u, lam, 2.0, 2.0), rel=1e-8, abs=1e-14)


def test_oracle_lower_bound_certificate():
    # mu can dip below the discrete minimum only by inner-solve noise
    # (~tol_inner * mu), so the 1e-6 absolute bound needs tight inner solves
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4))
    for p, q in ((2.0, 2.0), (2.5, 2.0), (3.0, 3.0)):
        oracle = se.brute_force_lambda(grid, p, q, seed=7)
        cfg = se.SolverConfig(grid=grid, p=p, q=q, tol_outer=1e-9, tol_inner=1e-8)
        r = se.inverse_iteration(cfg)
        assert r.lambda_hat >= oracle.lambda_star - 1e-6
        assert r.lambda_hat <= oracle.lambda_star * (1 + 1e-4)
        # the returned eigenfunction's exact quotient obeys the bound as well
        quot = se.rayleigh_quotient(r.eigenfunction, p, q)
        assert quot >= oracle.lambda_star - 1e-6


def test_tight_inner_tolerance_converges():
    # at tol_inner = 1e-8 every inner solve must reach its tolerance, so the
    # outer loop stops on its own test rather than on an inner failure
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4))
    for p, q in ((2.5, 2.0), (3.0, 3.0)):
        cfg = se.SolverConfig(grid=grid, p=p, q=q, tol_outer=1e-9, tol_inner=1e-8)
        assert se.inverse_iteration(cfg).converged


def test_dilation_covariance_solver_level():
    # lambda(delta_s box) = s^(nu - p - nu p / q) lambda(box), exactly at the
    # discrete level; solver tolerances are the only slack
    gh = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 2))
    nu, p, q = 4, 2.0, 3.0
    cfg = se.SolverConfig(grid=gh, p=p, q=q, tol_outer=1e-12, tol_inner=1e-12)
    lam = se.inverse_iteration(cfg).lambda_hat
    for s in (0.5, 2.0):
        gd = se.dilate_grid(gh, s)
        cfg_s = se.SolverConfig(grid=gd, p=p, q=q, tol_outer=1e-12, tol_inner=1e-12)
        lam_s = se.inverse_iteration(cfg_s).lambda_hat
        expected = s ** (nu - p - nu * p / q)
        assert lam_s / lam == pytest.approx(expected, rel=1e-6)


def test_p2_eigenvalue_on_a_box_whose_stiffness_leaves_the_float32_range():
    # K's entries are about 1e40 on [0, 1e-19]^2; lambda scales as L^-2 on a box of side L
    width = 1e-19
    unit, tiny = (se.inverse_iteration(se.SolverConfig(
        grid=se.build_grid("euclidean2", [(0, L), (0, L)], (8, 8)), p=2.0, q=2.0))
        for L in (1.0, width))
    assert tiny.converged
    assert tiny.lambda_hat * width ** 2 == pytest.approx(unit.lambda_hat, rel=1e-8)


def test_solver_config_validation(unit_square):
    with pytest.raises(ValueError):
        se.SolverConfig(grid=unit_square, p=1.0, q=2.0)
    with pytest.raises(ValueError):
        se.SolverConfig(grid=unit_square, p=2.0, q=0.5)
    cfg = se.SolverConfig(grid=unit_square, p=2.0, q=2.0)
    assert cfg.tol_inner == 1e-8
    cfg2 = se.SolverConfig(grid=unit_square, p=2.5, q=2.0)
    assert cfg2.tol_inner == 1e-6
    nan, inf = float("nan"), float("inf")
    for p, q in ((nan, 2.0), (2.0, nan), (inf, 2.0), (2.0, inf)):
        with pytest.raises(ValueError, match="finite [pq] > 1"):
            se.SolverConfig(grid=unit_square, p=p, q=q)
    for setting in ({"max_outer": 0}, {"tol_inner": 0.0}, {"tol_outer": 0.0},
                    {"tol_inner": nan}, {"tol_inner": inf}, {"tol_outer": nan},
                    {"tol_outer": inf}):
        with pytest.raises(ValueError):
            se.SolverConfig(grid=unit_square, p=3.0, q=2.0, **setting)


def test_solver_config_owns_the_exponent_window_and_integer_max_outer(unit_square):
    # outside 1 < q < nu* = nu p/(nu - p): H1 p = 2 (nu* = 4), and E2 p = 1.5 (nu* = 6),
    # where the classical single-layer case waives only p < nu
    heis = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3))
    for grid, p, q in ((heis, 2.0, 5.0), (heis, 5.0, 2.0), (unit_square, 1.5, 10.0),
                       (unit_square, 1.5, 6.0)):
        with pytest.raises(ValueError, match="p < nu|q < nu"):
            se.SolverConfig(grid=grid, p=p, q=q)
    se.SolverConfig(grid=unit_square, p=3.0, q=50.0)  # p >= nu on E2: any finite q
    for max_outer in (2.5, 2.0, "5"):
        with pytest.raises(ValueError, match="max_outer"):
            se.SolverConfig(grid=unit_square, p=2.0, q=2.0, max_outer=max_outer)
    assert se.SolverConfig(grid=unit_square, p=2.0, q=2.0, max_outer=np.int64(3)).max_outer == 3


def test_inverse_iteration_near_p1_converges():
    # p = 1.1: the p < 2 weights s^{(p-2)/2} are nearly s^{-1/2} where grad z -> 0.
    # The stop rule holds, but the eps bias leaves the exact quotient R(g) about
    # 4e-4 above mu, so the run does not count as converged
    r = se.inverse_iteration(se.SolverConfig(grid=small_square(32), p=1.1, q=2.0))
    assert not r.converged
    assert se.p_energy(r.eigenfunction, 1.1) > r.lambda_hat * (1.0 + 1e-4)
    assert r.lambda_hat == pytest.approx(4.597932271, rel=1e-6)


def test_inverse_iteration_heisenberg_sublinear_work_bound():
    # 230 Newton steps from the eps ladder; Kacanov steps then Newton take 54
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (12, 12, 12))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=1.3, q=1.3))
    assert r.converged
    assert r.lambda_hat == pytest.approx(7.6207667662, rel=1e-8)
    assert sum(r.inner_iters_trace) <= 115


@pytest.mark.parametrize("p", [40.0, 100.0])
def test_large_p_solves_without_overflow_warnings(p):
    # rejected line-search trials overflow J, and at z = 0 the weight
    # eps^{p-2} underflows to 0, so no solve may start its steps there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = se.inverse_iteration(se.SolverConfig(grid=small_square(16), p=p, q=2.0))
    assert r.converged


def test_anderson_memory_keeps_the_last_pairs_and_restarts_to_the_newest(rng):
    grid = small_square(6)
    pairs = []
    for _ in range(_ANDERSON_DEPTH + 3):
        g = normalize(se.Field(grid, 1.0 + 0.1 * rng.random(grid.n_nodes)), 2.0)
        pairs.append((g, 1e-3 * rng.standard_normal(grid.n_nodes)))
    g, R_g = pairs[-1][0], se.rayleigh_quotient(pairs[-1][0], 2.0, 2.0)
    # one pair: nothing to extrapolate
    assert _anderson_candidate(pairs[-1:], R_g, 2.0, 2.0) == (g, R_g, pairs[-1:])
    # a safeguard every candidate passes keeps the last _ANDERSON_DEPTH + 1 pairs
    cand, R, kept = _anderson_candidate(pairs, np.inf, 2.0, 2.0)
    assert kept == pairs[-_ANDERSON_DEPTH - 1:] and cand is not g
    assert R == se.rayleigh_quotient(cand, 2.0, 2.0) and se.lq_norm(cand, 2.0) == pytest.approx(1.0)
    # one no candidate passes restarts the memory from the newest pair
    assert _anderson_candidate(pairs, 0.0, 2.0, 2.0) == (g, 0.0, pairs[-1:])
