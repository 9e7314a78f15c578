import numpy as np
import pytest

import subeigen as se
from subeigen import diagnostics
from subeigen.diagnostics import (
    decay_inequality_checks,
    embedding_ratio,
    estimate_sobolev_constant,
    linf_threshold,
    regularity_report,
    sobolev_constant_from_lambda,
)
from subeigen.eigensolver import normalize

TWO_PI_SQ = 2 * np.pi ** 2


def test_sobolev_constant_anchor():
    # p = l = 2 on the unit square: S = lambda^{-1/2}, volume factor is 1
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (64, 64))
    S = estimate_sobolev_constant(grid, 2.0, 2.0)
    assert S == pytest.approx(TWO_PI_SQ ** -0.5, rel=0.02)
    assert S > 0


def test_sobolev_constant_relation_l_equals_q():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (12, 12))
    cfg = se.SolverConfig(grid=grid, p=2.0, q=3.0)
    r = se.inverse_iteration(cfg)
    S_direct = estimate_sobolev_constant(grid, 2.0, 3.0)
    S_from_lam = sobolev_constant_from_lambda(r.lambda_hat, grid, 2.0, 3.0)
    assert S_direct == pytest.approx(S_from_lam, rel=1e-4)


def test_sobolev_constant_regime_check():
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3))
    with pytest.raises(ValueError):
        estimate_sobolev_constant(grid, 5.0, 2.0)
    with pytest.raises(ValueError):
        estimate_sobolev_constant(grid, 2.0, 4.5)


def test_linf_threshold_case1_arithmetic():
    info = linf_threshold(1.0, 1.0, 1.0, 2.0, 2.0, 4)
    assert info.case_tag == "I"
    assert info.alpha is None
    assert info.k == pytest.approx(16.0)


def test_linf_threshold_case2_arithmetic():
    info = linf_threshold(1.0, 1.0, 1.0, 2.0, 3.0, 4)
    assert info.case_tag == "II"
    assert info.alpha == pytest.approx(1.0 / 6.0)
    assert info.k == pytest.approx(8.0 ** 6, rel=1e-12)


def test_linf_threshold_beyond_float_range_is_inf():
    # (2^q S lam)^(1/alpha) with alpha = p/q overflows for large q; 1/q must
    # not round away in alpha even at q = 1e308
    for q in (200.0, 2000.0, 1e308):
        info = linf_threshold(3.3, 0.55, 0.9, 2.0, q, 2)
        assert info.case_tag == "II" and info.alpha > 0
        assert info.k == float("inf")


def test_linf_threshold_floors_at_one():
    info = linf_threshold(1e-6, 1e-3, 1e-3, 2.0, 2.0, 4)
    assert info.k == 1.0


def test_level_set_measure(unit_square):
    u = se.Field.from_function(unit_square, lambda x, y: x)
    sup = float(np.max(u.values))
    assert se.level_set_measure(u, sup) == 0.0
    assert se.level_set_measure(u, -1.0) == pytest.approx(
        unit_square.n_nodes * unit_square.cell_volume)
    # Chebyshev: k |{u > k}| <= ||u||_1 for k > 0
    for k in (0.2, 0.5, 0.8):
        assert k * se.level_set_measure(u, k) <= se.lq_norm(u, 1.0) + 1e-15


def test_positivity_check_basic(unit_square):
    ones = se.Field.ones(unit_square)
    positive, c = se.positivity_check(ones)
    assert positive and c == 1.0
    vals = np.ones(unit_square.n_nodes)
    vals[0] = 0.0
    positive, _ = se.positivity_check(se.Field(unit_square, vals))
    assert not positive
    with pytest.raises(ValueError):
        se.positivity_check(se.Field.zeros(unit_square))


def test_positivity_of_converged_eigenfunction():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (16, 16))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    positive, c = se.positivity_check(r.eigenfunction)
    assert positive
    assert c > 0


def test_decay_inequality_case1():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (32, 32))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    S = sobolev_constant_from_lambda(r.lambda_hat, grid, 2.0, 2.0)
    checks = decay_inequality_checks(r.eigenfunction, r.lambda_hat, S, 2.0, 2.0, 2)
    assert len(checks) >= 1
    assert all(c["ok"] for c in checks)
    # the first tested level sits at the case threshold
    info = linf_threshold(r.lambda_hat, S, se.lq_norm(r.eigenfunction, 1.0), 2.0, 2.0, 2)
    assert checks[0]["k"] == pytest.approx(info.k)


def test_decay_inequality_case2():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (24, 24))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=3.0))
    S = sobolev_constant_from_lambda(r.lambda_hat, grid, 2.0, 3.0)
    checks = decay_inequality_checks(r.eigenfunction, r.lambda_hat, S, 2.0, 3.0, 2)
    assert all(c["ok"] for c in checks)


def test_regularity_report_fields():
    grid = se.build_grid("heisenberg1", [(-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)], (8, 8, 8))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    rep = regularity_report(r.eigenfunction, r.lambda_hat, 2.0, 2.0)
    assert rep.case_tag == "I"
    assert rep.positive
    assert rep.min_on_core > 0
    assert rep.sup_norm > 0
    assert rep.k_threshold >= 1.0
    assert rep.level_measures[0][0] == pytest.approx(rep.k_threshold)
    assert rep.level_measures[-1][1] == 0.0


def test_each_level_is_measured_once(monkeypatch):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (16, 16))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
    real, measured = diagnostics.level_set_measure, []
    monkeypatch.setattr(diagnostics, "level_set_measure",
                        lambda u, k: measured.append(k) or real(u, k))
    rep = regularity_report(r.eigenfunction, r.lambda_hat, 2.0, 2.0)
    assert measured == [k for k, _ in rep.level_measures]
    # the decay checks read the same levels and measures
    S = sobolev_constant_from_lambda(r.lambda_hat, grid, 2.0, 2.0)
    checks = decay_inequality_checks(normalize(r.eigenfunction, 2.0), r.lambda_hat, S,
                                     2.0, 2.0, 2)
    assert [(c["k"], c["measure"]) for c in checks] == rep.level_measures


@pytest.mark.parametrize("box", [[(0, 1)] * 3, [(-0.5, 0.5)] * 3], ids=["unit", "centred"])
def test_report_sobolev_constant_matches_tight_solve(box):
    # case I with q < p takes S from one extra (p, p) solve; the threshold it
    # reports must be the one that a tightly converged (3, 3) eigenvalue gives
    grid = se.build_grid("heisenberg1", box, (8, 8, 8))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=3.0, q=2.0))
    tight = se.inverse_iteration(se.SolverConfig(grid=grid, p=3.0, q=3.0,
                                                 tol_inner=1e-10, tol_outer=1e-10))
    assert tight.converged
    S = sobolev_constant_from_lambda(tight.lambda_hat, grid, 3.0, 3.0)
    l1_norm = se.lq_norm(normalize(r.eigenfunction, 2.0), 1.0)
    expected = linf_threshold(r.lambda_hat, S, l1_norm, 3.0, 2.0, 4)
    rep = regularity_report(r.eigenfunction, r.lambda_hat, 3.0, 2.0)
    assert rep.case_tag == "I" and expected.k > 1.0  # above the floor, so k moves with S
    assert rep.k_threshold == pytest.approx(expected.k, rel=1e-8)


def test_regularity_report_case2_alpha_positive():
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (6, 6, 6))
    r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=3.0))
    rep = regularity_report(r.eigenfunction, r.lambda_hat, 2.0, 3.0)
    assert rep.case_tag == "II"
    assert rep.alpha == pytest.approx(2 * (1 / 3 - 1 / 2 + 1 / 4))
    assert rep.alpha > 0


def test_embedding_scaling_exponent():
    # fixed node values on dilated grids: the embedding ratio follows the
    # box-volume power 1/l - 1/p + 1/nu exactly
    cases = [("euclidean2", [(0, 1), (0, 1)], (12, 12), [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0)]),
             ("heisenberg1", [(0, 1), (0, 1), (0, 1)], (5, 5, 5), [(2.0, 2.0)])]
    for gname, box, res, pls in cases:
        g0 = se.build_grid(gname, box, res)
        u0 = se.Field.from_function(
            g0, lambda *cs: np.prod([np.sin(np.pi * (c - lo) / (hi - lo))
                                     for c, (lo, hi) in zip(cs, g0.box)], axis=0))
        nu = g0.group.homogeneous_dim
        for p, l in pls:
            logs, logV = [], []
            for s in (1.0, 2.0, 4.0):
                gs = se.dilate_grid(g0, s)
                us = se.Field(gs, u0.values)
                logs.append(np.log(embedding_ratio(us, p, l)))
                logV.append(np.log(gs.box_volume))
            slope = float(np.polyfit(logV, logs, 1)[0])
            expected = 1.0 / l - 1.0 / p + 1.0 / nu
            assert slope == pytest.approx(expected, rel=0.02)


def test_sup_norm_stable_under_refinement():
    sups = []
    for n in (32, 64):
        grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (n, n))
        r = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
        sups.append(float(np.max(np.abs(r.eigenfunction.values))))
    assert abs(sups[1] - sups[0]) / sups[0] < 0.10
