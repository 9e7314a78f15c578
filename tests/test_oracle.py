import numpy as np
import pytest

import subeigen as se
from subeigen.oracle import RESTARTS, _multistart
from conftest import chain_grid


def test_chain_value():
    # eigenvalues of tridiag(2,-1) with 3 nodes are 2 - 2 cos(k pi / 4)
    res = se.brute_force_lambda(chain_grid(3), 2.0, 2.0)
    assert res.method == "dense_eig"
    assert res.lambda_star == pytest.approx(2 - np.sqrt(2), abs=1e-8)


def test_square_3x3_value():
    # separable 5-point eigenvalues: both axes contribute (2 - 2cos(pi/4))/h^2
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    res = se.brute_force_lambda(grid, 2.0, 2.0)
    assert res.lambda_star == pytest.approx(2 * 16 * (2 - np.sqrt(2)), rel=1e-12)


def test_dense_and_multistart_agree():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    dense = se.brute_force_lambda(grid, 2.0, 2.0)
    multi = _multistart(grid, 2.0, 2.0, 3)
    assert dense.method == "dense_eig"
    assert multi.lambda_star == pytest.approx(dense.lambda_star, rel=1e-6)
    assert multi.method == "multistart"
    assert multi.restarts_used == RESTARTS == 64


def test_minimizer_contract():
    grid = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (2, 2, 2))
    for p, q in ((2.0, 2.0), (2.5, 2.0)):
        res = se.brute_force_lambda(grid, p, q, seed=5)
        assert se.lq_norm(res.minimizer, q) == pytest.approx(1.0, abs=1e-10)
        # ground state has one sign
        assert np.all(res.minimizer.values > 0) or np.all(res.minimizer.values < 0)
        assert se.rayleigh_quotient(res.minimizer, p, q) == pytest.approx(
            res.lambda_star, rel=1e-10)


def test_node_cap():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (6, 6))
    with pytest.raises(ValueError):
        se.brute_force_lambda(grid, 2.0, 2.0)


def test_seed_determinism():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    a = se.brute_force_lambda(grid, 2.5, 3.0, seed=11)
    b = se.brute_force_lambda(grid, 2.5, 3.0, seed=11)
    assert a.lambda_star == b.lambda_star
    assert np.array_equal(a.minimizer.values, b.minimizer.values)
