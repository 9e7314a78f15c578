import numpy as np
import pytest

import subeigen as se


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_square():
    return se.build_grid("euclidean2", [(0, 1), (0, 1)], (8, 8))


@pytest.fixture
def unit_cube_heis():
    return se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (4, 4, 4))


def chain_grid(n: int = 3, h: float = 1.0):
    """n interior nodes in a row with spacing h; the transverse axis is made
    so long (h_y = 1e6) that its Dirichlet face contribution (2/h_y^2 per
    node) is far below every tolerance used against 1D chain references."""
    return se.build_grid("euclidean2", [(0, (n + 1) * h), (0, 2e6)], (n, 1))


def random_field(grid, rng, scale=1.0):
    return se.Field(grid, scale * rng.standard_normal(grid.n_nodes))


def fail_inner_solve_on_call(monkeypatch, n: int) -> None:
    """Make the n-th inner solve of inverse iteration raise ConvergenceError."""
    from subeigen import eigensolver
    real = eigensolver.solve_inner
    calls = []

    def solve(f, *args, **kwargs):
        calls.append(f)
        if len(calls) == n:
            raise se.ConvergenceError("injected inner failure", se.Field.zeros(f.grid), 1.0)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_inner", solve)
