"""Classical sanity check: the Dirichlet ground state of the unit square.

For p = q = 2 the first eigenpair of the problem is the textbook Laplacian
ground state: lambda = 2 pi^2 with eigenfunction sin(pi x) sin(pi y).  The
solver lands on the discrete version of that value, which converges to
2 pi^2 as the grid is refined.
"""

import time

import numpy as np

import subeigen as se

TARGET = 2 * np.pi ** 2

print(f"analytic first eigenvalue of (0,1)^2 at p = q = 2: 2 pi^2 = {TARGET:.6f}\n")
print(f"{'n':>4} {'inverse':>12} {'rel err':>10} {'outer':>6} {'secs':>7}")
for n in (8, 16, 32, 64):
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (n, n))
    cfg = se.SolverConfig(grid=grid, p=2.0, q=2.0)
    t0 = time.perf_counter()
    inv = se.inverse_iteration(cfg)
    dt = time.perf_counter() - t0
    rel = abs(inv.lambda_hat - TARGET) / TARGET
    print(f"{n:>4} {inv.lambda_hat:>12.6f} {rel:>10.2e} {inv.outer_iters:>6} {dt:>7.2f}")

grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (64, 64))
result = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
u = result.eigenfunction
exact = se.Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
exact = (1.0 / se.lq_norm(exact, 2.0)) * exact
print(f"\nconverged in {result.outer_iters} outer iterations, residual {result.residual:.2e}")
print(f"eigenfunction sup deviation from normalized sin*sin: "
      f"{np.max(np.abs(u.values - exact.values)):.2e}")
print(f"mu trace (nonincreasing): {['%.6f' % rec.mu for rec in result.history[:6]]} ...")
