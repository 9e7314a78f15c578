"""Ground-truth cross-checks on grids small enough to brute-force.

On at most 25 interior nodes two independent references are available: a
dense symmetric eigensolve (p = q = 2) and a derivative-free multistart
search over the Rayleigh quotient (any p, q).  The iterative solver is held
to them here.
"""

import numpy as np

import subeigen as se

# the 3-node chain: eigenvalues of tridiag(2, -1) are 2 - 2 cos(k pi / 4)
chain = se.build_grid("euclidean2", [(0, 4), (0, 2e6)], (3, 1))
res = se.brute_force_lambda(chain, 2.0, 2.0)
print(f"3-node chain (h = 1): lambda = {res.lambda_star:.10f}, "
      f"2 - sqrt(2) = {2 - np.sqrt(2):.10f}")

# 3 x 3 unit square: both axes contribute (2 - 2 cos(pi/4)) / h^2 with h = 1/4
square = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
res = se.brute_force_lambda(square, 2.0, 2.0)
print(f"3x3 unit square:      lambda = {res.lambda_star:.10f}, "
      f"32 (2 - sqrt(2)) = {32 * (2 - np.sqrt(2)):.10f}\n")

print(f"{'grid':>12} {'(p,q)':>10} {'oracle':>12} {'inverse':>12} {'rel dev':>10} {'method':>11}")
heis = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (2, 2, 2))
for grid, name in ((square, "3x3 square"), (heis, "2x2x2 heis")):
    for p, q in ((2.0, 2.0), (1.5, 2.0), (2.5, 2.0), (3.0, 3.0)):
        oracle = se.brute_force_lambda(grid, p, q, seed=1)
        cfg = se.SolverConfig(grid=grid, p=p, q=q, tol_outer=1e-8)
        inv = se.inverse_iteration(cfg)
        dev = abs(inv.lambda_hat - oracle.lambda_star) / oracle.lambda_star
        print(f"{name:>12} {f'({p:g},{q:g})':>10} {oracle.lambda_star:>12.6f} "
              f"{inv.lambda_hat:>12.6f} {dev:>10.2e} {oracle.method:>11}")

print("\nmultistart restarts run from one positive start plus 64 random")
print("unit-sphere points; the minimizer always comes back with one sign:")
res = se.brute_force_lambda(heis, 2.5, 2.0, seed=9)
print(f"  min value {res.minimizer.values.min():.5f}, max {res.minimizer.values.max():.5f}, "
      f"restarts used: {res.restarts_used}")
