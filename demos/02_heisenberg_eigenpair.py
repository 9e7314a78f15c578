"""First (p,q)-eigenpair on the Heisenberg group.

The horizontal gradient on H^1 only sees the two fields
X1 = d/dx - (y/2) d/dt and X2 = d/dy + (x/2) d/dt; the t-direction is
reached through their commutator, and the homogeneous dimension is 4
rather than 3.  No analytic eigenvalue is available, but at p = q = 2 the
discrete one is the smallest eigenvalue of the stiffness matrix, which a
sparse shift-invert Lanczos solve finds independently of the solver.
"""

import scipy.sparse.linalg as sla

import subeigen as se

box = [(-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)]
print("centered unit cube on heisenberg1, p = q = 2\n")
print(f"{'n':>4} {'inverse':>12} {'eigsh':>12} {'rel gap':>10} {'sup':>8} {'min':>10}")
for n in (6, 10, 14):
    grid = se.build_grid("heisenberg1", box, (n, n, n))
    cfg = se.SolverConfig(grid=grid, p=2.0, q=2.0)
    inv = se.inverse_iteration(cfg)
    ref = sla.eigsh(grid.stiffness_p2, k=1, sigma=0, return_eigenvectors=False)[0]
    gap = abs(inv.lambda_hat - ref) / ref
    vals = inv.eigenfunction.values
    print(f"{n:>4} {inv.lambda_hat:>12.6f} {ref:>12.6f} {gap:>10.2e}"
          f" {vals.max():>8.4f} {vals.min():>10.2e}")

grid = se.build_grid("heisenberg1", box, (12, 12, 12))
result = se.inverse_iteration(se.SolverConfig(grid=grid, p=2.0, q=2.0))
positive, core_min = se.positivity_check(result.eigenfunction)
print(f"\nn = 12: converged={result.converged} after {result.outer_iters} iterations,"
      f" residual {result.residual:.2e}")
print(f"strictly positive: {positive}; minimum over the central half-box: {core_min:.4f}")

report = se.regularity_report(result.eigenfunction, result.lambda_hat, 2.0, 2.0)
print(f"boundedness case {report.case_tag}: threshold k = {report.k_threshold:.2f} "
      f"vs sup = {report.sup_norm:.3f} "
      f"(superlevel sets above the threshold are empty, as the bound demands)")

print("\nexponent window on this group: 1 < p < 4, 1 < q < 4p/(4-p)")
for p, q in ((2.0, 3.9), (2.0, 4.0), (3.5, 11.0), (4.0, 2.0)):
    msg = se.check_regime(p, q, grid.group)
    print(f"  p={p}, q={q}: {'admissible' if msg is None else msg}")
