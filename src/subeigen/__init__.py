"""First Dirichlet (p,q)-eigenpairs of the horizontal p-Laplacian on
discretized Carnot-group boxes (Euclidean plane and first Heisenberg group).

The public surface, bottom up:

* :mod:`subeigen.groups` -- stratified group descriptors, dilations,
  homogeneous dimension, exponent-window checks.
* :mod:`subeigen.mesh` -- box grids with zero Dirichlet extension, Field
  (the one node-value type), the discrete horizontal gradient as an
  (n1, n_sites) array, the exact p-energy and L^q norms.
* :mod:`subeigen.operators` -- the exact pair A (p-sub-Laplacian) and B (L^q
  source), both returning Field, the volume pairing, eigenpair residual.
* :mod:`subeigen.inner_solver` -- the convex subproblem A(z) = f, the only
  place the energy is regularized (mesh.EnergyState at a fixed eps).
* :mod:`subeigen.eigensolver` -- inverse iteration and direct quotient
  minimization for the first eigenpair.
* :mod:`subeigen.diagnostics` -- boundedness/positivity diagnostics and
  embedding-constant machinery.
* :mod:`subeigen.oracle` -- dense / multistart ground truth on tiny grids.
* :mod:`subeigen.cli` -- single runs and (p,q) sweeps with JSON/CSV output.
"""

from .diagnostics import (
    RegularityReport,
    estimate_sobolev_constant,
    level_set_measure,
    linf_threshold,
    positivity_check,
    regularity_report,
)
from .eigensolver import (
    EigenResult,
    IterationRecord,
    SolverConfig,
    inverse_iteration,
    rayleigh_minimize,
    rayleigh_quotient,
)
from .groups import (
    GroupDescriptor,
    GROUPS,
    check_regime,
    critical_exponent,
    dilate,
    get_group,
    homogeneous_dimension,
)
from .inner_solver import ConvergenceError, solve_inner
from .mesh import (
    Field,
    Grid,
    build_grid,
    dilate_grid,
    dump_field_csv,
    horizontal_gradient,
    lq_norm,
    p_energy,
)
from .operators import apply_A, apply_B, pairing, residual
from .oracle import OracleResult, brute_force_lambda

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GroupDescriptor", "GROUPS", "get_group", "homogeneous_dimension",
    "critical_exponent", "dilate", "check_regime",
    "Grid", "Field", "build_grid", "dilate_grid",
    "horizontal_gradient", "p_energy", "lq_norm", "dump_field_csv",
    "apply_A", "apply_B", "pairing", "residual",
    "ConvergenceError", "solve_inner",
    "SolverConfig", "EigenResult", "IterationRecord", "inverse_iteration",
    "rayleigh_minimize", "rayleigh_quotient",
    "RegularityReport", "estimate_sobolev_constant", "linf_threshold",
    "level_set_measure", "positivity_check", "regularity_report",
    "OracleResult", "brute_force_lambda",
]
