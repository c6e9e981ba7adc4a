"""Discrete potential theory on finite point clouds.

Riesz and Green kernels, energies, capacities, balayage, equilibrium
measures, and the weighted minimum-energy problem with an external field,
all realized as finite quadratic programs with checkable optimality
conditions.
"""

from .balayage import (BalayageResult, SweepResiduals, dirac_sweep_matrix,
                       sweep)
from .core import (DiscreteMeasure, DomainConfig, InvariantError, PointSet,
                   SolverError, ValidationError, nearest_neighbor_distances,
                   validate_field_separation)
from .gauss import (ExternalField, GaussSolution, dual_check,
                    explicit_solution, external_field, family_sweep,
                    solve_gauss, support_descriptor)
from .green import (GreenSystem, build_green, frostman_excess,
                    green_equilibrium, green_sweep)
from .riesz import (KernelMatrix, assemble_riesz, capacity, make_kernel,
                    potential, weight_norm)
from .solvers import KKTRecord, nonneg_qp, simplex_qp

__version__ = "1.0.0"

__all__ = [
    "BalayageResult", "DiscreteMeasure", "DomainConfig", "ExternalField",
    "GaussSolution", "GreenSystem", "InvariantError", "KKTRecord",
    "KernelMatrix", "PointSet", "SolverError", "SweepResiduals",
    "ValidationError", "assemble_riesz", "build_green", "capacity",
    "dirac_sweep_matrix", "dual_check", "explicit_solution", "external_field",
    "family_sweep", "frostman_excess", "green_equilibrium", "green_sweep",
    "make_kernel", "nearest_neighbor_distances", "nonneg_qp", "potential",
    "simplex_qp", "solve_gauss", "support_descriptor", "sweep",
    "validate_field_separation", "weight_norm", "__version__",
]
