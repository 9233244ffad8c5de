"""Numerical toolkit for large-population games with kernel interactions.

Modules
-------
grid        weighted node grids and quadrature
kernels     bivariate kernels and spectral tests of the weighted operator
game        basic games, Gaussian information, linear equilibrium solver
moments     equilibrium moments: obedience, positivity, bounds, objectives
design      optimal information disclosure and the Cournot application
montecarlo  seeded stochastic verification engine
cli         command-line front end
"""

from .errors import (InfeasibleMoment, KernelGamesError, NoConvergence,
                     NoRealEigenvalueAtLeastOne, SingularMeanEquation)
from .grid import GridFunction, MeasureGrid, uniform_grid
from .kernels import (Kernel, SpectralReport, check_psd, check_r1, check_r2,
                      constant_kernel, eigenvalues, graph_kernel,
                      hadamard_eigen_bound, numerical_range_bounds,
                      operator_matrix, operator_norm_bound, real_eigenvalues,
                      separable_kernel, spectral_report, unidirectional_kernel)
from .game import (BasicGame, GaussianInfo, LinearEquilibrium, MomentReport,
                   common_state_game, full_info, info_from_parts, no_info,
                   private_iid_info, public_info, solve_linear_equilibrium,
                   solve_mean, targeted_info, verify_moment_restrictions)
from .moments import (BoundsReport, DesignObjective, EquilibriumMoment,
                      Feasibility, bounds_check, check_feasibility,
                      check_obedience, check_positivity, common_state_moment,
                      construct_canonical_signals, diag_integral,
                      double_integral, objective_value,
                      symmetric_moment_identity, zeta_integral)
from .design import (AuditReport, CournotReport, PublicReport, RegimeReport,
                     cournot_policy, global_optimality_audit,
                     moment_from_equilibrium, optimal_targeted, public_optimum,
                     regime_diagram, symmetric_moment,
                     targeted_equilibrium_moment, targeted_grid_scan,
                     targeted_value)
from .montecarlo import (BMEquilibrium, DuplicateReport, MCReport,
                         ProcessReport, best_response_audit,
                         bm_example_equilibrium, covariance_exchange_residual,
                         duplicate_equilibria, verify_aggregate_mean,
                         verify_aggregate_variance, verify_process)

__version__ = "0.1.0"
