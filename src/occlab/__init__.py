"""occlab: a laboratory for discrete-time occupancy processes.

Exact chains on {0,1}^n with conditionally independent node transitions,
their deterministic and Gaussian companions, explicit error/concentration
bounds, a model zoo (epidemic spreading, torus cellular automata, patch
occupancy, dynamic random graphs), and distributional diagnostics.
"""

from .errors import (DegenerateSigmaError, DomainError, NotConvergedError,
                     OcclabError, RangeError, SchemaError, SingularMatrixError,
                     TooLargeError)
from .rules import (CoefficientSchedule, CoefficientSet, OccupancyRule,
                    coefficient_schedule, coefficients, constant_rule,
                    estimate_coefficients, evaluate_rule, injected_variance,
                    kappa, linear_rule, rule_conditionals, rule_jacobian)
from .simulate import (BinaryEnsemble, empirical_law, exact_law, law_mean,
                       simulate_ensemble, simulate_projections, state_table,
                       total_variation)
from .deterministic import (DeterministicTrajectory, EquilibriumResult,
                            SmithReport, det_trajectory, find_equilibrium,
                            smith_check, spectral_radius)
from .gaussian import (GaussianApprox, LyapunovResult, lyapunov_solve,
                       sigma_form, simulate_gaussian)
from .bounds import (BoundReport, clt_rate_bound, concentration_bound,
                     concentration_threshold, jbar_moment_bound,
                     lqr_error_bound, mean_functional_norms,
                     rademacher_exact, rademacher_mc)
from .analysis import (DistanceReport, NormalTarget, clt_sweep, ks_distance,
                       lln_sweep, sign_class, wasserstein1)

__version__ = "0.1.0"
