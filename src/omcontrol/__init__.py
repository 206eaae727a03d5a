"""Discounted discrete-time optimal control via occupational-measure LPs.

Solve the finitely-constrained LP over discounted occupational measures,
extract atomic primal measures and polynomial dual certificates, synthesize
near-optimal feedback controls, and certify their suboptimality gap.
"""

from .basis import MonomialBasis, constraint_columns
from .errors import (AssumptionIIViolation, AssumptionIViolation, EmptyMeasure,
                     InadmissibleTransition, InsufficientGrid, LpInfeasible,
                     LpUnbounded, NonConverged, NotConverged, RolloutAborted,
                     SolverError, SolverStalled, UnknownProblem)
from .model import Box, DiscreteControlProblem, builtin_problem, one_step, step
from .silp import (AtomicMeasure, CandidateSpec, DualCertificate, FiniteLP,
                   GridSpec, assemble, discard_small_atoms, reduced_costs,
                   solve, solve_refined)
from .synthesis import (Rollout, control_pattern, gap_certificate,
                        heuristic_control, heuristic_policy, minimizer_control,
                        minimizer_policy, rollout)
from .verify import (ValueFunctionGrid, check_optimality_conditions, check_psi_bound,
                     check_shifted_inequality, hamiltonian_min, measure_residuals,
                     occupational_measure, value_iteration)

__version__ = "0.1.0"
