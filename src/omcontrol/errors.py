"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all omcontrol errors."""


class UnknownProblem(SolverError):
    """Requested built-in problem name is not registered."""


class AssumptionIViolation(SolverError):
    """A state has no admissible control on the supplied grid."""

    def __init__(self, state, message=None):
        self.state = state
        super().__init__(message or f"no admissible control at state {state}")


class AssumptionIIViolation(SolverError):
    """Two concentration points share a state but carry different controls."""


class InadmissibleTransition(SolverError):
    """Dynamics left the state region."""


class InsufficientGrid(SolverError):
    """Grid yields fewer admissible points than LP rows."""


class LpInfeasible(SolverError):
    """LP has no feasible point."""


class LpUnbounded(SolverError):
    """LP objective is unbounded below (signals an assembly bug here)."""


class SolverStalled(SolverError):
    """Simplex exceeded its pivot budget without reaching optimality."""


class EmptyMeasure(SolverError):
    """Discarding removed every atom of a measure."""


class NonConverged(SolverError):
    """Refinement hit its round limit; carries the best result so far."""

    def __init__(self, measure, certificate, rounds, message=None):
        self.measure = measure
        self.certificate = certificate
        self.rounds = rounds
        super().__init__(message or f"refinement not converged after {rounds} rounds")


class NotConverged(SolverError):
    """Value iteration hit its sweep limit; carries the last iterate."""

    def __init__(self, grid, message=None):
        self.grid = grid
        super().__init__(message or "value iteration not converged")


class RolloutAborted(SolverError):
    """Feedback policy failed mid-trajectory; carries the partial rollout.

    ``rollout`` holds the steps taken before the failure, possibly none,
    with NaN for its truncated value and bound.
    """

    def __init__(self, rollout, cause, message=None):
        self.rollout = rollout
        self.cause = cause
        super().__init__(message or
                         f"rollout aborted after {len(rollout.states)} steps: {cause}")
