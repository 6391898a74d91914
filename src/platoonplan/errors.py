"""Exception types shared across the package."""


class PlatoonPlanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PlatoonPlanError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(PlatoonPlanError):
    """Input data violates a structural invariant."""


class EmptyPathSet(PlatoonPlanError):
    """No admissible origin-destination path survives the detour/time screen."""


class InfeasibleVehicle(PlatoonPlanError):
    """A vehicle cannot reach its destination inside its time window."""


class GenerationFailed(PlatoonPlanError):
    """Random instance generation exhausted its resampling budget."""


class InfeasibleNode(PlatoonPlanError):
    """A node's earliest admissible visit time exceeds its latest one."""


class ModelInvalid(PlatoonPlanError):
    """A MIP model is structurally broken (names, bounds, senses)."""


class ModelInfeasible(PlatoonPlanError):
    """An LP relaxation has no feasible point."""


class Unbounded(PlatoonPlanError):
    """The relaxation of a model is unbounded; no finite optimum exists."""


class MissingCost(PlatoonPlanError):
    """A routing model with shaped costs lacks a coefficient it needs."""


class EmptyEntrySet(PlatoonPlanError):
    """A scheduling model found a vehicle with no admissible entry time."""


class ShrinkInfeasible(PlatoonPlanError):
    """Aligning two windows for a planned merge emptied one of them."""


class NoFeasibleSolution(PlatoonPlanError):
    """The routing stage produced no usable solution at all."""


class InvalidSolution(PlatoonPlanError):
    """An operation that requires a feasible timetable received a broken one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DecodeInconsistent(PlatoonPlanError):
    """A solver incumbent decoded into a timetable that fails validation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
