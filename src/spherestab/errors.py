"""Exception types shared across the package."""


class SpherestabError(Exception):
    """Base class for all package errors."""


class DegenerateChart(SpherestabError):
    """Chart metric is numerically singular (condition number > 1e12)."""


class ImmersionDrift(SpherestabError):
    """Immersion image left the unit sphere by more than the tolerance."""


class AssemblyFailure(SpherestabError):
    """Discrete operator assembly produced an invalid matrix, or a stability
    pencil failed its certificate."""


class UnsupportedFamily(SpherestabError):
    """No closed-form backend exists for the requested surface family."""


class ZeroTestFunction(SpherestabError):
    """Rayleigh quotient requested for an (almost) identically zero field."""


class NonMinimal(SpherestabError):
    """Surface has |H| above tolerance at a sampled point."""


class BudgetInfeasible(SpherestabError):
    """No ball cover can satisfy sum(r_i^(n-q)) < epsilon for the input set."""


class PreconditionViolated(SpherestabError):
    """Input configuration violates a checked precondition."""


class BoundViolation(SpherestabError):
    """A proved inequality was violated numerically (should never happen)."""


class InsufficientSamples(SpherestabError):
    """Monte-Carlo standard error exceeds 10% of the bound being tested."""
