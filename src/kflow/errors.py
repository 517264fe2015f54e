"""Exception types shared across the package."""


class KFlowError(Exception):
    """Base class for all kflow errors."""


class InvalidDimensionError(KFlowError, ValueError):
    """Ambient dimension outside the supported range (n >= 3)."""


class NoHorizonError(KFlowError):
    """Mass parameter below the admissible range: V^2 has no positive root."""


class NumericsError(KFlowError):
    """A numerical routine failed to converge; message carries diagnostics."""


class DomainError(KFlowError, ValueError):
    """Evaluation requested outside the valid domain of a function/table."""


class ResolutionError(KFlowError):
    """Requested tolerance is unachievable at the requested grid size."""


class ConfigurationError(KFlowError):
    """Invalid configuration.  ``problems`` lists the offending paths."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MeanConvexityError(KFlowError):
    """Mean curvature is non-positive somewhere; ``nodes`` holds the indices."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class NonRepresentableGraphError(KFlowError):
    """The requested graph profile does not exist (negative radicand)."""


class DecayViolationError(KFlowError):
    """``mass_limit``'s finite-radius mass samples do not converge: their
    increments grow, or their fitted error slope is shallower than rho^-1.5."""


class FlowBreakdownError(KFlowError):
    """The flow tripped the mean-curvature floor.

    Carries the partial trace and the last surface for post-mortem analysis.
    """

    def __init__(self, message, trace=None, surface=None):
        super().__init__(message)
        self.trace = trace
        self.surface = surface
