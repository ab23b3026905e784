"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainMismatchError(ToolkitError):
    """Requested region is not contained in the field's domain."""


class OrderingViolationError(ToolkitError):
    """Pointwise exponent ordering q <= p violated at a sampled point."""


class JumpBudgetError(ToolkitError):
    """Jump length exceeds the smallness hypothesis of the construction."""


class SearchExhaustedError(ToolkitError):
    """Randomised search ran out of trials; carries diagnostic payload."""

    def __init__(self, message, violating_h=None):
        super().__init__(message)
        self.violating_h = violating_h


class AdaptationError(ToolkitError):
    """Vertex rejection sampling failed; names the offending vertex."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class WindowNotFoundError(ToolkitError):
    """No dyadic radius satisfies the covering density window."""


class DegenerateInputError(ToolkitError):
    """Input map degenerate for the requested operation."""


class ConstructionError(ToolkitError):
    """A synthetic construction could not be completed as requested."""


class CompetitorError(ToolkitError):
    """Competitor map violates the admissibility constraints."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
