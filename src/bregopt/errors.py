"""Exception types shared across the package."""


class BregoptError(Exception):
    """Base class for all package errors."""


class DomainViolation(BregoptError):
    """A point lies outside the domain required by an operation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StepOutOfDomain(BregoptError):
    """A mirror step left the conjugate domain of the reference function.

    ``index`` is the first offending coordinate, so callers can log it or
    retry with a smaller step.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StepFailure(BregoptError):
    """A mirror step could not be taken: the step-halving safeguard exhausted
    its retry budget, or an inner solve failed (InnerSolveFailure)."""


class InnerSolveFailure(StepFailure):
    """The preconditioner's conjugate solve ended above ``INNER_TOL`` (its
    Newton cap reached or its residual no longer decreasing), or met a
    non-finite gradient or a singular Hessian. A StepFailure, so that
    ``run()`` keeps the partial trace."""


class InvalidData(BregoptError):
    """Input data violates a structural requirement (e.g. negative entries)."""


class InvalidConstants(BregoptError):
    """A regularity constant required by a step-size rule is non-positive."""


class TraceInvariantError(BregoptError):
    """A trace record would make a monotone column (grad_evals, comms) decrease."""


class InsufficientData(BregoptError):
    """Not enough data (rows, trace records, ...) for the requested operation."""


class AnchorsUnavailable(BregoptError):
    """A SAGA potential was requested but anchor points were not stored."""


class ParseError(BregoptError):
    """A text input file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class LabelError(BregoptError):
    """A classification label is outside the supported conventions."""
