"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition (range, sign, admissibility)."""


class ConvergenceError(ArithmeticError):
    """A series or iteration failed to converge under its control settings.

    Carries ``terms_used`` so callers can tell how far the evaluation got;
    a non-convergent evaluation never returns an approximate value.
    """

    def __init__(self, message: str, terms_used: int = 0):
        super().__init__(message)
        self.terms_used = terms_used


class AccuracyError(ArithmeticError):
    """A quadrature refinement check detected insufficient grid resolution."""
