"""Exception types shared across the toolkit."""


class TomographyError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TomographyError, ValueError):
    """An input fails a structural precondition (matrix, record, config...)."""


class ParseError(ValidationError):
    """Circuit or config text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(ValidationError):
    """Numerical-domain violation (negative eigenvalue, vanishing population)."""


class InfeasibleRecordError(TomographyError):
    """The measured record admits no normalizable maximal-entropy state."""
