"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """Raised when an operation requires a converged scaling solution."""


class ParseError(ValueError):
    """Raised on malformed input files; the message starts with ``line N:``
    when the line is known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
