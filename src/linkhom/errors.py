"""Shared exception types."""


class DiagramError(ValueError):
    """Structurally invalid diagram or incompatible operands."""


class ParseError(ValueError):
    """Malformed input document; the message carries position information."""


class UsageError(ValueError):
    """Request outside an operation's domain, such as k < 1 or a negative degree."""


class BudgetError(RuntimeError):
    """Requested size exceeds the configured enumeration budget."""


class VerificationError(RuntimeError):
    """A mechanical check failed; carries the offending object when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
