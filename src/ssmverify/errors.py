"""Exception types shared across the package."""

from __future__ import annotations


class SsmVerifyError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SsmVerifyError):
    """Vector/matrix/network dimensions do not line up."""


class UnknownSymbolError(SsmVerifyError):
    """A word contains a symbol outside the model's alphabet."""


class EmptyWordError(SsmVerifyError):
    """Evaluation of the empty word is undefined (models map sigma-plus)."""


class TracePositionError(SsmVerifyError):
    """A trace position lies outside 1..len(trace)."""


class LtlSyntaxError(SsmVerifyError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidMachineError(SsmVerifyError):
    """A counter machine violates the structural determinism rule."""


class InputFormatError(SsmVerifyError):
    """An input file or literal cannot be parsed."""


class PreconditionError(SsmVerifyError):
    """An operation was called outside its stated precondition."""


class ResourceLimitError(SsmVerifyError):
    """A solver hit its state or memory ceiling; carries partial stats."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats
