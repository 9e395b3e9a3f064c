"""Domain error types.

Every guarded precondition in the library raises one of these rather than a
bare ValueError, so the CLI can map failures to structured output and tests
can assert on the exact failure mode.
"""


class ToursidError(Exception):
    """Base class for all toursid domain errors."""


class EmptyInput(ToursidError):
    pass


class InvalidInput(ToursidError, ValueError):
    """A malformed text file, or an object that breaks its own invariants."""


class InvalidCharacter(ToursidError):
    def __init__(self, position: int, char: str):
        super().__init__(f"invalid orientation character {char!r} at position {position}")
        self.position = position
        self.char = char


class CapExceeded(ToursidError):
    pass


class OddLength(ToursidError):
    pass


class TooShort(ToursidError):
    pass


class SizeMismatch(ToursidError):
    pass


class MissingHalfLoops(ToursidError):
    pass


class PreconditionViolated(ToursidError):
    pass


class InternalAssertionFailed(ToursidError):
    """A theorem-guaranteed invariant failed; signals an implementation bug."""


class ConvergenceFailure(ToursidError):
    pass


class EntryRangeViolated(ToursidError):
    pass


class UnknownName(ToursidError):
    pass


class NotSkewForEvenPower(ToursidError):
    pass


class ValidityConditionViolated(ToursidError):
    pass


class InvalidDelta(ToursidError):
    pass


class RangeViolated(ToursidError):
    pass


class NotCaterpillar(ToursidError):
    pass


class NotIndependent(ToursidError):
    pass


class DiscriminantNegative(ToursidError):
    pass


class InvalidHost(ToursidError):
    pass
