"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CouplingCertError(Exception):
    """Base class for all errors raised by couplingcert."""


class DescriptorError(CouplingCertError):
    """Unknown or out-of-range group / map descriptor."""


class NormalFormError(CouplingCertError):
    """Element is not a valid normal form for the group it was given to."""


class WindowBudgetError(CouplingCertError):
    """Ball enumeration exceeded the element budget."""

    def __init__(self, message: str, radius_reached: int):
        super().__init__(message)
        self.radius_reached = radius_reached


class ResolutionError(CouplingCertError):
    """A required distance exceeds the window radius."""


class PreconditionError(CouplingCertError):
    """An operation's stated precondition is violated."""


def require_int(name: str, value) -> None:
    """Refuse a value that is not an ``int``, a ``bool`` included: radii,
    scales and bounds are integers, as word lengths are."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")


class TableMapError(CouplingCertError):
    """Lookup-table map problem: bad file syntax or missing key."""


class ScaleSelectionError(CouplingCertError):
    """No scale with compression >= 3 was found.

    ``kind`` is ``"kappa-bounded"`` when the compression table has stopped
    growing (the map is not a coarse equivalence), ``"t-max-too-small"``
    when it was still growing at the end of the table or was truncated
    because an image distance left the target window (a larger window may
    reach kappa >= 3).
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class PipelineError(CouplingCertError):
    """Failure of a pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
