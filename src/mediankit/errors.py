"""Exception taxonomy shared by all modules.

InputError      -> malformed data or violated preconditions (CLI exit 2)
ResourceLimitError -> a size/budget cap was exceeded (CLI exit 3)
NotMedianError  -> a certification produced a negative verdict (CLI exit 1)
InternalCheckError -> a property the theory guarantees failed; a bug signal,
                      never an expected runtime outcome (CLI exit 4).
"""

from __future__ import annotations


class MedianKitError(Exception):
    """Base class for all mediankit errors."""


class InputError(MedianKitError):
    """Malformed input or a violated precondition."""


class ResourceLimitError(MedianKitError):
    """A configured size or enumeration cap was exceeded."""

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class NotMedianError(MedianKitError):
    """Certification failed; carries the offending witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(MedianKitError):
    """A theorem-backed invariant failed at runtime (implementation bug)."""


class UnsupportedNormError(InputError):
    """The requested norm lacks the convexity the operation needs."""

