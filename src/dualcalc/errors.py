"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, verification
failures -> 2, internal inconsistencies -> 3.
"""


class UsageError(ValueError):
    """Bad arguments or preconditions violated by the caller."""


class VerificationFailure(Exception):
    """A mathematical identity that the package checks did not hold."""


class InternalError(AssertionError):
    """Bookkeeping invariant broken (division remainder, odd power of i, ...)."""
