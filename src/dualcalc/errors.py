"""Error taxonomy shared across the package.

``KINDS`` and ``EXIT_CODES`` give a raised failure's document kind and exit
code: usage errors 1, verification failures 2, internal inconsistencies 3.
"""
from operator import index


class UsageError(ValueError):
    """Bad arguments or preconditions violated by the caller."""


class VerificationFailure(Exception):
    """A mathematical identity that the package checks did not hold."""


class InternalError(AssertionError):
    """Bookkeeping invariant broken (division remainder, odd power of i, ...)."""


def as_index(v, what: str) -> int:
    """v as an int when it is integral by type (``operator.index``), else a
    UsageError: 1.5 is not silently read as 1, nor 2.0 as 2, nor True as 1."""
    if type(v) is bool or not hasattr(type(v), "__index__"):
        raise UsageError(f"{what} must be an integer, not {v!r}")
    return index(v)


# read by cli.main and verify.run_all; an InternalError is an AssertionError
KINDS = {UsageError: "usage", VerificationFailure: "verification",
         AssertionError: "internal", ZeroDivisionError: "internal"}
EXIT_CODES = {"usage": 1, "verification": 2, "internal": 3}


def failure(exc: BaseException) -> dict:
    return {"error": str(exc), "kind": next(k for t, k in KINDS.items() if isinstance(exc, t))}
