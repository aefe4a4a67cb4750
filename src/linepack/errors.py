"""Exception hierarchy shared by all modules, and the one array size limit.

The CLI maps these onto stable exit codes: InputError -> 2,
NumericError -> 3, ResourceError -> 4.  Every size refusal goes through
`refuse_past_limit`, before the object it counts is built.
"""

# Largest object, in entries, that a computation may build before it is
# refused with ResourceError: 2^27 int64 values, 1 GiB.
MAX_ARRAY_ENTRIES = 2**27


class LinepackError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LinepackError):
    """Malformed or out-of-contract input (bad permutation, dimension
    mismatch, index out of range, ...)."""


class NumericError(LinepackError):
    """A numerical procedure could not certify its result (ill-separated
    spectrum, ambiguous value clustering, ...)."""


class ResourceError(LinepackError):
    """An explicit size or search budget was exceeded (the array size
    limit, subset caps, backtracking node budgets)."""


def refuse_past_limit(entries: int, what: str) -> None:
    """Raise ResourceError when `what` would hold more than MAX_ARRAY_ENTRIES entries."""
    if entries > MAX_ARRAY_ENTRIES:
        raise ResourceError(
            f"{what} would need {entries} entries, above the limit of {MAX_ARRAY_ENTRIES}"
        )
