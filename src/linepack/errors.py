"""Exception hierarchy shared by all modules, and the one array size limit.

The CLI maps these onto stable exit codes: InputError -> 2,
NumericError -> 3, ResourceError -> 4.
"""

# Largest array, in entries, that a computation may allocate before it is
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
    """An explicit size or search budget was exceeded (element limits,
    subset caps, backtracking node budgets)."""
