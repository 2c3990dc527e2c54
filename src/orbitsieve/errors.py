"""Error types shared across the package.

DomainError marks bad caller input (maps to CLI exit 2), ResourceBudgetError marks an
exceeded size/work budget (CLI exit 3), InternalCheckError marks a violated internal
invariant (CLI exit 4): it is a bug, not a property of the input.
"""


class DomainError(ValueError):
    """Parameters outside a function's mathematical domain."""


class ResourceBudgetError(RuntimeError):
    """A configured size or work budget was exceeded before the computation ran."""


class InternalCheckError(RuntimeError):
    """An internal exactness or consistency check failed."""
