"""Exception types shared across the package."""


class KspolyError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(KspolyError):
    """A case parameter violates a validity rule (named in the message)."""


class AdmissibilityError(KspolyError):
    """The eigenfunction linear system is singular for the given parameters."""


class StencilError(KspolyError):
    """A recurrence referenced an out-of-range entry with nonzero coefficient.

    This indicates a bug in the recurrence coefficient tables, never a
    user input problem.
    """


class TransferError(KspolyError):
    """A transfer-build path divides by a vanishing coefficient."""

