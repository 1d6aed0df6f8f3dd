"""Exception taxonomy shared across the package."""


class ObkitError(Exception):
    """Base class for all package errors."""


class ContextError(ObkitError):
    """Operands belong to different groups or coefficient modules."""


class DimensionError(ObkitError):
    """Vector or matrix dimensions do not match."""


class UnsupportedError(ObkitError):
    """The requested computation is outside the supported class."""


class RejectedError(ObkitError):
    """A precondition of the requested operation does not hold."""
