"""Exception hierarchy shared across the package."""


class HydraMergeError(Exception):
    """Base class for every error raised by this package.  ``task`` is the
    index of the task whose input is to blame, when one task is."""

    def __init__(self, message: str = "", task: int | None = None):
        super().__init__(message)
        self.task = task


class ShapeError(HydraMergeError, ValueError):
    """Operands have incompatible or malformed shapes."""


class ParameterError(HydraMergeError, ValueError):
    """A numeric or structural parameter is outside its legal range."""


class DegenerateInputError(HydraMergeError, ValueError):
    """Input is degenerate for the requested operation (e.g. a zero matrix
    passed to the cosine distance)."""


class ArchiveFormatError(HydraMergeError, ValueError):
    """Bytes on disk do not parse as an LRTA v1 archive."""


class ValidationError(HydraMergeError, ValueError):
    """Structurally parseable data violates a collection or bundle invariant."""


class NumericalError(HydraMergeError, ArithmeticError):
    """A computation left the finite range: an overflowed Gram trace (of a
    target, when ``task`` is set), or a training run whose loss or gradient
    became non-finite or ran away."""
