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


def coerce_enums(config, **enums) -> None:
    """Store each named field of a frozen dataclass as the member of its enum
    whose value it holds, so that code may compare members by identity.  A
    value no member has raises :class:`ParameterError` naming the field and
    its choices."""
    for name, enum in enums.items():
        value = getattr(config, name)
        try:
            object.__setattr__(config, name, enum(value))
        except ValueError:
            choices = ", ".join(member.value for member in enum)
            raise ParameterError(f"{name} must be one of {choices}, got {value!r}") from None
