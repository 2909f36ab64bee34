"""Exception types shared across the library and the CLI exit-code mapping."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(AlgebraError, ValueError):
    """A constructor argument is out of range or malformed."""


class RingMismatchError(AlgebraError, ValueError):
    """Elements or ideals of different rings were mixed in one operation."""


class EnumerationLimitError(AlgebraError, RuntimeError):
    """An enumeration would exceed the configured bound.  ``size`` is None
    when it was only found to pass the bound, not computed."""

    def __init__(self, what: str, size: int | None, bound: int):
        self.what = what
        self.size = size
        self.bound = bound
        shown = "size" if size is None else f"size {size}"
        super().__init__(f"{what}: {shown} exceeds enumeration bound {bound}")


class GradingDecompositionError(AlgebraError, ValueError):
    """The proposed parts do not split the ring as a direct sum."""


class GradingAxiomError(AlgebraError, ValueError):
    """The proposed parts violate a degree-closure axiom (or 1 lies outside
    the even part)."""


class InvalidModuleError(InvalidParameterError):
    """A cyclic-module order is incompatible with the base ring."""


class InvalidInputError(AlgebraError, ValueError):
    """An argument fails a documented precondition (not an ideal, not prime,
    not a graded ideal, ...)."""


class NotStronglyGradedError(InvalidInputError):
    """Operation requires the square of the odd part to be the whole even part."""


class NotGradedFieldError(InvalidInputError):
    """Operation requires every nonzero homogeneous element to be a unit."""


class TheoremViolationError(AlgebraError, RuntimeError):
    """A structural fact that holds for every valid input failed to hold.

    Signals an implementation bug, never an expected condition.  Raised only
    by ``strong_grading_certificate``, ``graded_field_presentation`` and
    ``norm``, which check the object they return or the value they look up.
    """


class InstanceParseError(AlgebraError, ValueError):
    """An instance file failed validation; carries the offending JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
