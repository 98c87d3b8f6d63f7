"""Exception hierarchy shared by every slantkit module."""


class SlantKitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SlantKitError):
    """Vector/matrix shapes are incompatible."""


class BasePointError(SlantKitError):
    """Tangent objects anchored at different base points were mixed."""


class RankError(SlantKitError):
    """A frame or basis is numerically rank deficient."""


class InvariantError(SlantKitError):
    """A stated invariant of a value object does not hold."""


class SymmetryError(SlantKitError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class KindError(SlantKitError):
    """Operation requires the other structure kind (contact vs hermitian)."""


class ModelError(SlantKitError):
    """The numeric data contradicts the geometric model (bad structure or
    decomposition), e.g. an asymmetric restricted endomorphism square or an
    eigenvalue outside the admissible range."""


class ComponentError(SlantKitError):
    """A declared component is coarser than the eigenstructure (more than one
    eigenvalue cluster inside it)."""


class ParamError(SlantKitError):
    """Gallery fixture parameters outside their admissible range."""


class UnsupportedError(SlantKitError):
    """Requested computation is out of scope (e.g. curved ambient metric)."""


class SpecError(SlantKitError):
    """A spec file or call violates the input contract (usage error)."""


class ParseError(SlantKitError):
    """Expression source text does not conform to the grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(SlantKitError):
    """Expression evaluation hit an undefined value (division by zero,
    sqrt of a negative, arccos out of range)."""

    def __init__(self, message: str, subexpr: str | None = None):
        if subexpr is not None:
            message = f"{message} in {subexpr!r}"
        super().__init__(message)
        self.subexpr = subexpr


class MetricError(EvalError):
    """The evaluated metric is not symmetric or not positive definite at a
    point; `axiom` names the failed one (`metric-symmetric`,
    `metric-positive`)."""

    def __init__(self, message: str, axiom: str):
        super().__init__(message)
        self.axiom = axiom
