"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Base class for all errors raised by this package."""


class DegenerateMetric(GeometryError):
    """Metric matrix is singular (|det| below threshold)."""


class DimMismatch(GeometryError):
    """Tensor operands have incompatible dimensions."""


class BadSignature(GeometryError):
    """Metric does not have the required signature."""


class NotAntisymmetric(GeometryError):
    """Structure constants are not antisymmetric in the lower indices."""


class SingularCoframe(GeometryError):
    """Coframe matrix is singular at a sample point."""


class BaseNotHolomorphic(GeometryError):
    """Base manifold fails the parallel-complex-structure test."""


class RNotNegative(GeometryError):
    """Cone radial coordinate must be negative."""


class NotSasakiLike(GeometryError):
    """Operation requires a structure that passes the Sasaki-like test."""


class NonConstantParams(GeometryError):
    """Operation requires constant transformation parameters."""


class DegenerateParameters(GeometryError):
    """Parameter pair (a, b) = (0, 0) is excluded."""


class UnknownBuiltin(GeometryError):
    """No builtin model with the requested name."""


class BadParams(GeometryError):
    """A model, a model spec or a command received invalid parameters."""


class ParamMismatch(GeometryError):
    """Two models expected to share parameters do not."""
