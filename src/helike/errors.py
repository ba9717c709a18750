"""Exception types shared across the package."""


class HelikeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HelikeError, ValueError):
    """A construction parameter is outside its documented range."""


class InvalidQuantumNumberError(HelikeError, ValueError):
    """Angular-momentum arguments are inconsistent (integrality, |m| > j, ...)."""


class InvalidCouplingError(HelikeError, ValueError):
    """The requested orbital pair cannot couple to the requested L or S."""


class FactorizationError(HelikeError, RuntimeError):
    """Overlap matrix is not positive-definite; the basis is degenerate."""


class NegativeEigenvalueError(HelikeError, RuntimeError):
    """A reduced-density-matrix eigenvalue is significantly negative."""


class InconsistentInputError(HelikeError, ValueError):
    """Two arguments that must describe the same object do not."""
