"""Exception types shared across the package."""


class CapsymError(Exception):
    """Base class for all capsym errors."""


class ConfigError(CapsymError):
    """A run configuration or a saved solution is malformed."""


class InvalidDomainError(CapsymError):
    """Domain description violates a geometric precondition."""


class SolverFailureError(CapsymError):
    """Collocation solve missed its tolerance at its nodes or check grid."""


class OutOfRegionError(CapsymError):
    """Evaluation point lies outside the solution's region of validity."""


class CriticalPointError(CapsymError):
    """Operation requires a regular point but the gradient vanishes."""


class LevelRangeError(CapsymError):
    """Requested level is outside the range of the potential."""


class NonStarShapedLevelSetError(CapsymError):
    """A ray from the origin crosses the requested level set more than once."""


class IrregularLevelSetError(CapsymError):
    """Level set fails the gradient regularity threshold."""


class InsufficientSamplesError(CapsymError):
    """Too few sample radii for the requested fit."""
