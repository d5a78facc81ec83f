"""Typed errors raised across the package."""


class WalkError(Exception):
    """Base class for all bosonwalk errors."""


class ArgumentOutOfRangeError(WalkError):
    """An argument or setting lies outside the values it may take."""


class InvalidArgumentError(WalkError, ValueError):
    """An argument has the wrong shape, basis or value; a ValueError too."""


class DegenerateSpectrumError(WalkError):
    """A mode operation hit a point where eigenvalue branches merge."""


class ZeroMomentumError(WalkError):
    """A series or direction is undefined at kappa = 0."""


class SeriesOutOfRangeError(WalkError):
    """A leading-order series was requested outside its validity window."""


class BasisMismatchError(WalkError):
    """A state was passed in the wrong basis (position vs momentum)."""


class PacketSpecError(WalkError):
    """Wave-packet parameters violate the packet constraints."""


class MemoryBudgetError(WalkError):
    """A run's estimated peak memory exceeds the memory it may allocate."""


class UndefinedCentroidError(WalkError):
    """The circular resultant is too small to define a centroid."""


class UnsupportedOrderError(WalkError):
    """A dispersion record has a correction order the model does not produce."""


class MissingWavelengthError(WalkError):
    """An anisotropy record lacks the wavelength needed for a bound."""


class CatalogParseError(WalkError):
    """An experiment catalog file failed to parse."""


class CatalogValidationError(WalkError):
    """An experiment record violates a catalog invariant."""
