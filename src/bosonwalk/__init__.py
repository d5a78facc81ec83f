"""Discrete-time quantum walk for a massless spin-1 field on a cubic lattice.

Submodules:

- algebra:    6-component internal space, block generators, step projectors
- kernel:     single-mode step unitary, dispersion phase, group velocity
- lattice:    periodic-lattice states, wave packets, evolution, centroids
- anisotropy: direction dependence of the propagation speed on the sphere
- bounds:     observational constraints converted to lattice-spacing bounds
- verify:     named invariant checks spanning all of the above
- cli:        command-line interface (surface/propagate/anisotropy/bounds/verify)
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    ArgumentOutOfRangeError,
    BasisMismatchError,
    CatalogParseError,
    CatalogValidationError,
    DegenerateSpectrumError,
    MemoryBudgetError,
    MissingWavelengthError,
    PacketSpecError,
    SeriesOutOfRangeError,
    UndefinedCentroidError,
    UnsupportedOrderError,
    WalkError,
    ZeroMomentumError,
)

__all__ = [
    "__version__",
    "algebra", "anisotropy", "bounds", "kernel", "lattice",
    "WalkError", "ArgumentOutOfRangeError", "BasisMismatchError",
    "CatalogParseError", "CatalogValidationError", "DegenerateSpectrumError",
    "MemoryBudgetError", "MissingWavelengthError", "PacketSpecError",
    "SeriesOutOfRangeError", "UndefinedCentroidError", "UnsupportedOrderError",
    "ZeroMomentumError",
]

_SUBMODULES = ("algebra", "anisotropy", "bounds", "kernel", "lattice")


def __getattr__(name):
    # the submodules load numpy, so a bare `import bosonwalk` imports them
    # on first access (PEP 562); the CLI pins BLAS threads before that
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
