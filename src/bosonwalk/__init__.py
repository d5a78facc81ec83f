"""Discrete-time quantum walk for a massless spin-1 field on a cubic lattice.

Submodules:

- algebra:    6-component internal space, block generators, step projectors
- kernel:     single-mode step unitary, dispersion phase, group velocity
- lattice:    periodic-lattice states, wave packets, evolution, centroids
- anisotropy: direction dependence of the propagation speed on the sphere
- bounds:     observational constraints converted to lattice-spacing bounds
- budget:     the memory budget oversized runs are refused by
- errors:     the typed errors, every one exported here as well
- verify:     named invariant checks spanning all of the above
- cli:        command-line interface (surface/propagate/anisotropy/bounds/verify)
"""

import importlib
import math
from types import MappingProxyType

__version__ = "0.1.0"

# the default physical constants of the bound conversions, in the order
# `bosonwalk --version` prints them (bounds.PhysicalConstants)
CONSTANTS = MappingProxyType({
    "hbar_c": 1.973269804e-16,        # GeV m, CODATA
    "planck_length": 1.6e-35,         # m
    "speed_of_light": 2.99792458e8,   # m/s
})

# closed forms of the direction factor s on the sphere (see anisotropy):
# its RMS under dOmega / 4 pi and under dOmega, and max s - min s; here,
# bounds reads them without loading anisotropy and numpy
RMS_UNIT_AVERAGE = 1.0 / math.sqrt(105.0)
RMS_SOLID_ANGLE = math.sqrt(4.0 * math.pi / 105.0)
SPREAD_MAX = 2.0 / (3.0 * math.sqrt(3.0))

from . import errors
from .errors import *  # noqa: F403 -- errors defines the error classes only

__all__ = ["__version__", "algebra", "anisotropy", "bounds", "kernel", "lattice",
           *(name for name in vars(errors) if not name.startswith("_"))]

_SUBMODULES = ("algebra", "anisotropy", "bounds", "kernel", "lattice")


def __getattr__(name):
    # the submodules load numpy, so a bare `import bosonwalk` imports them
    # on first access (PEP 562); the CLI pins BLAS threads before that
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
