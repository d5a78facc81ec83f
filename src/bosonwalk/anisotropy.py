"""Angular structure of the leading speed deviation.

For small momentum along the direction (theta, phi), the walk's packet
speed differs from the light speed by -kappa * s(theta, phi) with

    s(theta, phi) = cos(theta) sin^2(theta) cos(phi) sin(phi).

This module gives s itself, its statistics over the sphere (mean, two
RMS normalizations, extrema), and the direction-resolved deviation.
The two RMS conventions differ by sqrt(4 pi): the unit-average form is
sqrt(<s^2>) = 1/sqrt(105) ~= 0.0976, while the integral form
sqrt(int s^2 dOmega) = sqrt(4 pi / 105) ~= 0.3459 appears in quoted
bound factors ("0.346").  Both are reported everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import RMS_SOLID_ANGLE, RMS_UNIT_AVERAGE, SPREAD_MAX  # noqa: F401
from .errors import ArgumentOutOfRangeError, SeriesOutOfRangeError

MAX_VALUE = 1.0 / (3.0 * math.sqrt(3.0))

# s = f(theta) g(phi) with f = cos sin^2, which peaks where tan(theta) =
# sqrt(2), and g = sin(2 phi) / 2, which peaks at pi/4 and dips at 3 pi/4;
# atan keeps the last bit that acos(1/sqrt(3)) loses
_EXTREMUM_THETA = math.atan(math.sqrt(2.0))


@dataclass(frozen=True)
class Direction:
    """A point on the sphere: polar angle theta, azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ArgumentOutOfRangeError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ArgumentOutOfRangeError(f"phi {self.phi} outside [0, 2 pi)")

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])


def s_values(theta, phi) -> np.ndarray:
    """Vectorized s over arrays of angles (no range checks)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.cos(theta) * np.sin(theta) ** 2 * np.cos(phi) * np.sin(phi)


def s_factor(direction: Direction) -> float:
    """The direction factor of the linear speed deviation."""
    return float(s_values(direction.theta, direction.phi))


def deviation_for_direction(kappa_magnitude: float, direction: Direction) -> float:
    """Leading relative speed deviation (v - c)/c = -kappa s(theta, phi).

    Valid for kappa_magnitude in [0, 0.1]; the second-order remainder is
    at most 0.0563 kappa^2 there, the largest over 20,000 random directions
    at |kappa| = 0.1, 0.03, 0.01 and 0.003.
    """
    if kappa_magnitude < 0.0 or kappa_magnitude > 0.1:
        raise SeriesOutOfRangeError(
            f"kappa magnitude {kappa_magnitude} outside the series window [0, 0.1]")
    return -kappa_magnitude * s_factor(direction)


@dataclass(frozen=True)
class SphereStats:
    """Solid-angle statistics of s, with both RMS normalizations."""

    mean: float
    rms_unit_average: float
    rms_paper_normalization: float
    min: float
    max: float
    argmax: Direction
    argmin: Direction
    spread: float
    quadrature_error_estimate: float
    n_theta: int
    n_phi: int


def _sphere_moments(n_theta: int, n_phi: int) -> tuple[float, float]:
    """Mean and mean-square of s under dOmega / 4 pi."""
    # Gauss-Legendre nodes in u = cos(theta); s^2 is a degree-6 polynomial
    # in u, so any n_theta >= 4 integrates that factor exactly.
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(u)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    wphi = 2.0 * math.pi / n_phi  # trapezoid over the periodic interval
    vals = s_values(theta[:, None], phi[None, :])
    wgrid = wu[:, None] * wphi
    total = 4.0 * math.pi
    mean = float(np.sum(vals * wgrid) / total)
    mean_sq = float(np.sum(vals**2 * wgrid) / total)
    return mean, mean_sq


def sphere_stats(n_theta: int = 64, n_phi: int = 64) -> SphereStats:
    """Statistics of s over the sphere: quadrature moments, exact extrema.

    Each extremum is reported at the first of its four copies in
    theta-major order.  The error estimate is the change in the
    unit-average RMS when both resolutions are doubled; for this integrand
    it sits at rounding level already for modest n.
    """
    if n_theta < 16 or n_phi < 16:
        raise ArgumentOutOfRangeError(
            f"need n_theta, n_phi >= 16, got {n_theta}, {n_phi}")
    mean, mean_sq = _sphere_moments(n_theta, n_phi)
    _, mean_sq_fine = _sphere_moments(2 * n_theta, 2 * n_phi)
    rms_unit = math.sqrt(mean_sq)
    argmax = Direction(_EXTREMUM_THETA, math.pi / 4)
    argmin = Direction(_EXTREMUM_THETA, 3 * math.pi / 4)
    smax, smin = s_factor(argmax), s_factor(argmin)
    return SphereStats(
        mean=mean,
        rms_unit_average=rms_unit,
        rms_paper_normalization=math.sqrt(4.0 * math.pi * mean_sq),
        min=smin,
        max=smax,
        argmax=argmax,
        argmin=argmin,
        spread=smax - smin,
        quadrature_error_estimate=abs(math.sqrt(mean_sq_fine) - rms_unit),
        n_theta=n_theta,
        n_phi=n_phi,
    )


def anisotropy_map(n_theta: int, n_phi: int):
    """Grid of (theta, phi, s) rows for export, theta-major order."""
    if n_theta < 1 or n_phi < 1:
        raise ArgumentOutOfRangeError(
            f"need n_theta, n_phi >= 1, got {n_theta}, {n_phi}")
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    return tg.ravel(), pg.ravel(), s_values(tg, pg).ravel()
