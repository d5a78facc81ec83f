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
    below 5 kappa^2 there.
    """
    if kappa_magnitude < 0.0 or kappa_magnitude > 0.1:
        raise SeriesOutOfRangeError(
            f"kappa magnitude {kappa_magnitude} outside the series window [0, 0.1]")
    return -kappa_magnitude * s_factor(direction)


def _gradient_and_hessian(theta: float, phi: float):
    # s = f(theta) g(phi) with f = cos sin^2 and g = sin cos = sin(2 phi)/2
    st, ct = math.sin(theta), math.cos(theta)
    f = ct * st * st
    fp = st * (3.0 * ct * ct - 1.0)
    fpp = ct * (3.0 * ct * ct - 1.0 - 6.0 * st * st)
    g = 0.5 * math.sin(2.0 * phi)
    gp = math.cos(2.0 * phi)
    gpp = -2.0 * math.sin(2.0 * phi)
    grad = np.array([fp * g, f * gp])
    hess = np.array([[fpp * g, fp * gp], [fp * gp, f * gpp]])
    return grad, hess


def _refine_extremum(theta: float, phi: float, iterations: int = 50):
    """Newton iteration on grad s = 0 from a grid seed."""
    for _ in range(iterations):
        grad, hess = _gradient_and_hessian(theta, phi)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        theta -= step[0]
        phi -= step[1]
        if float(np.hypot(*step)) < 1e-15:
            break
    theta = min(max(theta, 0.0), math.pi)
    phi = phi % (2.0 * math.pi)
    return theta, phi


def _extrema(grid: int = 256):
    theta = np.linspace(0.0, math.pi, grid)
    phi = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = s_values(theta[:, None], phi[None, :])
    # the pattern repeats with period pi in phi, so grid maxima come in
    # pairs; seed from the first candidate in theta-major order to get the
    # canonical representative
    flat = vals.ravel()
    imax = np.unravel_index(
        np.flatnonzero(flat >= flat.max() - 1e-12)[0], vals.shape)
    imin = np.unravel_index(
        np.flatnonzero(flat <= flat.min() + 1e-12)[0], vals.shape)
    tmax, pmax = _refine_extremum(theta[imax[0]], phi[imax[1]])
    tmin, pmin = _refine_extremum(theta[imin[0]], phi[imin[1]])
    smax = float(s_values(tmax, pmax))
    smin = float(s_values(tmin, pmin))
    return smax, Direction(tmax, pmax), smin, Direction(tmin, pmin)


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
    """Quadrature statistics of s over the sphere.

    The error estimate is the change in the unit-average RMS when both
    resolutions are doubled; for this integrand it sits at rounding level
    already for modest n.
    """
    if n_theta < 16 or n_phi < 16:
        raise ArgumentOutOfRangeError(
            f"need n_theta, n_phi >= 16, got {n_theta}, {n_phi}")
    mean, mean_sq = _sphere_moments(n_theta, n_phi)
    _, mean_sq_fine = _sphere_moments(2 * n_theta, 2 * n_phi)
    rms_unit = math.sqrt(mean_sq)
    smax, argmax, smin, argmin = _extrema()
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
