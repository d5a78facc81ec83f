"""Periodic cubic-lattice states, wave packets, and walk evolution.

States live on an n^3 periodic lattice with a 6-component internal space,
stored as arrays of shape (n, n, n, 6) in either the position or the
momentum basis.  The bases are related by the unitary FFT pair
(numpy norm="ortho"); the momentum index m along each axis carries the
reduced momentum kappa = 2 pi m / n wrapped into (-pi, pi].

One walk step shifts the plus/zero/minus projector components of each
axis by +1/0/-1 sites, applying the axis factors in the order z, then y,
then x.  In momentum space t steps turn each 3-component block of every
mode by t times its angle about its own axis (`kernel.rotation_grids`).
Both routes are implemented and agree to rounding.  Centroids are read in
momentum space, from overlaps of the amplitudes with their one-mode shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Axis, build_projectors
from .errors import (
    BasisMismatchError,
    PacketSpecError,
    UndefinedCentroidError,
)
from .kernel import (
    BRANCHES,
    GroupVelocity,
    ReducedMomentum,
    forward_vector_grids,
    positive_energy_vector,
    rotation_grids,
    velocity_grid,
)

POSITION = "position"
MOMENTUM = "momentum"

_TRIPLES = tuple(build_projectors(a) for a in Axis)


@dataclass(frozen=True)
class Lattice:
    """A periodic cubic lattice with an even number of sites per axis."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"lattice size must be even and >= 4, got {self.n}")

    @property
    def sites(self) -> int:
        return self.n**3

    def mode_values(self) -> np.ndarray:
        """Reduced momentum carried by each FFT index, wrapped to (-pi, pi]."""
        m = np.arange(self.n)
        wrapped = np.where(m <= self.n // 2, m, m - self.n)
        return 2.0 * np.pi * wrapped / self.n

    def mode_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mode values shaped (n,1,1), (1,n,1), (1,1,n); they broadcast."""
        k = self.mode_values()
        return tuple(np.meshgrid(k, k, k, indexing="ij", sparse=True))


@dataclass
class LatticeState:
    """A normalized 6-component field over the lattice, in a named basis."""

    lattice: Lattice
    basis: str
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.basis not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown basis {self.basis!r}")
        expected = (self.lattice.n,) * 3 + (6,)
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitudes.shape} != {expected}")
        nrm = self.norm()
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"state norm {nrm!r} is not 1")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def random_state(lattice: Lattice, rng: np.random.Generator,
                 basis: str = POSITION) -> LatticeState:
    """A normalized state with iid complex Gaussian amplitudes."""
    shape = (lattice.n,) * 3 + (6,)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
    return LatticeState(lattice, basis, amp)


def to_momentum(state: LatticeState) -> LatticeState:
    """Unitary transform position -> momentum basis."""
    if state.basis != POSITION:
        raise BasisMismatchError("to_momentum expects a position-basis state")
    amp = np.fft.fftn(state.amplitudes, axes=(0, 1, 2), norm="ortho")
    return LatticeState(state.lattice, MOMENTUM, amp)


def to_position(state: LatticeState) -> LatticeState:
    """Unitary transform momentum -> position basis."""
    if state.basis != MOMENTUM:
        raise BasisMismatchError("to_position expects a momentum-basis state")
    amp = np.fft.ifftn(state.amplitudes, axes=(0, 1, 2), norm="ortho")
    return LatticeState(state.lattice, POSITION, amp)


def snap_to_grid(k0, n: int) -> ReducedMomentum:
    """Round momentum components to the nearest lattice mode of size n."""
    k = np.asarray(k0, dtype=float)
    modes = np.rint(k * n / (2.0 * np.pi))
    return ReducedMomentum.wrap(*(2.0 * np.pi * modes / n))


@dataclass(frozen=True)
class WavePacketSpec:
    """Parameters of a localized positive-energy wave packet.

    kind "sinc": uniform amplitude over a cube of (width+1)^3 momentum
    modes centred on k0 (width even, snapped to the grid); the position
    profile is a product of Dirichlet kernels.  kind "gaussian": amplitude
    exp(-|k - k0|^2 / (4 sigma^2)) with width = sigma, giving a position
    amplitude of width 1/(2 sigma) sites.

    The internal state is frozen to the positive-energy eigenvector at k0
    (helicity 0: primary branch; 1: mirror branch) unless
    per_mode_internal is set, in which case each mode carries its own
    forward eigenvector.
    """

    kind: str
    k0: tuple[float, float, float]
    x0: tuple[int, int, int]
    width: float
    helicity: int = 0
    per_mode_internal: bool = False

    def __post_init__(self):
        if self.kind not in ("sinc", "gaussian"):
            raise PacketSpecError(f"unknown packet kind {self.kind!r}")
        if self.helicity not in (0, 1):
            raise PacketSpecError(f"helicity must be 0 or 1, got {self.helicity}")
        if len(self.k0) != 3 or len(self.x0) != 3:
            raise PacketSpecError("k0 and x0 must have three components")
        if any(int(c) != c for c in self.x0):
            raise PacketSpecError("x0 components must be integers")
        if self.width <= 0:
            raise PacketSpecError(f"width must be positive, got {self.width}")
        if self.kind == "sinc":
            w = self.width
            if int(w) != w or int(w) % 2 != 0:
                raise PacketSpecError(
                    f"sinc width must be an even integer, got {w}")


def _validate_against_lattice(lattice: Lattice, spec: WavePacketSpec) -> None:
    n = lattice.n
    if spec.kind == "sinc":
        if spec.width + 1 > n / 4:
            raise PacketSpecError(
                f"sinc cube edge {spec.width + 1} exceeds n/4 = {n / 4}")
    else:
        # resolvable on the momentum grid, but still narrow in the zone
        lo, hi = 4.0 * np.pi / n, np.pi / 8.0
        if not lo <= spec.width <= hi:
            raise PacketSpecError(
                f"gaussian sigma {spec.width} outside [{lo:.6g}, {hi:.6g}] for n={n}")


def make_wavepacket(lattice: Lattice, spec: WavePacketSpec) -> LatticeState:
    """Construct the packet in the momentum basis, exactly normalized."""
    _validate_against_lattice(lattice, spec)
    n = lattice.n
    kvals = lattice.mode_values()

    if spec.kind == "sinc":
        k0 = snap_to_grid(spec.k0, n)
        half = int(spec.width) // 2
        m0 = np.rint(k0.as_array() * n / (2.0 * np.pi)).astype(int)
        idx = [(m0[a] + np.arange(-half, half + 1)) % n for a in range(3)]
        weights = np.zeros((n, n, n))
        weights[np.ix_(*idx)] = 1.0
    else:
        k0 = ReducedMomentum.wrap(*spec.k0)
        grids = lattice.mode_grids()
        d2 = sum(_wrap_delta_values(g - c) ** 2
                 for g, c in zip(grids, k0.as_array()))
        weights = np.exp(-d2 / (4.0 * spec.width**2))

    kxg, kyg, kzg = lattice.mode_grids()
    x0 = np.asarray(spec.x0, dtype=float)
    plane = np.exp(-1j * (kxg * x0[0] + kyg * x0[1] + kzg * x0[2]))

    if spec.per_mode_internal:
        # modes with no forward eigenvector get a zero vector
        vectors, _ = forward_vector_grids(kxg, kyg, kzg, spec.helicity)
        amp = (weights * plane)[..., None] * vectors
    else:
        u = positive_energy_vector(k0, spec.helicity)
        amp = (weights * plane)[..., None] * u

    nrm = np.sqrt(np.sum(np.abs(amp) ** 2))
    if nrm == 0.0:
        raise PacketSpecError("packet has no support on the momentum grid")
    return LatticeState(lattice, MOMENTUM, amp / nrm)


def _wrap_delta_values(d: np.ndarray) -> np.ndarray:
    """Wrap momentum differences into [-pi, pi) (nearest periodic image)."""
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def _rotation_parts(lattice: Lattice, amp: np.ndarray) -> list:
    """Per block of momentum amplitudes amp: (offset, phi, degenerate,
    axial, perpendicular, turned), split about the rotation axis n: axial =
    n (n.a) never moves, perpendicular = a - axial, turned = n x a."""
    rotations = rotation_grids(*lattice.mode_grids())
    parts = []
    for name, offset in BRANCHES:
        axis = rotations[name]["axis"]
        block = amp[..., offset:offset + 3]
        axial = np.sum(axis * block, axis=-1, keepdims=True) * axis
        perpendicular = block - axial
        parts.append((offset, rotations[name]["phase"],
                      rotations[name]["degenerate"], axial, perpendicular,
                      np.cross(axis, perpendicular)))
    return parts


def _rotated_block(part, cos_t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """One block turned by the per-mode angle with this cosine and sine."""
    _, _, _, axial, perpendicular, turned = part
    out = perpendicular * cos_t[..., None]
    out += turned * sin_t[..., None]
    out += axial
    return out


def evolve_spectral(state: LatticeState, steps: int) -> LatticeState:
    """Advance `steps` walk steps by per-mode rotations in momentum space.

    Each block of each mode turns by `steps` times its angle in one
    evaluation.  Accepts either basis and returns the same basis.
    """
    if steps < 0 or int(steps) != steps:
        raise ValueError(f"steps must be a nonnegative integer, got {steps}")
    came_from_position = state.basis == POSITION
    work = to_momentum(state) if came_from_position else state
    amp = np.empty_like(work.amplitudes)
    for part in _rotation_parts(state.lattice, work.amplitudes):
        offset, phi = part[:2]
        amp[..., offset:offset + 3] = _rotated_block(
            part, np.cos(steps * phi), np.sin(steps * phi))
    out = LatticeState(state.lattice, MOMENTUM, amp)
    return to_position(out) if came_from_position else out


def _apply_axis_factor(amp: np.ndarray, axis: int) -> np.ndarray:
    """One axis factor: shift the +/0/- projector components by +1/0/-1."""
    t = _TRIPLES[axis]
    plus = amp @ t.plus.T
    zero = amp @ t.zero.T
    minus = amp @ t.minus.T
    return (np.roll(plus, 1, axis=axis) + zero + np.roll(minus, -1, axis=axis))


def evolve_direct(state: LatticeState, steps: int) -> LatticeState:
    """Advance by explicit projected shifts in position space.

    Applies the axis factors in order z, y, x each step.  Slower than
    evolve_spectral but touches no Fourier transform; serves as the
    independent evolution route.
    """
    if steps < 0 or int(steps) != steps:
        raise ValueError(f"steps must be a nonnegative integer, got {steps}")
    came_from_momentum = state.basis == MOMENTUM
    work = to_position(state) if came_from_momentum else state
    amp = work.amplitudes.copy()
    for _ in range(steps):
        for axis in (2, 1, 0):
            amp = _apply_axis_factor(amp, axis)
    out = LatticeState(state.lattice, POSITION, amp)
    return to_momentum(out) if came_from_momentum else out


def _shifted_overlaps(amp: np.ndarray) -> np.ndarray:
    """Per axis, sum over modes m of conj(amp[m]) amp[m - 1]: for momentum
    amplitudes, the site-probability phasor sum_x |psi(x)|^2 exp(2 pi i x/n).
    """
    return np.array([np.vdot(amp, np.roll(amp, 1, axis)) for axis in range(3)])


def _circular_stats(overlaps: np.ndarray, weight: float, n: int):
    """Per-axis circular mean, spread, and resultant; weight is the total
    probability the overlaps were summed over."""
    z = overlaps / weight
    resultants = np.minimum(np.abs(z), 1.0)
    centroids = (np.angle(z) * n / (2.0 * np.pi)) % n
    spreads = (n / (2.0 * np.pi)) * np.sqrt(np.maximum(
        -2.0 * np.log(np.maximum(resultants, 1e-300)), 0.0))
    return centroids, spreads, resultants


def centroid(state: LatticeState) -> np.ndarray:
    """Circular-mean position of the site probability, in [0, n) per axis."""
    if state.basis != POSITION:
        raise BasisMismatchError("centroid expects a position-basis state")
    amp = to_momentum(state).amplitudes
    centroids, _, resultants = _circular_stats(
        _shifted_overlaps(amp), np.vdot(amp, amp).real, state.lattice.n)
    if np.any(resultants < 1e-6):
        raise UndefinedCentroidError(
            f"circular resultant {resultants.min():.3g} too small along an axis")
    return centroids


@dataclass(frozen=True)
class CentroidTrajectory:
    """Sampled packet trajectory; positions are unwrapped (continuous)."""

    steps: np.ndarray
    positions: np.ndarray  # (samples, 3)
    spreads: np.ndarray    # (samples, 3)
    norms: np.ndarray      # (samples,)


@dataclass(frozen=True)
class MeasuredVelocity:
    velocity: GroupVelocity
    fit_residual: float
    trajectory: CentroidTrajectory


def measure_group_velocity(lattice: Lattice, spec: WavePacketSpec,
                           steps: int, sample_every: int = 1) -> MeasuredVelocity:
    """Propagate a packet and fit its centroid drift per step.

    The packet stays in momentum space: every `sample_every` steps each
    block of each mode is evaluated as a rotation by the elapsed multiple
    of its angle, and the centroid is read from shifted-mode overlaps, so
    no Fourier transform and no 6x6 matrix is formed.  The centroid is
    unwrapped against the previous sample (valid because the per-sample
    displacement is below n/2 sites), and a least-squares line per axis
    gives the velocity.  fit_residual is the RMS of the fit residuals over
    all samples and axes, in sites.
    """
    if sample_every < 1 or int(sample_every) != sample_every:
        raise ValueError(f"sample_every must be a positive integer, got {sample_every}")
    if sample_every >= lattice.n / 2:
        raise ValueError(
            f"sample_every {sample_every} >= n/2 breaks trajectory unwrapping")
    if steps < sample_every:
        raise ValueError("need at least one sampling interval")

    parts = _rotation_parts(lattice, make_wavepacket(lattice, spec).amplitudes)
    # per block, exp(i t phi) at the current sample t and its step per sample
    phasors = [np.ones_like(part[1], dtype=complex) for part in parts]
    advances = [np.exp(1j * sample_every * part[1]) for part in parts]

    sample_steps = list(range(0, steps + 1, sample_every))
    samples = []
    for _ in sample_steps:
        overlaps = np.zeros(3, dtype=complex)
        weight = 0.0
        for part, phasor, advance in zip(parts, phasors, advances):
            block = _rotated_block(part, phasor.real, phasor.imag)
            overlaps += _shifted_overlaps(block)
            weight += np.vdot(block, block).real
            phasor *= advance
        c, s, r = _circular_stats(overlaps, weight, lattice.n)
        if np.any(r < 1e-6):
            raise UndefinedCentroidError(
                "packet spread out too far for a defined centroid")
        samples.append((c, s, math.sqrt(weight)))
    positions, spreads, norms = (np.array(v) for v in zip(*samples))

    n = lattice.n
    deltas = (np.diff(positions, axis=0) + n / 2) % n - n / 2
    unwrapped = positions[0] + np.vstack([np.zeros(3), np.cumsum(deltas, axis=0)])

    t = np.asarray(sample_steps, dtype=float)
    slopes, intercepts = np.polyfit(t, unwrapped, 1)
    residuals = unwrapped - (t[:, None] * slopes + intercepts)
    fit_residual = float(np.sqrt(np.mean(residuals ** 2)))

    trajectory = CentroidTrajectory(
        steps=np.asarray(sample_steps), positions=unwrapped,
        spreads=spreads, norms=norms)
    return MeasuredVelocity(GroupVelocity(*slopes), fit_residual, trajectory)


def project_to_branch(state: LatticeState, helicity: int = 0) -> LatticeState:
    """Project onto the forward eigenspace of one branch and renormalize.

    The result is an exact mixture of positive-phase eigenmodes, so its
    centroid drifts exactly linearly at the mode-weighted group velocity.
    Modes with a degenerate spectrum are dropped (they carry no defined
    forward eigenvector).
    """
    if helicity not in (0, 1):
        raise PacketSpecError(f"helicity must be 0 or 1, got {helicity}")
    came_from_position = state.basis == POSITION
    work = to_momentum(state) if came_from_position else state
    lattice = state.lattice
    offset, _, degenerate, _, perpendicular, turned = _rotation_parts(
        lattice, work.amplitudes)[helicity]
    # forward projector (a - n (n.a) + i n x a) / 2
    block = 0.5 * (perpendicular + 1j * turned)
    block[degenerate] = 0.0
    amp = np.zeros_like(work.amplitudes)
    amp[..., offset:offset + 3] = block
    nrm = np.sqrt(np.sum(np.abs(amp) ** 2))
    if nrm == 0.0:
        raise PacketSpecError("state has no overlap with the forward eigenspace")
    out = LatticeState(lattice, MOMENTUM, amp / nrm)
    return to_position(out) if came_from_position else out


def predicted_state_velocity(state: LatticeState) -> np.ndarray:
    """Branch-resolved expectation of the centroid velocity of any state.

    Decomposes the state per mode onto the six exact eigenmodes and sums
    eigenmode weights times eigenmode velocities: forward modes move at
    the branch group velocity, backward modes at its negative, stationary
    modes not at all.  Degenerate modes are excluded from the sum.
    """
    work = to_momentum(state) if state.basis == POSITION else state
    kx, ky, kz = state.lattice.mode_grids()
    v_primary = np.stack(velocity_grid(kx, ky, kz)[:3], axis=-1)
    # the mirror phase at kappa equals the primary phase at -kappa
    v_mirror = -np.stack(velocity_grid(-kx, -ky, -kz)[:3], axis=-1)

    total = np.zeros(3)
    parts = _rotation_parts(state.lattice, work.amplitudes)
    for part, v_branch in zip(parts, (v_primary, v_mirror)):
        _, _, degenerate, _, perpendicular, turned = part
        usable = ~(degenerate | np.isnan(v_branch).any(axis=-1))
        # forward minus backward weight Re(i a^dagger (n x a)); n x a is
        # orthogonal to the axial part
        w = -np.imag(np.sum(perpendicular.conj() * turned, axis=-1))
        total += np.einsum("xyz,xyzc->c", np.where(usable, w, 0.0),
                           np.where(usable[..., None], v_branch, 0.0))
    return total


def predicted_packet_velocity(lattice: Lattice, spec: WavePacketSpec) -> np.ndarray:
    """predicted_state_velocity of the freshly constructed packet.

    This is what the measured centroid drift converges to; it differs
    from the single-mode group velocity at k0 by the momentum spread of
    the packet.
    """
    return predicted_state_velocity(make_wavepacket(lattice, spec))
