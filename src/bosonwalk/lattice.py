"""Periodic cubic-lattice states, wave packets, and walk evolution.

States live on an n^3 periodic lattice with a 6-component internal space,
stored as arrays of shape (n, n, n, 6) in either the position or the
momentum basis.  The bases are related by the unitary FFT pair
(numpy norm="ortho"); the momentum index m along each axis carries the
reduced momentum kappa = 2 pi m / n wrapped into (-pi, pi].

One walk step shifts the plus/zero/minus projector components of each
axis by +1/0/-1 sites, applying the axis factors in the order z, then y,
then x.  In momentum space t steps turn each occupied 3-component block
of every mode (a packet occupies one) by t times its angle about its own
axis (`kernel.rotation_grids`); both routes agree to rounding.  Centroids
are read in momentum space, from overlaps with the one-mode shifts.

Evolution is diagonal in momentum, so a packet never leaves its modes: it
is built, propagated and predicted on its support window, per axis the
cyclic index run over its occupied modes and one empty halo mode, whose
zero keeps the shifted overlaps exact.  Work scales with that window; a
Gaussian packet is cut to zero below AMPLITUDE_CUT of its peak along each
axis, so its window is a box about 24 sigma wide: 49 or 50 modes per axis
at the narrowest sigma = 4 pi/n, whatever n is.  A packet keeps only its
one occupied 3-component block, split in place; its traced peaks per
window mode are beside budget._BYTES_PER_WINDOW_MODE.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import budget
from .algebra import Axis, build_projectors
from .errors import (
    BasisMismatchError,
    InvalidArgumentError,
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

# packet amplitude factors below this fraction of their peak are dropped
AMPLITUDE_CUT = 1e-16


@dataclass(frozen=True)
class Lattice:
    """A periodic cubic lattice with an even number of sites per axis."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise InvalidArgumentError(
                f"lattice size must be even and >= 4, got {self.n}")

    @property
    def sites(self) -> int:
        return self.n**3

    def mode_values(self) -> np.ndarray:
        """Reduced momentum carried by each FFT index, wrapped to (-pi, pi]."""
        m = np.arange(self.n)
        wrapped = np.where(m <= self.n // 2, m, m - self.n)
        return 2.0 * np.pi * wrapped / self.n

    def mode_grids(self, window=(slice(None),) * 3) -> tuple[np.ndarray, ...]:
        """Broadcastable mode values at the per-axis indices `window`."""
        k = self.mode_values()
        return np.ix_(*(k[i] for i in window))


@dataclass
class LatticeState:
    """A normalized 6-component field over the lattice, in a named basis."""

    lattice: Lattice
    basis: str
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.basis not in (POSITION, MOMENTUM):
            raise InvalidArgumentError(f"unknown basis {self.basis!r}")
        expected = (self.lattice.n,) * 3 + (6,)
        if self.amplitudes.shape != expected:
            raise InvalidArgumentError(
                f"amplitude shape {self.amplitudes.shape} != {expected}")
        nrm = self.norm()
        if abs(nrm - 1.0) > 1e-8:
            raise InvalidArgumentError(f"state norm {nrm!r} is not 1")

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
    with np.errstate(over="ignore"):
        snapped = 2.0 * np.pi * np.rint(k * n / (2.0 * np.pi)) / n
    # where k n overflows, the exact image of k in (-2 pi, 2 pi) is snapped
    huge = np.isinf(snapped) & np.isfinite(k)
    snapped[huge] = 2.0 * np.pi * np.rint(np.fmod(k[huge], 2.0 * np.pi) * n
                                          / (2.0 * np.pi)) / n
    return ReducedMomentum.wrap(*snapped)


@dataclass(frozen=True)
class WavePacketSpec:
    """Parameters of a localized positive-energy wave packet.

    kind "sinc": uniform amplitude over a cube of (width+1)^3 momentum
    modes centred on k0 (width even, snapped to the grid); the position
    profile is a product of Dirichlet kernels, and its support window has
    width+2 modes per axis.  kind "gaussian": amplitude
    exp(-|k - k0|^2 / (4 sigma^2)) with width = sigma, giving a position
    amplitude of width 1/(2 sigma) sites.  Its per-axis factors are set to
    zero below AMPLITUDE_CUT = 1e-16 of their peak, which keeps a box of
    modes within about 12 sigma of k0 per axis and drops less than 1e-31 of
    the probability (3.8e-33 for sigma = pi/16 at n = 64).

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
        # tuples keep the spec hashable, so a packet split can be shared
        object.__setattr__(self, "k0", tuple(self.k0))
        object.__setattr__(self, "x0", tuple(self.x0))
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


def _cyclic_window(occupied: np.ndarray) -> np.ndarray:
    """Axis indices of the shortest cyclic run over the true entries of
    `occupied` and one empty halo index; all, in order, if at most one is false."""
    n, idx = len(occupied), np.flatnonzero(occupied)
    gaps = np.diff(idx, append=idx[0] + n)
    j = int(np.argmax(gaps))
    if gaps[j] <= 2:
        return np.arange(n)
    return (idx[(j + 1) % len(idx)] + np.arange(n - gaps[j] + 2)) % n


def _packet_support(lattice: Lattice, spec: WavePacketSpec):
    """(k0, window, factors): the packet's centre momentum, its per-axis
    support window and, per axis, its amplitude factor over that window,
    zero below AMPLITUDE_CUT of the factor's peak."""
    n = lattice.n
    budget._refuse_over_budget(n * budget._BYTES_PER_AXIS_MODE,
                               f"a lattice of {n} modes per axis")
    if spec.kind == "sinc":
        if spec.width + 1 > n / 4:
            raise PacketSpecError(
                f"sinc cube edge {spec.width + 1} exceeds n/4 = {n / 4}")
        k0 = snap_to_grid(spec.k0, n)
        m0 = np.rint(k0.as_array() * n / (2.0 * np.pi)).astype(int)
        # per axis, the indices within width/2 of m0, cyclically
        factors = [(abs((np.arange(n) - m + n // 2) % n - n // 2)
                    <= spec.width / 2).astype(float) for m in m0]
    else:
        # resolvable on the momentum grid, but still narrow in the zone
        lo, hi = 4.0 * np.pi / n, np.pi / 8.0
        if lo > hi:
            raise PacketSpecError(f"gaussian packets need n >= 32, got n={n}")
        if not lo <= spec.width <= hi:
            raise PacketSpecError(
                f"gaussian sigma {spec.width} outside [{lo:.6g}, {hi:.6g}] for n={n}")
        k0 = ReducedMomentum.wrap(*spec.k0)
        # momentum offsets wrapped to the nearest periodic image
        factors = [np.exp(-((lattice.mode_values() - c + np.pi) % (2.0 * np.pi)
                            - np.pi) ** 2 / (4.0 * spec.width**2))
                   for c in k0.as_array()]
    for f in factors:
        f[f < AMPLITUDE_CUT * f.max()] = 0.0
    window = tuple(_cyclic_window(f > 0) for f in factors)
    return k0, window, [f[w] for f, w in zip(factors, window)]


def _packet_window(lattice: Lattice, spec: WavePacketSpec):
    """(window, block): the packet's per-axis support window and its
    normalized momentum amplitudes there, in its one block: (w0, w1, w2, 3),
    formed from the forward eigenvector's block alone."""
    k0, window, factors = _packet_support(lattice, spec)
    shape = tuple(map(len, window))
    budget._refuse_over_budget(
        math.prod(shape) * budget._BYTES_PER_WINDOW_MODE,
        "a packet window of {} x {} x {} modes".format(*shape))
    weights = functools.reduce(np.multiply, np.ix_(*factors))
    kxg, kyg, kzg = grids = lattice.mode_grids(window)

    x0 = np.asarray(spec.x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        plane = np.exp(-1j * (kxg * x0[0] + kyg * x0[1] + kzg * x0[2]))
    if not np.isfinite(plane).all():
        raise PacketSpecError(
            f"x0 {x0.tolist()} is too large: its plane-wave phase overflows")
    offset = BRANCHES[spec.helicity][1]
    # with per_mode_internal, modes with no forward eigenvector get zero
    u = (forward_vector_grids(*grids, spec.helicity)[0] if spec.per_mode_internal
         else positive_energy_vector(k0, spec.helicity)[offset:offset + 3])
    block = (weights * plane)[..., None] * u
    # with the other block's zeros in place: a block-only sum rounds differently
    pad = [(0, 0)] * 3 + [(offset, 3 - offset)]
    nrm = np.sqrt(np.sum(np.pad(np.abs(block) ** 2, pad)))
    if nrm == 0.0:
        raise PacketSpecError("packet has no support on the momentum grid")
    block /= nrm
    return window, block


def make_wavepacket(lattice: Lattice, spec: WavePacketSpec) -> LatticeState:
    """Construct the packet in the momentum basis, exactly normalized: its
    support-window block scattered into the full lattice."""
    window, block = _packet_window(lattice, spec)
    offset = BRANCHES[spec.helicity][1]
    full = np.zeros((lattice.n,) * 3 + (6,), dtype=complex)
    full[(*np.ix_(*window), slice(offset, offset + 3))] = block
    return LatticeState(lattice, MOMENTUM, full)


def _occupied_blocks(amp: np.ndarray) -> dict:
    """The blocks of (..., 6) amplitudes that carry any, as views by branch."""
    return {b: v for b in BRANCHES if (v := amp[..., b[1]:b[1] + 3]).any()}


def _rotation_parts(grids, blocks: dict) -> list:
    """Per block a of momentum amplitudes over `grids`, keyed by branch in
    `blocks`: (offset, phi, degenerate, axial, perpendicular, turned) about
    the rotation axis n: axial = n (n.a) never moves, perpendicular = a -
    axial (written over a, so pass a copy), turned = n x a."""
    rotations = rotation_grids(*grids, [name for name, _ in blocks])
    parts = []
    for (name, offset), block in blocks.items():
        axis = rotations[name]["axis"]
        axial = np.sum(axis * block, axis=-1, keepdims=True) * axis
        block -= axial
        turned = np.empty_like(block)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # np.cross's order
            np.multiply(axis[..., j], block[..., k], out=turned[..., i])
            turned[..., i] -= axis[..., k] * block[..., j]
        parts.append((offset, rotations[name]["phase"],
                      rotations[name]["degenerate"], axial, block, turned))
    return parts


@functools.lru_cache(maxsize=1)
def _packet_parts(lattice: Lattice, spec: WavePacketSpec) -> tuple:
    """Read-only mode grids of a packet's support window and _rotation_parts
    of its amplitudes there (one part: a packet occupies one block)."""
    window, block = _packet_window(lattice, spec)
    grids = lattice.mode_grids(window)
    parts = _rotation_parts(grids, {BRANCHES[spec.helicity]: block})
    for array in grids + tuple(a for part in parts for a in part[1:]):
        array.flags.writeable = False
    return grids, tuple(parts)


def _rotated_block(part, cos_t: np.ndarray, sin_t: np.ndarray, out) -> None:
    """One block turned by the per-mode angle with this cosine and sine,
    written into `out`; the only temporary is one slice along axis 0."""
    _, _, _, axial, perpendicular, turned = part
    np.multiply(perpendicular, cos_t[..., None], out=out)
    for o, t, s in zip(out, turned, sin_t):
        o += t * s[..., None]
    out += axial


def evolve_spectral(state: LatticeState, steps: int) -> LatticeState:
    """Advance `steps` walk steps by per-mode rotations in momentum space.

    Each block of each mode turns by `steps` times its angle in one
    evaluation.  Accepts either basis and returns the same basis.
    """
    if steps < 0 or int(steps) != steps:
        raise InvalidArgumentError(f"steps must be a nonnegative integer, got {steps}")
    came_from_position = state.basis == POSITION
    work = to_momentum(state) if came_from_position else state
    amp = work.amplitudes.copy()
    # each block's perpendicular part is its place in amp, where it turns
    for part in _rotation_parts(state.lattice.mode_grids(), _occupied_blocks(amp)):
        phi = part[1]
        _rotated_block(part, np.cos(steps * phi), np.sin(steps * phi), part[4])
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
        raise InvalidArgumentError(f"steps must be a nonnegative integer, got {steps}")
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
    Each axis is read as runs of one full turn along it, with stride s
    elements per index, so the pairs are slices and nothing is copied.
    """
    strides = (math.prod(amp.shape[a + 1:]) for a in range(3))
    runs = [(amp.reshape(-1, amp.shape[a] * s), s) for a, s in enumerate(strides)]
    return np.array([np.vecdot(r[:, s:], r[:, :-s]).sum()
                     + np.vecdot(r[:, :s], r[:, -s:]).sum() for r, s in runs])


def _circular_stats(overlaps: np.ndarray, weight: float, n: int):
    """Per-axis circular mean, spread, and resultant; weight is the total
    probability the overlaps were summed over."""
    z = overlaps / weight
    resultants = np.minimum(np.abs(z), 1.0)
    centroids = (np.angle(z) * n / (2.0 * np.pi)) % n
    centroids[centroids == n] = 0.0  # a rounding error below the real axis
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

    The packet stays in momentum space: every `sample_every` steps its
    block at each mode is evaluated as a rotation by the elapsed multiple
    of its angle, and the centroid is read from shifted-mode overlaps, so
    no Fourier transform and no 6x6 matrix is formed.  The centroid is
    unwrapped against the previous sample (valid because the per-sample
    displacement is below n/2 sites), and a least-squares line per axis
    gives the velocity.  fit_residual is the RMS of the fit residuals over
    all samples and axes, in sites.
    """
    if sample_every < 1 or int(sample_every) != sample_every:
        raise InvalidArgumentError(
            f"sample_every must be a positive integer, got {sample_every}")
    if 2 * sample_every >= lattice.n:  # exact for any integer n
        raise InvalidArgumentError(
            f"sample_every {sample_every} >= n/2 breaks trajectory unwrapping")
    if steps < sample_every:
        raise InvalidArgumentError("need at least one sampling interval")
    samples = steps // sample_every + 1
    budget._refuse_over_budget(samples * budget._BYTES_PER_SAMPLE,
                               f"{samples} trajectory samples")

    _, (part,) = _packet_parts(lattice, spec)
    # exp(i t phi) at the current sample t and its step per sample
    phasor = np.ones_like(part[1], dtype=complex)
    advance = np.exp(1j * sample_every * part[1])
    block = np.empty_like(part[4])  # every sample is evaluated into this one

    sample_steps = list(range(0, steps + 1, sample_every))
    samples = []
    for _ in sample_steps:
        _rotated_block(part, phasor.real, phasor.imag, block)
        phasor *= advance
        weight = np.vdot(block, block).real
        c, s, r = _circular_stats(_shifted_overlaps(block), weight, lattice.n)
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
    offset = BRANCHES[helicity][1]
    amp = np.zeros_like(work.amplitudes)
    amp[..., offset:offset + 3] = work.amplitudes[..., offset:offset + 3]
    for offset, _, degenerate, _, perpendicular, turned in _rotation_parts(
            state.lattice.mode_grids(), _occupied_blocks(amp)):
        # forward projector (a - n (n.a) + i n x a) / 2
        amp[..., offset:offset + 3] = np.where(
            degenerate[..., None], 0.0, 0.5 * (perpendicular + 1j * turned))
    nrm = np.sqrt(np.sum(np.abs(amp) ** 2))
    if nrm == 0.0:
        raise PacketSpecError("state has no overlap with the forward eigenspace")
    out = LatticeState(state.lattice, MOMENTUM, amp / nrm)
    return to_position(out) if came_from_position else out


def predicted_state_velocity(state: LatticeState) -> np.ndarray:
    """Branch-resolved expectation of the centroid velocity of any state.

    Decomposes the state per mode onto the six exact eigenmodes and sums
    eigenmode weights times eigenmode velocities: forward modes move at
    the branch group velocity, backward modes at its negative, stationary
    modes not at all.  Degenerate modes are excluded from the sum, which
    runs over the state's support window, as for a packet.
    """
    work = to_momentum(state) if state.basis == POSITION else state
    occupied = np.any(work.amplitudes != 0, axis=-1)
    window = tuple(_cyclic_window(occupied.any(axis=tuple({0, 1, 2} - {a})))
                   for a in range(3))
    grids = state.lattice.mode_grids(window)
    return _predicted_velocity(grids, _rotation_parts(  # the fancy index copies
        grids, _occupied_blocks(work.amplitudes[np.ix_(*window)])))


def _predicted_velocity(grids, parts) -> np.ndarray:
    total = np.zeros(3)
    for offset, _, degenerate, _, perpendicular, turned in parts:
        # the mirror phase at kappa equals the primary phase at -kappa
        sign = 1.0 if offset == dict(BRANCHES)["primary"] else -1.0
        v_branch = np.stack(velocity_grid(*(sign * k for k in grids))[:3], -1)
        v_branch *= sign
        unusable = degenerate | np.isnan(v_branch).any(axis=-1)
        # forward minus backward weight Re(i a^dagger (n x a)), one axis-0
        # slice at a time; n x a is orthogonal to the axial part
        w = np.empty(unusable.shape)
        for w_i, p, t in zip(w, perpendicular, turned):
            w_i[...] = -np.imag(np.sum(p.conj() * t, axis=-1))
        w[unusable] = 0.0
        v_branch[unusable] = 0.0
        total += np.einsum("xyz,xyzc->c", w, v_branch)
    return total


def predicted_packet_velocity(lattice: Lattice, spec: WavePacketSpec) -> np.ndarray:
    """predicted_state_velocity of the freshly constructed packet.

    This is what the measured centroid drift converges to; it differs
    from the single-mode group velocity at k0 by the momentum spread of
    the packet.
    """
    return _predicted_velocity(*_packet_parts(lattice, spec))
