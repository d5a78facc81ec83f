"""Single-mode form of the walk step and its closed-form dispersion.

In momentum space the step factorizes per mode: a reduced momentum
kappa = (kx, ky, kz) in (-pi, pi]^3 evolves by the 6x6 unitary

    U(kappa) = exp(-i kx G_x) exp(-i ky G_y) exp(-i kz G_z)

with the block generators of `algebra`.  U is block diagonal: each
3-component half is a real rotation, whose unit quaternion is the product
q_x q_y q_z of half-angle factors, and has one forward mode exp(-i phi),
one stationary mode, and one backward mode exp(+i phi).

The two blocks rotate by slightly different angles,

    phase(kappa)        = arccos((cx cy + cx cz + cy cz + sx sy sz - 1)/2)
    mirror_phase(kappa) = phase(-kappa)      (same with  - sx sy sz),

so away from the coordinate planes the forward eigenvalues of the two
helicity branches split by O(|kappa|^3).  They coincide exactly whenever
some momentum component is 0 or pi.  All closed-form velocity and
deviation formulas below describe the phase(kappa) branch; the mirror
branch obeys the same formulas with kappa -> -kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Axis, build_gamma
from .errors import (
    ArgumentOutOfRangeError,
    DegenerateSpectrumError,
    InvalidArgumentError,
    SeriesOutOfRangeError,
    ZeroMomentumError,
)

DEGENERACY_MARGIN = 1e-9

# (branch, offset of its 3-component block in the internal space)
BRANCHES = (("primary", 3), ("mirror", 0))

_GAMMA = tuple(build_gamma(a) for a in Axis)
_I6 = np.eye(6, dtype=complex)


@dataclass(frozen=True)
class ReducedMomentum:
    """A momentum point in the reduced zone (-pi, pi]^3."""

    kx: float
    ky: float
    kz: float

    @classmethod
    def wrap(cls, kx: float, ky: float, kz: float) -> "ReducedMomentum":
        """Wrap arbitrary momentum components into (-pi, pi]."""
        return cls(*(_wrap_component(v) for v in (kx, ky, kz)))

    def as_array(self) -> np.ndarray:
        return np.array([self.kx, self.ky, self.kz], dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.kx**2 + self.ky**2 + self.kz**2)


def _wrap_component(v: float) -> float:
    w = math.remainder(v, 2.0 * math.pi)
    return math.pi if w == -math.pi else w


def _components(kappa) -> np.ndarray:
    if isinstance(kappa, ReducedMomentum):
        return kappa.as_array()
    arr = np.asarray(kappa, dtype=float)
    if arr.shape != (3,):
        raise InvalidArgumentError(
            f"expected 3 momentum components, got shape {arr.shape}")
    return arr


def kernel_closed_form(kappa) -> np.ndarray:
    """The 6x6 step unitary assembled from its closed-form entries."""
    return kernel_grid(*_components(kappa))


def _axis_factor(axis: int, theta: float) -> np.ndarray:
    # exp(-i theta G) = I - i G sin(theta) + G^2 (cos(theta) - 1), since G^3 = G.
    g = _GAMMA[axis]
    return _I6 - 1j * math.sin(theta) * g + (math.cos(theta) - 1.0) * (g @ g)


def kernel_exponential(kappa) -> np.ndarray:
    """The step unitary as a product of three single-axis exponentials."""
    kx, ky, kz = _components(kappa)
    return _axis_factor(0, kx) @ _axis_factor(1, ky) @ _axis_factor(2, kz)


def _versine_args(kx, ky, kz):
    """1 - cos of the (primary, mirror) branch angles; broadcasts.

    The direct cosine sum loses the low bits of small angles to
    cancellation (absolute error ~eps/|kappa| after the arccos), so the
    argument is assembled from half-angle versines 1 - cos k = 2 sin^2(k/2),
    which keeps full relative accuracy down to the zone centre.
    """
    # np.square: a float64 scalar's ** 2 calls pow, which can round differently
    wa, wb, wc = (2.0 * np.square(np.sin(0.5 * np.asarray(k, float)))
                  for k in (kx, ky, kz))
    odd = np.sin(kx) * np.sin(ky) * np.sin(kz)
    even = wa + wb + wc - 0.5 * (wa * wb + wa * wc + wb * wc)
    return even - 0.5 * odd, even + 0.5 * odd


def _arccos_one_minus(y):
    """arccos(1 - y) for y in [0, 2], accurate at both endpoints."""
    y = np.clip(y, 0.0, 2.0)
    return np.where(
        y <= 1.0,
        2.0 * np.arcsin(np.sqrt(0.5 * y)),
        np.pi - 2.0 * np.arcsin(np.sqrt(0.5 * (2.0 - y))))


def _scalar_phase(kappa, grid) -> float:
    """One branch angle at one point, by its grid form.

    With at most one nonzero component both angles are exactly |kappa|,
    so the axis case skips the trigonometric round trip.
    """
    kx, ky, kz = _components(kappa)
    if sum(1 for c in (kx, ky, kz) if c == 0.0) >= 2:
        return float(abs(kx + ky + kz))
    return float(grid(kx, ky, kz))


def phase(kappa) -> float:
    """Per-step phase of the primary forward branch, in [0, pi].

    Plays the role of energy x time step.  Exact eigenphase of U(kappa):
    exp(-i phase) is an eigenvalue carried by the lower block.  Exact on
    the coordinate axes.
    """
    return _scalar_phase(kappa, phase_grid)


def mirror_phase(kappa) -> float:
    """Per-step phase of the second forward branch; equals phase(-kappa)."""
    return _scalar_phase(kappa, mirror_phase_grid)


def _nondegenerate_phases(kappa, rotations) -> tuple[float, float]:
    """(phase, mirror_phase), refused within the margin of 0 or pi.

    After both arccos angles, the block angle of each branch in `rotations`
    (from `rotation_grids` at kappa; it sets the grid forms' `degenerate`
    flag) is refused too: near pi the arccos form errs by ~2e-8.
    """
    phis = phase(kappa), mirror_phase(kappa)
    labels = ("phase", "mirror phase")
    checks = list(zip(labels, phis)) + [
        (f"{label} (block angle)", float(rotations[name]["phase"]))
        for (name, _), label in zip(BRANCHES, labels) if name in rotations]
    for label, angle in checks:
        if min(angle, math.pi - angle) < DEGENERACY_MARGIN:
            raise DegenerateSpectrumError(
                f"{label} = {angle!r} is within {DEGENERACY_MARGIN} of 0 "
                "or pi; forward/backward modes merge there")
    return phis


@dataclass(frozen=True)
class BranchModes:
    """Rank-1 spectral pieces of one 3-component block of U(kappa).

    forward, axis, backward are 3x3 projectors on the eigenvalues
    exp(-i phase), 1, exp(+i phase) of this block's rotation; offset
    locates the block inside the 6-component internal space.
    """

    name: str
    phase: float
    offset: int  # 0: upper block (mirror), 3: lower block (primary)
    forward: np.ndarray
    axis: np.ndarray
    backward: np.ndarray


def _embed(block_matrix: np.ndarray, offset: int) -> np.ndarray:
    out = np.zeros((6, 6), dtype=complex)
    out[offset:offset + 3, offset:offset + 3] = block_matrix
    return out


def branch_decomposition(kappa) -> tuple[BranchModes, BranchModes]:
    """Exact spectral split of U(kappa) into its two rotation branches.

    Returns (primary, mirror).  Raises DegenerateSpectrumError if either
    branch angle sits within the margin of 0 or pi, where its circular
    modes merge.
    """
    grids = branch_projector_grids(*_components(kappa))
    phis = _nondegenerate_phases(kappa, grids)
    return tuple(
        BranchModes(name, phi, offset, *(grids[name][key] for key in (
            "forward", "axis", "backward")))
        for (name, offset), phi in zip(BRANCHES, phis))


@dataclass(frozen=True)
class ModeDecomposition:
    """Spectral data of U(kappa) grouped by propagation direction.

    projector_plus/zero/minus are exact rank-2 projectors onto the two
    forward modes, the two stationary modes, and the two backward modes.
    The forward eigenvalues are exp(-i phase) and exp(-i mirror_phase);
    `splitting` is their distance and `reconstruction_residual` the error
    of compressing U to the three eigenvalues {exp(-i phase), 1,
    exp(+i phase)} alone.  Both vanish on the coordinate planes.
    """

    phase: float
    mirror_phase: float
    eigenvalues: np.ndarray
    projector_plus: np.ndarray
    projector_zero: np.ndarray
    projector_minus: np.ndarray
    splitting: float
    reconstruction_residual: float


def mode_decomposition(kappa) -> ModeDecomposition:
    """Group the six exact modes of U(kappa) into forward/zero/backward."""
    primary, mirror = branch_decomposition(kappa)
    p_plus = _embed(primary.forward, 3) + _embed(mirror.forward, 0)
    p_zero = _embed(primary.axis, 3) + _embed(mirror.axis, 0)
    p_minus = _embed(primary.backward, 3) + _embed(mirror.backward, 0)
    lam_p = complex(math.cos(primary.phase), -math.sin(primary.phase))
    lam_m = complex(math.cos(mirror.phase), -math.sin(mirror.phase))
    eigenvalues = np.array([
        lam_p, lam_m, 1.0, 1.0, lam_m.conjugate(), lam_p.conjugate(),
    ])
    u = kernel_closed_form(kappa)
    compressed = lam_p * p_plus + p_zero + lam_p.conjugate() * p_minus
    return ModeDecomposition(
        phase=primary.phase,
        mirror_phase=mirror.phase,
        eigenvalues=eigenvalues,
        projector_plus=p_plus,
        projector_zero=p_zero,
        projector_minus=p_minus,
        splitting=abs(lam_p - lam_m),
        reconstruction_residual=float(np.abs(u - compressed).max()),
    )


def _branch(helicity_index) -> tuple[str, int]:
    if helicity_index not in (0, 1):
        raise ArgumentOutOfRangeError("helicity_index must be 0 or 1")
    return BRANCHES[int(helicity_index)]


def positive_energy_vector(kappa, helicity_index: int = 0) -> np.ndarray:
    """Deterministic unit eigenvector of a forward mode of U(kappa).

    helicity_index 0 returns the primary-branch vector (eigenvalue
    exp(-i phase(kappa)), lower block); helicity_index 1 the mirror-branch
    vector (eigenvalue exp(-i mirror_phase(kappa)), upper block).  The two
    are orthonormal.  Construction as in `forward_vector_grids`.
    """
    (name, offset), k = _branch(helicity_index), _components(kappa)
    _nondegenerate_phases(kappa, rotation_grids(*k, (name,)))
    return np.pad(forward_vector_grids(*k, helicity_index)[0], (offset, 3 - offset))


@dataclass(frozen=True)
class GroupVelocity:
    """Lattice group velocity in units of the causal speed (sites/step)."""

    vx: float
    vy: float
    vz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz])

    @property
    def speed(self) -> float:
        return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)


def group_velocity_analytic(kappa) -> GroupVelocity:
    """Gradient of phase(kappa) in closed form: `velocity_grid` at one point.

    Exactly (sign(k), 0, 0) and unit speed for axis-aligned momenta.
    Raises DegenerateSpectrumError where the dispersion cone is singular.
    """
    kx, ky, kz = _components(kappa)
    vx, vy, vz, _, degenerate = velocity_grid(kx, ky, kz)
    if degenerate:
        raise DegenerateSpectrumError(
            f"group velocity undefined: 4 sin^2(phase) < {DEGENERACY_MARGIN**2}"
            " at the band edge")
    zeros = [c == 0.0 for c in (kx, ky, kz)]
    if sum(zeros) == 2:
        # along an axis the gradient is exactly the signed unit vector
        comps = [0.0, 0.0, 0.0]
        axis = zeros.index(False)
        comps[axis] = math.copysign(1.0, math.sin((kx, ky, kz)[axis]))
        return GroupVelocity(*comps)
    return GroupVelocity(float(vx), float(vy), float(vz))


def group_velocity_numeric(kappa, step: float = 1e-6) -> GroupVelocity:
    """Central-difference gradient of phase(kappa), for cross-checking."""
    if not 1e-8 <= step <= 1e-2:
        raise ArgumentOutOfRangeError(f"step {step!r} outside [1e-8, 1e-2]")
    k = _components(kappa)
    comps = []
    for i in range(3):
        delta = np.zeros(3)
        delta[i] = step
        comps.append((phase(k + delta) - phase(k - delta)) / (2.0 * step))
    return GroupVelocity(*comps)


def speed_deviation_series(kappa) -> float:
    """Leading relative deviation of the primary-branch speed from 1.

    |v_g| = 1 - kx ky kz / |kappa|^2 + O(|kappa|^2); returns the correction
    term.  Zero for momenta in a coordinate plane; extremal along the main
    diagonals at -|kappa|/(3 sqrt(3)).
    """
    k = _components(kappa)
    norm_sq = float(k @ k)
    if norm_sq == 0.0:
        raise ZeroMomentumError("speed deviation series undefined at kappa = 0")
    return float(-(k[0] * k[1] * k[2]) / norm_sq)


def phase_expansion_check(kappa) -> float:
    """Residual of the small-momentum expansion of the phase.

    Computes |phase(kappa) - (|kappa| - kx ky kz / (2 |kappa|))|.  The
    expansion is cubically accurate, so halving |kappa| shrinks the
    residual roughly eightfold.  Valid for 0 < |kappa| <= 0.1.
    """
    k = _components(kappa)
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        raise ZeroMomentumError("expansion undefined at kappa = 0")
    if norm > 0.1:
        raise SeriesOutOfRangeError(
            f"|kappa| = {norm!r} outside the series window (0, 0.1]")
    series = norm - (k[0] * k[1] * k[2]) / (2.0 * norm)
    return abs(phase(k) - series)


# --- vectorized grid forms (surface export, packet prediction) ---

def phase_grid(kx, ky, kz) -> np.ndarray:
    """phase(kappa) over broadcast momentum arrays (clamped)."""
    return _arccos_one_minus(_versine_args(kx, ky, kz)[0])


def mirror_phase_grid(kx, ky, kz) -> np.ndarray:
    return _arccos_one_minus(_versine_args(kx, ky, kz)[1])


def velocity_grid(kx, ky, kz):
    """Vectorized analytic group velocity.

    Returns (vx, vy, vz, speed, degenerate); velocity entries are NaN
    where the denominator falls under the degeneracy margin.
    """
    kx, ky, kz = (np.asarray(a, dtype=float) for a in (kx, ky, kz))
    cx, cy, cz = np.cos(kx), np.cos(ky), np.cos(kz)
    sx, sy, sz = np.sin(kx), np.sin(ky), np.sin(kz)
    # 2 sin(phase) in versine form; the equivalent 4 - arg^2 cancels badly
    # near the cone tip
    y, _ = _versine_args(kx, ky, kz)
    den_sq = 4.0 * y * (2.0 - y)
    degenerate = den_sq < DEGENERACY_MARGIN**2
    den = np.sqrt(np.where(degenerate, 1.0, den_sq))
    vx = np.where(degenerate, np.nan, (sx * (cy + cz) - cx * sy * sz) / den)
    vy = np.where(degenerate, np.nan, (sy * (cx + cz) - sx * cy * sz) / den)
    vz = np.where(degenerate, np.nan, (sz * (cx + cy) - sx * sy * cz) / den)
    speed = np.sqrt(vx * vx + vy * vy + vz * vz)
    return vx, vy, vz, speed, degenerate


def kernel_grid(kx, ky, kz) -> np.ndarray:
    """U(kappa) over broadcast momentum arrays, shape (..., 6, 6)."""
    kx, ky, kz = np.broadcast_arrays(*(np.asarray(a, float) for a in (kx, ky, kz)))
    cx, cy, cz = np.cos(kx), np.cos(ky), np.cos(kz)
    out = np.zeros(kx.shape + (6, 6), dtype=complex)
    # upper block: mirror branch; lower: primary, the upper one at -kappa
    for offset, sign in ((0, 1.0), (3, -1.0)):
        sx, sy, sz = sign * np.sin(kx), sign * np.sin(ky), sign * np.sin(kz)
        out[..., offset:offset + 3, offset:offset + 3] = np.stack([
            np.stack([cy * cz, -cy * sz, sy], axis=-1),
            np.stack([cz * sx * sy + cx * sz, cx * cz - sx * sy * sz, -cy * sx], axis=-1),
            np.stack([sx * sz - cx * cz * sy, cz * sx + cx * sy * sz, cx * cy], axis=-1),
        ], axis=-2)
    return out


def branch_projector_grids(kx, ky, kz):
    """Vectorized forward/axis/backward projectors of both blocks.

    Returns a dict per branch ('primary', 'mirror') with keys 'phase'
    (...,), 'forward'/'axis'/'backward' (..., 3, 3) acting inside the
    branch's own block, and 'degenerate' (...,) flagging modes where the
    branch angle is within the margin of 0 or pi (projectors NaN there).
    From `rotation_grids`: n n^T and (I - n n^T +/- i [n]x) / 2.
    """
    out = {}
    for name, rotation in rotation_grids(kx, ky, kz).items():
        n = rotation["axis"]
        axial = n[..., :, None] * n[..., None, :]
        turn = np.swapaxes(np.cross(n[..., None, :], np.eye(3)), -1, -2)
        nan_mask = rotation["degenerate"][..., None, None]
        out[name] = {
            "phase": rotation["phase"],
            "forward": np.where(nan_mask, np.nan,
                                0.5 * (np.eye(3) - axial + 1j * turn)),
            "axis": np.where(nan_mask, np.nan, axial),
            "backward": np.where(nan_mask, np.nan,
                                 0.5 * (np.eye(3) - axial - 1j * turn)),
            "degenerate": rotation["degenerate"],
        }
    return out


def forward_vector_grids(kx, ky, kz, helicity_index: int = 0):
    """Forward eigenvectors of one branch over broadcast momenta.

    Returns (vectors (..., 3), degenerate (...,)), each vector inside the
    branch's own block and zero where degenerate: the forward projector
    applied to the block basis vector least aligned with the axis,
    normalized, with the first component over 1e-9 in modulus made real
    positive.
    """
    name = _branch(helicity_index)[0]
    rotation = rotation_grids(kx, ky, kz, (name,))[name]
    n, bad = rotation["axis"], rotation["degenerate"]
    pick = np.argmin(np.abs(n), axis=-1)[..., None]
    e = (np.arange(3) == pick).astype(float)
    v = e - n * np.take_along_axis(n, pick, axis=-1) + 1j * np.cross(n, e)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    lead = np.take_along_axis(
        v, np.argmax(np.abs(v) > 1e-9, axis=-1)[..., None], axis=-1)
    return np.where(bad[..., None], 0.0, v * (np.conj(lead) / np.abs(lead))), bad


def rotation_grids(kx, ky, kz, names=("primary", "mirror")):
    """Axis-angle form of the named rotation blocks over broadcast momenta.

    Returns a dict per branch in `names` (default both) with keys 'axis'
    (..., 3), the unit rotation axis n; 'phase' (...,), the angle phi in
    [0, pi]; and 'degenerate' (...,), the angle within the margin of 0 or
    pi.  The block acts as R^t a = n (n.a) + cos(t phi) (a - n (n.a)) +
    sin(t phi) n x a; where phi = 0 exactly, n is zero, keeping R^t = I.
    Both come from the block's unit quaternion q = (q0, v), the product of
    the half-angle factors (cos(k/2), -/+sin(k/2) e) of its three axis
    rotations: phi = 2 atan2(|v|, |q0|), n = sign(q0) v / |v|.
    """
    half = [0.5 * np.asarray(a, float) for a in (kx, ky, kz)]
    c1, c2, c3 = (np.cos(h) for h in half)
    out = {}
    # the primary (lower) block is the mirror (upper) block at -kappa
    for (name, _), sign in zip(BRANCHES, (-1.0, 1.0)):
        if name not in names:
            continue
        s1, s2, s3 = (sign * np.sin(h) for h in half)
        q0 = c1 * c2 * c3 - s1 * s2 * s3
        v = np.stack(np.broadcast_arrays(
            c2 * c3 * s1 + c1 * s2 * s3, c1 * c3 * s2 - c2 * s1 * s3,
            c1 * c2 * s3 + c3 * s1 * s2), axis=-1)
        v_norm = np.sqrt(np.sum(v * v, axis=-1))
        # 1 - cos(phi) = 2 |v|^2 and 1 + cos(phi) = 2 q0^2: neither cancels
        phi = 2.0 * np.arctan2(v_norm, np.abs(q0))
        # q and -q are the same rotation; taking q0 >= 0 keeps phi <= pi
        scale = np.where(q0 < 0.0, -1.0, 1.0) / np.where(v_norm == 0.0, 1.0, v_norm)
        out[name] = {
            "axis": v * scale[..., None],
            "phase": phi,
            "degenerate": np.minimum(phi, np.pi - phi) < DEGENERACY_MARGIN,
        }
    return out


def surface_table(resolution: int) -> dict[str, np.ndarray]:
    """Dispersion surface over an inclusive uniform grid of the zone.

    Rows run lexicographically in (kx, ky, kz).  Velocity columns are NaN
    on degenerate points, which the `degenerate` column flags.
    """
    if not 2 <= resolution <= 512:
        raise ArgumentOutOfRangeError(
            f"resolution {resolution!r} outside [2, 512]")
    # on open axes each sine and cosine is taken m times, not m^3
    grids = np.ix_(*[np.linspace(-math.pi, math.pi, resolution)] * 3)
    columns = (*np.broadcast_arrays(*grids), phase_grid(*grids),
               *velocity_grid(*grids))
    keys = ("kx", "ky", "kz", "phase", "vx", "vy", "vz", "speed", "degenerate")
    return {key: column.ravel() for key, column in zip(keys, columns)}
