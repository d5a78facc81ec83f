"""Self-contained invariant suite spanning every module.

Each check recomputes one contract from scratch and reports its worst
residual against a fixed tolerance; the kernel checks evaluate the grid
forms over arrays of seeded random momenta.  The suite backs the `verify`
subcommand and runs in well under a second on 2 cores, so it can gate CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, anisotropy, bounds, kernel, lattice


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]


def _result(name, residual, tolerance, detail=""):
    residual = float(residual)
    return CheckResult(name, residual <= tolerance, residual, tolerance, detail)


def _phases(k):
    """Primary and mirror branch angles at (count, 3) momenta k, (2, count)."""
    return np.stack([kernel.phase_grid(*k.T), kernel.mirror_phase_grid(*k.T)])


def _safe_momenta(rng, count, margin=0.2):
    """(count, 3) random momenta with both branch phases clear of 0 and pi,
    drawn from rng exactly as a one-at-a-time rejection loop draws them."""
    out = np.empty((0, 3))
    while len(out) < count:
        k = rng.uniform(-math.pi, math.pi, (count - len(out), 3))
        phases = _phases(k)
        out = np.concatenate(
            [out, k[np.all(np.minimum(phases, math.pi - phases) > margin, axis=0)]])
    return out


# ------------------------------------------------------------------ algebra

def _check_algebra(results):
    report = algebra.verify_projector_conditions(1e-12)
    results.append(_result("algebra.projector_conditions", report.max_residual, 1e-12,
                           f"{len(report.checks)} named conditions"))

    res = 0.0
    js = [algebra.build_spin1_matrix(a) for a in algebra.Axis]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = js[i] @ js[j] - js[j] @ js[i]
        res = max(res, np.max(np.abs(comm - 1j * js[k])))
    results.append(_result("algebra.spin_commutators", res, 1e-15))

    resolution = recombination = 0.0
    for a in algebra.Axis:
        g, t = algebra.build_gamma(a), algebra.build_projectors(a)
        resolution = max(resolution,
                         np.max(np.abs(t.plus + t.zero + t.minus - np.eye(6))),
                         abs(np.trace(t.plus).real - 2.0),
                         abs(np.trace(t.minus).real - 2.0))
        recombination = max(recombination, np.max(np.abs(t.plus - t.minus - g)),
                            np.max(np.abs(t.plus + t.minus - g @ g)))
    results.append(_result("algebra.projector_resolution", resolution, 1e-14))
    results.append(_result("algebra.projector_recombination", recombination, 1e-14))


# ------------------------------------------------------------------- kernel

def _check_kernel(results, rng):
    momenta = rng.uniform(-math.pi, math.pi, (40, 3))
    u = kernel.kernel_grid(*momenta.T)
    res = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(6)))
    results.append(_result("kernel.unitarity", res, 1e-13,
                           f"{len(momenta)} random momenta"))

    res = max(np.max(np.abs(u[:, :3, 3:])), np.max(np.abs(u[:, 3:, :3])),
              np.max(np.abs(u.imag)))
    results.append(_result("kernel.block_structure", res, 1e-15,
                           "off-diagonal blocks vanish, entries real"))

    both = _phases(momenta)
    phases = np.sort(np.concatenate([0 * both, both, -both]).T)
    res = np.max(np.abs(np.sort(np.angle(np.linalg.eigvals(u))) - phases))
    results.append(_result("kernel.closed_form_spectrum", res, 1e-10))

    res = np.max(np.abs(both[1] - kernel.phase_grid(*-momenta.T)))
    results.append(_result("kernel.mirror_parity", res, 1e-15))

    mags = rng.uniform(0.05, math.pi - 0.05, 20)
    res = max(abs(kernel.phase((m, 0.0, 0.0)) - m) for m in mags)
    res = max(res, max(abs(kernel.phase((0.0, 0.0, m)) - m) for m in mags))
    results.append(_result("kernel.axis_phase_exact", res, 1e-15))

    res = 0.0
    for m in mags:
        for v in (kernel.group_velocity_analytic((m, 0.0, 0.0)),
                  kernel.group_velocity_analytic((0.0, -m, 0.0))):
            res = max(res, abs(math.hypot(v.vx, v.vy, v.vz) - 1.0))
    results.append(_result("kernel.axis_speed_unity", res, 1e-12))

    k = _safe_momenta(rng, 30)
    va = np.stack(kernel.velocity_grid(*k.T)[:3], axis=-1)
    h = 1e-6  # group_velocity_numeric's central difference
    vn = np.stack([(kernel.phase_grid(*(k + d).T) - kernel.phase_grid(*(k - d).T))
                   / (2.0 * h) for d in np.eye(3) * h], axis=-1)
    res = np.max(np.max(np.abs(va - vn), axis=-1)
                 / np.maximum(np.max(np.abs(va), axis=-1), 1.0))
    results.append(_result("kernel.velocity_analytic_vs_numeric", res, 1e-7))

    # leading-order expansion residual should drop 8x per halving of |kappa|
    direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    r1 = kernel.phase_expansion_check(1e-2 * direction)
    r2 = kernel.phase_expansion_check(5e-3 * direction)
    ratio = r1 / r2
    results.append(_result("kernel.series_cubic_scaling", abs(ratio - 8.0), 1.0,
                           f"ratio {ratio:.3f}"))

    k = _safe_momenta(rng, 15)
    u, grids = kernel.kernel_grid(*k.T), kernel.branch_projector_grids(*k.T)
    rebuilt = np.zeros_like(u)
    # eigenphases from the arccos forms, not the projector grids' block angles
    for (name, o, _), phi in zip(kernel.BRANCHES, _phases(k)):
        lam, g = np.exp(-1j * phi)[:, None, None], grids[name]
        rebuilt[:, o:o + 3, o:o + 3] = (lam * g["forward"] + g["axis"]
                                        + np.conj(lam) * g["backward"])
    res = np.max(np.abs(u - rebuilt))
    results.append(_result("kernel.two_phase_reconstruction", res, 1e-10))

    k = _safe_momenta(rng, 15)
    u = kernel.kernel_grid(*k.T)
    res = 0.0
    for (helicity, phi), (_, o, _) in zip(enumerate(_phases(k)), kernel.BRANCHES):
        block = kernel.forward_vector_grids(*k.T, helicity)
        vec = np.pad(block, ((0, 0), (o, 3 - o)))  # the block in its place
        moved = (u @ vec[..., None])[..., 0] - np.exp(-1j * phi)[:, None] * vec
        res = max(res, np.max(np.abs(moved)),
                  np.max(np.abs(np.linalg.norm(vec, axis=-1) - 1.0)))
    results.append(_result("kernel.positive_energy_eigenvector", res, 1e-10))


# ------------------------------------------------------------------ lattice

def _check_lattice(results, rng):
    lat = lattice.Lattice(8)
    state = lattice.random_state(lat, rng)
    back = lattice.to_position(lattice.to_momentum(state))
    res = np.max(np.abs(back.amplitudes - state.amplitudes))
    results.append(_result("lattice.fourier_roundtrip", res, 1e-13))

    res = 0.0
    for _ in range(5):
        st = lattice.random_state(lat, rng)
        res = max(res, abs(lattice.evolve_spectral(st, 40).norm() - 1.0))
    results.append(_result("lattice.norm_conservation", res, 1e-12,
                           "40 spectral steps"))

    res = 0.0
    for _ in range(3):
        st = lattice.random_state(lat, rng)
        a = lattice.evolve_spectral(st, 4)
        b = lattice.evolve_direct(st, 4)
        res = max(res, np.max(np.abs(a.amplitudes - b.amplitudes)))
    results.append(_result("lattice.spectral_vs_direct", res, 1e-10))

    # single eigenmode only picks up its eigenphase
    k0 = lattice.snap_to_grid((0.7, -0.5, 0.3), lat.n)
    vec = kernel.positive_energy_vector(k0.as_array())
    amp = np.zeros((8, 8, 8, 6), dtype=complex)
    idx = tuple(int(round(c * lat.n / (2 * math.pi))) % lat.n
                for c in k0.as_array())
    amp[idx] = vec
    mode = lattice.LatticeState(lat, lattice.MOMENTUM, amp)
    evolved = lattice.evolve_spectral(mode, 9)
    expected = amp * np.exp(-9j * kernel.phase(k0.as_array()))
    res = np.max(np.abs(evolved.amplitudes - expected))
    results.append(_result("lattice.single_mode_phase", res, 1e-12))

    lat16 = lattice.Lattice(16)
    spec = lattice.WavePacketSpec("sinc", (0.4, 0.0, 0.0), (8, 8, 8), 2)
    packet = lattice.make_wavepacket(lat16, spec)
    pos = lattice.centroid(lattice.to_position(packet))
    res = max(np.max(np.abs(pos - 8.0)), abs(packet.norm() - 1.0))
    results.append(_result("lattice.packet_centred_and_normalized", res, 1e-9))

    mv = lattice.measure_group_velocity(lat16, spec, steps=6)
    res = np.max(np.abs(mv.velocity.as_array() - mv.predicted))
    results.append(_result("lattice.axis_packet_drift", res, 0.02,
                           "measured centroid rate vs mode-weighted analytic"))


# --------------------------------------------------------------- anisotropy

def _check_anisotropy(results):
    st = anisotropy.sphere_stats(64, 64)
    results.append(_result("anisotropy.mean_zero", abs(st.mean), 1e-14))
    results.append(_result(
        "anisotropy.rms_closed_forms",
        max(abs(st.rms_unit_average - anisotropy.RMS_UNIT_AVERAGE),
            abs(st.rms_paper_normalization - anisotropy.RMS_SOLID_ANGLE)), 1e-10))
    results.append(_result(
        "anisotropy.extrema",
        max(abs(st.max - anisotropy.MAX_VALUE),
            abs(st.spread - anisotropy.SPREAD_MAX)), 1e-9))
    d = anisotropy.Direction(math.acos(1.0 / math.sqrt(3.0)), math.pi / 4)
    res = abs(anisotropy.deviation_for_direction(0.01, d)
              + 0.01 * anisotropy.MAX_VALUE)
    results.append(_result("anisotropy.diagonal_deviation", res, 1e-15))


# ------------------------------------------------------------------- bounds

def _check_bounds(results):
    constants = bounds.PhysicalConstants()
    records = bounds.load_experiments(bounds.bundled_catalog_path())

    grb = next(r for r in records if r.id == "grb221009a-linear-subluminal")
    dx = bounds.dispersion_bound(grb, constants,
                                 rms_factor=0.346).delta_x_upper_bound
    results.append(_result("bounds.grb_benchmark", abs(dx / 5.8e-36 - 1.0),
                           0.02, f"dx {dx:.4e} m"))

    resonator = next(r for r in records if r.id == "resonator-infrared")
    dx = bounds.anisotropy_bound(resonator, constants).delta_x_upper_bound
    results.append(_result("bounds.resonator_benchmark",
                           abs(dx / 6.5e-26 - 1.0), 0.10, f"dx {dx:.4e} m"))

    entries = bounds.run_catalog(records, constants)
    numeric = [e for e in entries if isinstance(e, bounds.BoundResult)]
    annotated = [e for e in entries if isinstance(e, bounds.UnsupportedEntry)]
    ordered = all(a.delta_x_upper_bound <= b.delta_x_upper_bound
                  for a, b in zip(numeric, numeric[1:]))
    res = 0.0 if (ordered and len(numeric) == 4 and len(annotated) == 2) else 1.0
    results.append(_result("bounds.catalog_shape", res, 0.0,
                           f"{len(numeric)} numeric, {len(annotated)} annotated"))

    lag = bounds.time_lag(constants.speed_of_light, 1.0, 0.0, 1e20)
    results.append(_result("bounds.time_lag_example", abs(lag - 1e-20), 1e-34))


def run_all_checks(seed: int = 0) -> VerificationReport:
    """Execute every invariant check and collect the results."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    _check_algebra(results)
    _check_kernel(results, rng)
    _check_lattice(results, rng)
    _check_anisotropy(results)
    _check_bounds(results)
    return VerificationReport(seed=seed, checks=results)
