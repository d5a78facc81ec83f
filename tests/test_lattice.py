"""Lattice states, wave packets, evolution routes, centroid tracking."""

import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bosonwalk.errors import (
    BasisMismatchError,
    DegenerateSpectrumError,
    MemoryBudgetError,
    PacketSpecError,
    UndefinedCentroidError,
)
from bosonwalk.kernel import (
    BRANCHES,
    ReducedMomentum,
    branch_projector_grids,
    group_velocity_analytic,
    mirror_phase_grid,
    phase,
    phase_grid,
    positive_energy_vector,
    velocity_grid,
)
from bosonwalk.lattice import (
    Lattice,
    LatticeState,
    WavePacketSpec,
    centroid,
    evolve_direct,
    evolve_spectral,
    make_wavepacket,
    measure_group_velocity,
    predicted_packet_velocity,
    predicted_state_velocity,
    project_to_branch,
    random_state,
    snap_to_grid,
    to_momentum,
    to_position,
)
from bosonwalk import budget, cli
from bosonwalk import lattice as lattice_module
from bosonwalk.budget import (
    _BYTES_PER_SAMPLE,
    _BYTES_PER_WINDOW_MODE,
    _memory_budget,
)
from bosonwalk.lattice import (
    _circular_stats,
    _packet_parts,
    _packet_support,
    _packet_window,
    _shifted_overlaps,
)


def delta_state(lattice, site, component=0):
    amp = np.zeros((lattice.n,) * 3 + (6,), dtype=complex)
    amp[site + (component,)] = 1.0
    return LatticeState(lattice, "position", amp)


# ------------------------------------------------------------ construction

def test_lattice_rejects_odd_or_tiny_sizes():
    for bad in (3, 2, 7, 0, -4):
        with pytest.raises(ValueError):
            Lattice(bad)
    assert Lattice(4).n == 4


def test_mode_values_wrap_to_half_open_zone():
    vals = Lattice(8).mode_values()
    assert np.isclose(vals[4], np.pi)  # the n/2 index carries +pi
    assert vals.max() <= np.pi and vals.min() > -np.pi
    np.testing.assert_allclose(vals[1], 2 * np.pi / 8)
    np.testing.assert_allclose(vals[7], -2 * np.pi / 8)


def test_state_validation():
    lat = Lattice(4)
    good = np.zeros((4, 4, 4, 6), dtype=complex)
    good[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        LatticeState(lat, "nowhere", good)
    with pytest.raises(ValueError):
        LatticeState(lat, "position", good[..., :3])
    with pytest.raises(ValueError):
        LatticeState(lat, "position", 2.0 * good)


def test_random_state_is_normalized():
    st = random_state(Lattice(6), np.random.default_rng(0))
    assert np.isclose(st.norm(), 1.0)


def test_snap_to_grid():
    k = snap_to_grid((0.4, -0.4, 3.0), 16)
    step = 2 * np.pi / 16
    np.testing.assert_allclose(k.as_array() / step,
                               np.round(k.as_array() / step), atol=1e-12)
    assert np.isclose(k.kx, step * round(0.4 / step))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_snap_to_grid_where_k_n_overflows():
    # k n overflows for |k| past about 1.8e308 / n; there the exact image
    # of k in (-2 pi, 2 pi) is snapped instead
    huge = (-1e307, np.finfo(float).max, 1e306)
    image = tuple(math.fmod(v, 2 * math.pi) for v in huge[:2]) + (1e306,)
    assert snap_to_grid(huge, 32) == snap_to_grid(image, 32)
    assert np.all(np.isfinite(snap_to_grid(huge, 32).as_array()))


# ------------------------------------------------------------------- bases

def test_fourier_round_trip_is_identity():
    st = random_state(Lattice(6), np.random.default_rng(1))
    back = to_position(to_momentum(st))
    np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-14)


def test_basis_mismatch_raises():
    st = random_state(Lattice(4), np.random.default_rng(2))
    with pytest.raises(BasisMismatchError):
        to_position(st)
    with pytest.raises(BasisMismatchError):
        to_momentum(to_momentum(st))
    with pytest.raises(BasisMismatchError):
        centroid(to_momentum(st))


def test_plane_wave_transforms_to_single_mode():
    lat = Lattice(8)
    m = (2, 5, 1)
    kvals = lat.mode_values()
    x = np.arange(8)
    wave = np.exp(1j * (kvals[m[0]] * x[:, None, None]
                        + kvals[m[1]] * x[None, :, None]
                        + kvals[m[2]] * x[None, None, :]))
    amp = np.zeros((8, 8, 8, 6), dtype=complex)
    amp[..., 2] = wave / np.sqrt(8**3)
    st = LatticeState(lat, "position", amp)
    mom = to_momentum(st)
    assert np.isclose(abs(mom.amplitudes[m + (2,)]), 1.0, atol=1e-12)
    total = np.sum(np.abs(mom.amplitudes) ** 2)
    assert np.isclose(total, 1.0, atol=1e-12)


# ----------------------------------------------------------------- packets

def test_packet_spec_validation():
    with pytest.raises(PacketSpecError):
        WavePacketSpec("box", (0, 0, 0), (0, 0, 0), 2)
    with pytest.raises(PacketSpecError):
        WavePacketSpec("sinc", (0, 0, 0), (0, 0, 0), 3)  # odd width
    with pytest.raises(PacketSpecError):
        WavePacketSpec("gaussian", (0, 0, 0), (0, 0, 0), -0.1)
    with pytest.raises(PacketSpecError):
        WavePacketSpec("gaussian", (0, 0, 0), (0.5, 0, 0), 0.2)  # fractional site
    with pytest.raises(PacketSpecError):
        WavePacketSpec("gaussian", (0, 0, 0), (0, 0, 0), 0.2, helicity=2)


def test_packet_lattice_compatibility_checks():
    lat = Lattice(16)
    with pytest.raises(PacketSpecError):
        # cube edge 5 exceeds 16/4
        make_wavepacket(lat, WavePacketSpec("sinc", (0.4, 0, 0), (0, 0, 0), 4))
    with pytest.raises(PacketSpecError):
        # sigma below the resolvability floor 4 pi / n
        make_wavepacket(Lattice(32), WavePacketSpec(
            "gaussian", (0.4, 0, 0), (0, 0, 0), np.pi / 16))
    with pytest.raises(PacketSpecError):
        # sigma above the zone-narrowness cap pi / 8
        make_wavepacket(Lattice(64), WavePacketSpec(
            "gaussian", (0.4, 0, 0), (0, 0, 0), 0.5))
    with pytest.raises(PacketSpecError,
                       match="^gaussian packets need n >= 32, got n=16$"):
        # the floor 4 pi / n passes the cap pi / 8 below n = 32
        make_wavepacket(lat, WavePacketSpec(
            "gaussian", (0.4, 0, 0), (0, 0, 0), np.pi / 4))


def test_sinc_packet_is_uniform_over_snapped_cube():
    lat = Lattice(32)
    spec = WavePacketSpec("sinc", (0.4, -0.3, 0.1), (16, 16, 16), 2)
    pk = make_wavepacket(lat, spec)
    mags = np.linalg.norm(pk.amplitudes, axis=-1)
    occupied = mags > 1e-12
    assert occupied.sum() == 27  # (width + 1)^3
    np.testing.assert_allclose(mags[occupied], 27**-0.5, atol=1e-12)
    k0 = snap_to_grid(spec.k0, 32)
    m0 = np.rint(k0.as_array() * 32 / (2 * np.pi)).astype(int) % 32
    assert occupied[tuple(m0)]


def test_sinc_packet_position_profile_is_dirichlet_product():
    # independent oracle: sum the plane waves of the cube explicitly
    lat = Lattice(32)
    spec = WavePacketSpec("sinc", (0.4, 0.0, 0.0), (10, 16, 16), 4)
    pk = to_position(make_wavepacket(lat, spec))
    k0 = snap_to_grid(spec.k0, 32)
    u = positive_energy_vector(k0)
    offsets = 2 * np.pi * np.arange(-2, 3) / 32
    x = np.arange(32)
    def dirichlet(axis_k0, x0):
        return sum(np.exp(1j * (axis_k0 + d) * (x - x0)) for d in offsets)
    dx = dirichlet(k0.kx, 10)
    dy = dirichlet(k0.ky, 16)
    dz = dirichlet(k0.kz, 16)
    oracle = (dx[:, None, None] * dy[None, :, None] * dz[None, None, :])
    oracle = oracle[..., None] * u
    oracle /= np.sqrt(np.sum(np.abs(oracle) ** 2))
    np.testing.assert_allclose(pk.amplitudes, oracle, atol=1e-12)


def test_gaussian_packet_profile_and_width():
    lat = Lattice(64)
    sigma = 0.25
    spec = WavePacketSpec("gaussian", (0.4, 0.2, -0.3), (20, 32, 40), sigma)
    pk = make_wavepacket(lat, spec)
    kx, ky, kz = lat.mode_grids()
    k0 = ReducedMomentum.wrap(*spec.k0)
    d2 = sum(((g - c + np.pi) % (2 * np.pi) - np.pi) ** 2
             for g, c in zip((kx, ky, kz), k0.as_array()))
    expected = np.exp(-d2 / (4 * sigma**2))
    expected /= np.sqrt(np.sum(expected**2))
    mags = np.linalg.norm(pk.amplitudes, axis=-1)
    np.testing.assert_allclose(mags, expected, atol=1e-12)

    # position width: sigma_x = 1 / (2 sigma), within 2%
    pos = to_position(pk)
    p = np.sum(np.abs(pos.amplitudes) ** 2, axis=-1)
    marginal = p.sum(axis=(1, 2))
    xs = np.arange(64, dtype=float)
    mean = np.sum(marginal * xs)
    var = np.sum(marginal * (xs - mean) ** 2)
    assert abs(np.sqrt(var) - 1 / (2 * sigma)) <= 0.02 / (2 * sigma)


def test_gaussian_weights_wrap_around_zone_edge():
    lat = Lattice(32)
    # kx centred exactly on the zone seam (nondegenerate thanks to ky, kz)
    spec = WavePacketSpec("gaussian", (np.pi, 0.3, 0.3), (16, 16, 16), np.pi / 8)
    pk = make_wavepacket(lat, spec)
    mags = np.linalg.norm(pk.amplitudes, axis=-1)
    # modes at +pi - delta and -pi + delta are equidistant from the center
    np.testing.assert_allclose(mags[15], mags[17], atol=1e-12)
    np.testing.assert_allclose(mags[14], mags[18], atol=1e-12)
    assert np.unravel_index(np.argmax(mags), mags.shape)[0] == 16


def test_packet_centroid_and_phase_center():
    lat = Lattice(32)
    spec = WavePacketSpec("gaussian", (0.4, 0.0, 0.0), (5, 20, 9), np.pi / 8)
    c = centroid(to_position(make_wavepacket(lat, spec)))
    np.testing.assert_allclose(c, [5, 20, 9], atol=1e-9)


def test_frozen_internal_matches_eigenvector_at_center():
    lat = Lattice(32)
    spec = WavePacketSpec("sinc", (0.4, 0.4, 0.4), (16, 16, 16), 2)
    pk = make_wavepacket(lat, spec)
    k0 = snap_to_grid(spec.k0, 32)
    m0 = np.rint(k0.as_array() * 32 / (2 * np.pi)).astype(int) % 32
    v = pk.amplitudes[tuple(m0)]
    v = v / np.linalg.norm(v)
    u = positive_energy_vector(k0)
    # equal up to the carried spatial phase
    overlap = abs(np.vdot(u, v))
    assert np.isclose(overlap, 1.0, atol=1e-12)


def test_project_to_branch_yields_eigenmode_mixture():
    lat = Lattice(16)
    st = LatticeState(lat, "momentum",
                      random_state(lat, np.random.default_rng(3)).amplitudes)
    proj = project_to_branch(st, helicity=1)
    assert np.isclose(proj.norm(), 1.0, atol=1e-12)
    ev = evolve_spectral(proj, 1)
    ph = mirror_phase_grid(*lat.mode_grids())
    expected = np.exp(-1j * ph)[..., None] * proj.amplitudes
    np.testing.assert_allclose(ev.amplitudes, expected, atol=1e-11)


# --------------------------------------------------------------- evolution

def test_spectral_matches_direct_on_random_states():
    lat = Lattice(8)
    rng = np.random.default_rng(4)
    for _ in range(5):
        st = random_state(lat, rng)
        a = evolve_spectral(st, 5)
        b = evolve_direct(st, 5)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10


def test_evolution_routes_accept_both_bases():
    lat = Lattice(8)
    st = random_state(lat, np.random.default_rng(5))
    mom = to_momentum(st)
    a = evolve_spectral(mom, 3)
    assert a.basis == "momentum"
    b = evolve_direct(mom, 3)
    assert b.basis == "momentum"
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-11)


def test_zero_steps_is_identity_and_negative_rejected():
    lat = Lattice(8)
    st = random_state(lat, np.random.default_rng(6))
    np.testing.assert_allclose(evolve_spectral(st, 0).amplitudes, st.amplitudes)
    np.testing.assert_allclose(evolve_direct(st, 0).amplitudes, st.amplitudes)
    with pytest.raises(ValueError):
        evolve_spectral(st, -1)
    with pytest.raises(ValueError):
        evolve_direct(st, -1)


def test_norm_conserved_over_many_steps():
    lat = Lattice(16)
    st = random_state(lat, np.random.default_rng(7))
    assert abs(evolve_spectral(st, 100).norm() - 1.0) <= 1e-12
    assert abs(evolve_direct(st, 30).norm() - 1.0) <= 1e-12


def test_translation_covariance():
    lat = Lattice(8)
    st = random_state(lat, np.random.default_rng(8))
    shifted = LatticeState(lat, "position", np.roll(st.amplitudes, 3, axis=1))
    a = evolve_direct(shifted, 2).amplitudes
    b = np.roll(evolve_direct(st, 2).amplitudes, 3, axis=1)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_single_mode_evolves_by_phase():
    lat = Lattice(8)
    kvals = lat.mode_values()
    m = (1, 2, 7)
    k = ReducedMomentum.wrap(kvals[m[0]], kvals[m[1]], kvals[m[2]])
    amp = np.zeros((8, 8, 8, 6), dtype=complex)
    amp[m] = positive_energy_vector(k)
    st = LatticeState(lat, "momentum", amp)
    ev = evolve_spectral(st, 7)
    expected = np.exp(-7j * phase(k)) * amp
    np.testing.assert_allclose(ev.amplitudes, expected, atol=1e-12)


@st.composite
def small_states(draw):
    """Random momentum-basis states on n in {4, 6, 8}, some of them
    supported only on modes whose block angles are exactly 0 or pi, such as
    kappa = (pi, 0, 0) and (0, k, pi), where the rotation axis is hardest
    to read."""
    lat = Lattice(draw(st.sampled_from([4, 6, 8])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = random_state(lat, rng).amplitudes
    if draw(st.booleans()):
        grids = lat.mode_grids()
        edge = np.ones((lat.n,) * 3, dtype=bool)
        for ph in (phase_grid(*grids), mirror_phase_grid(*grids)):
            edge &= np.minimum(ph, np.pi - ph) < 1e-6
        amp = np.where(edge[..., None], amp, 0.0)
        amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
    return LatticeState(lat, "momentum", amp)


@settings(max_examples=40, deadline=None)
@given(state=small_states(), steps=st.integers(0, 12))
def test_property_spectral_matches_direct(state, steps):
    a = evolve_spectral(state, steps).amplitudes
    b = evolve_direct(state, steps).amplitudes
    assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(state=small_states(), steps=st.integers(0, 12))
def test_property_spectral_conserves_norm(state, steps):
    assert abs(evolve_spectral(state, steps).norm() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(state=small_states(), steps=st.integers(0, 12))
def test_property_momentum_phasor_matches_position_marginal(state, steps):
    evolved = evolve_spectral(state, steps)
    n = state.lattice.n
    p = np.sum(np.abs(to_position(evolved).amplitudes) ** 2, axis=-1)
    phasor = np.exp(2j * np.pi * np.arange(n) / n)
    got = _shifted_overlaps(evolved.amplitudes)
    for axis in range(3):
        marginal = p.sum(axis=tuple(a for a in range(3) if a != axis))
        assert abs(got[axis] - np.sum(marginal * phasor)) <= 1e-12


# ---------------------------------------------------------------- centroid

def test_centroid_of_delta_state():
    lat = Lattice(8)
    np.testing.assert_allclose(centroid(delta_state(lat, (3, 0, 7))),
                               [3, 0, 7], atol=1e-12)


def test_circular_centroid_stays_below_n():
    # a phasor a rounding error below the positive real axis has angle
    # -1e-17, which the modulo rounds up to exactly n
    centroids = _circular_stats(np.array([1 - 1e-17j, 1, 1]), 1.0, 8)[0]
    np.testing.assert_array_equal(centroids, [0.0, 0.0, 0.0])


def test_centroid_undefined_for_uniform_state():
    lat = Lattice(8)
    amp = np.full((8, 8, 8, 6), 1.0 + 0j)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
    with pytest.raises(UndefinedCentroidError):
        centroid(LatticeState(lat, "position", amp))


# ---------------------------------------------------- velocity measurement

def test_measure_velocity_argument_validation():
    lat = Lattice(16)
    spec = WavePacketSpec("sinc", (0.4, 0, 0), (8, 8, 8), 2)
    with pytest.raises(ValueError):
        measure_group_velocity(lat, spec, steps=10, sample_every=0)
    with pytest.raises(ValueError):
        measure_group_velocity(lat, spec, steps=10, sample_every=8)
    with pytest.raises(ValueError):
        measure_group_velocity(lat, spec, steps=1, sample_every=2)


def test_measured_velocity_tracks_prediction_sinc_axis():
    lat = Lattice(64)
    spec = WavePacketSpec("sinc", (0.4, 0.0, 0.0), (32, 32, 32), 2)
    mv = measure_group_velocity(lat, spec, steps=20)
    pred = predicted_packet_velocity(lat, spec)
    assert np.max(np.abs(mv.velocity.as_array() - pred)) <= 0.02
    assert np.max(np.abs(mv.trajectory.norms - 1.0)) <= 1e-12
    assert mv.trajectory.positions.shape == (21, 3)
    # the axis packet drifts only along x
    assert abs(mv.velocity.vy) <= 1e-12 and abs(mv.velocity.vz) <= 1e-12


def recentred_mean(state):
    """Plain mean position of a position-basis state over the lattice
    recentred on its circular centroid, which is free of the circular
    estimator's wrap bias over short times."""
    n = state.lattice.n
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
    p /= p.sum()
    c = centroid(state)
    out = np.empty(3)
    for ax in range(3):
        marg = p.sum(axis=tuple(a for a in range(3) if a != ax))
        shifted = (np.arange(n) - c[ax] + n // 2) % n - n // 2
        out[ax] = c[ax] + np.sum(marg * shifted)
    return out


def test_exact_drift_law_for_branch_projected_packet():
    # an exact forward-eigenmode mixture drifts linearly at the
    # mode-weighted group velocity
    lat = Lattice(64)
    spec = WavePacketSpec("gaussian", (0.4, 0.3, -0.2), (32, 32, 32), np.pi / 16)
    st = project_to_branch(make_wavepacket(lat, spec))
    pred = predicted_state_velocity(st)
    m0 = recentred_mean(to_position(st))
    m8 = recentred_mean(to_position(evolve_spectral(st, 8)))
    np.testing.assert_allclose((m8 - m0) / 8, pred, atol=5e-4)


@settings(max_examples=12, deadline=None)
@given(k0=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       sigma=st.floats(np.pi / 8, np.pi / 6), helicity=st.integers(0, 1),
       x0=st.tuples(*[st.integers(0, 31)] * 3), steps=st.integers(1, 8))
def test_property_exact_drift_law_for_branch_projected_packets(k0, sigma, helicity,
                                                               x0, steps):
    # The recentred mean carries the probability near the seam, which is
    # largest where the packet reaches modes of degenerate phase: with the
    # branch phase at k0 near pi the error reaches 0.08 sites per step.
    # With that phase in [0.5, 2], 1,400 draws of this domain at n = 32
    # erred by at most 2.5e-3 (median 7e-5); the tolerance is 5e-3.
    assume(0.5 <= (phase_grid, mirror_phase_grid)[helicity](*k0) <= 2.0)
    lat = Lattice(32)
    spec = WavePacketSpec("gaussian", k0, x0, sigma, helicity=helicity)
    state = project_to_branch(uncut_gaussian(lat, spec), helicity)
    m0 = recentred_mean(to_position(state))
    mt = recentred_mean(to_position(evolve_spectral(state, steps)))
    drift = (mt - m0 + 16) % 32 - 16
    np.testing.assert_allclose(drift / steps, predicted_state_velocity(state),
                               rtol=0, atol=5e-3)


def test_measure_velocity_memory_stays_near_packet_size():
    # the rotation route keeps a few copies of the packet, never a grid of
    # 6x6 matrices, which alone is six times the packet
    lat = Lattice(32)
    k = 0.4 / np.sqrt(3.0)
    spec = WavePacketSpec("gaussian", (k, k, k), (16, 16, 16), np.pi / 8)
    packet_bytes = make_wavepacket(lat, spec).amplitudes.nbytes
    tracemalloc.start()
    try:
        measure_group_velocity(lat, spec, steps=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * packet_bytes


def test_trajectory_unwraps_across_boundary():
    lat = Lattice(32)
    spec = WavePacketSpec("sinc", (1.2, 0.0, 0.0), (30, 16, 16), 2)
    mv = measure_group_velocity(lat, spec, steps=12)
    x = mv.trajectory.positions[:, 0]
    assert x[-1] > 32  # crossed the seam and kept increasing
    assert np.all(np.abs(np.diff(x)) < 2.0)


def test_predicted_velocity_for_state_and_spec_agree():
    lat = Lattice(32)
    spec = WavePacketSpec("sinc", (0.8, 0.4, 0.0), (16, 16, 16), 2)
    a = predicted_packet_velocity(lat, spec)
    b = predicted_state_velocity(make_wavepacket(lat, spec))
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_mirror_branch_packet_moves_like_primary_on_axis():
    # on a coordinate axis the two branches share their dispersion
    lat = Lattice(32)
    s0 = WavePacketSpec("sinc", (0.8, 0.0, 0.0), (16, 16, 16), 2, helicity=0)
    s1 = WavePacketSpec("sinc", (0.8, 0.0, 0.0), (16, 16, 16), 2, helicity=1)
    v0 = measure_group_velocity(lat, s0, steps=10).velocity.as_array()
    v1 = measure_group_velocity(lat, s1, steps=10).velocity.as_array()
    np.testing.assert_allclose(v0, v1, atol=1e-10)


# ------------------------------------------------------ one packet split

def test_json_propagate_builds_one_packet_split(monkeypatch, tmp_path, capsys):
    calls = {"_packet_window": 0, "rotation_grids": 0}
    for name in calls:
        original = getattr(lattice_module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lattice_module, name, counted)
    packet = tmp_path / "packet.json"
    packet.write_text(json.dumps({
        "kind": "sinc", "n": 16, "k0": [0.4, 0.3, 0.0], "x0": [8, 8, 8],
        "width": 2, "helicity": 0, "steps": 4, "sample_every": 1}))
    assert cli.main(["propagate", "--packet", str(packet), "--format", "json"]) == 0
    assert calls == {"_packet_window": 1, "rotation_grids": 1}
    summary = json.loads(capsys.readouterr().out)
    spec = WavePacketSpec("sinc", (0.4, 0.3, 0.0), (8, 8, 8), 2)
    assert summary["predicted_packet_velocity"] == list(
        predicted_packet_velocity(Lattice(16), spec))


@pytest.mark.parametrize("n, spec", [
    (64, WavePacketSpec("gaussian", (0.4 / np.sqrt(3.0),) * 3, (21, 50, 3),
                        np.pi / 16)),
    (32, WavePacketSpec("gaussian", (0.3, -0.2, 0.5), (5, 9, 20), np.pi / 8,
                        helicity=1)),
])
def test_measurement_carries_the_packet_prediction(n, spec):
    lat = Lattice(n)
    measured = measure_group_velocity(lat, spec, 4).predicted
    assert measured.tobytes() == predicted_packet_velocity(lat, spec).tobytes()


def sparse_state(lat, basis):
    """A state on a few modes of both blocks, so its window is not the lattice."""
    amp = np.zeros((lat.n,) * 3 + (6,), dtype=complex)
    rng = np.random.default_rng(11)
    amp[1:4, 2:4, 0:3] = rng.standard_normal((3, 2, 3, 6)) * (1 + 1j)
    st = LatticeState(lat, "momentum", amp / np.linalg.norm(amp))
    return to_position(st) if basis == "position" else st


@pytest.mark.parametrize("basis", ["momentum", "position"])
@pytest.mark.parametrize("sparse", [False, True])
def test_general_state_split_never_writes_to_its_input(basis, sparse):
    # the split writes each block's perpendicular part over the amplitudes
    # it is given, so every caller must hand it a copy
    lat = Lattice(8)
    st = (sparse_state(lat, basis) if sparse else LatticeState(
        lat, basis, random_state(lat, np.random.default_rng(5)).amplitudes))
    before = st.amplitudes.copy()
    evolve_spectral(st, 3)
    project_to_branch(st, 0)
    project_to_branch(st, 1)
    predicted_state_velocity(st)
    assert st.amplitudes.tobytes() == before.tobytes()


def test_list_valued_spec_is_hashable_and_matches_tuples():
    lat = Lattice(16)
    listed = WavePacketSpec("sinc", [0.4, 0.3, 0.0], [8, 8, 8], 2)
    tupled = WavePacketSpec("sinc", (0.4, 0.3, 0.0), (8, 8, 8), 2)
    assert listed.k0 == (0.4, 0.3, 0.0) and listed.x0 == (8, 8, 8)
    assert hash(listed) == hash(tupled)
    a = measure_group_velocity(lat, listed, steps=4)
    b = measure_group_velocity(lat, tupled, steps=4)
    np.testing.assert_array_equal(a.trajectory.positions,
                                  b.trajectory.positions)
    np.testing.assert_array_equal(predicted_packet_velocity(lat, listed),
                                  predicted_packet_velocity(lat, tupled))


def test_interleaved_specs_predict_as_fresh_packets():
    lat = Lattice(16)
    specs = (WavePacketSpec("sinc", (0.4, 0.3, 0.0), (8, 8, 8), 2),
             WavePacketSpec("sinc", (-0.8, 0.4, 1.2), (4, 9, 12), 2,
                            helicity=1))
    predicted = [predicted_state_velocity(make_wavepacket(lat, s)) for s in specs]
    measured = []
    for spec in specs:
        measured.append(measure_group_velocity(lat, spec, steps=2).velocity)
    for i in (0, 1, 1, 0, 1, 0):
        got = measure_group_velocity(lat, specs[i], steps=2).velocity
        assert got == measured[i]
        np.testing.assert_array_equal(
            predicted_packet_velocity(lat, specs[i]), predicted[i])


# ------------------------------------------------------ occupied blocks

@pytest.mark.parametrize("helicity", [0, 1])
@pytest.mark.parametrize("kind, width", [("sinc", 2), ("gaussian", np.pi / 8)])
def test_packet_split_holds_only_the_packet_block(kind, width, helicity):
    lat = Lattice(32)
    spec = WavePacketSpec(kind, (0.4, 0.3, -0.2), (8, 8, 8), width,
                          helicity=helicity)
    offset = BRANCHES[helicity][1]
    window, block = _packet_window(lat, spec)
    assert block.shape == tuple(map(len, window)) + (3,)
    amp = make_wavepacket(lat, spec).amplitudes
    assert not np.delete(amp, np.s_[offset:offset + 3], axis=-1).any()
    _, parts = _packet_parts(lat, spec)
    assert [part[0][1] for part in parts] == [offset]


@pytest.mark.parametrize("helicity", [1.0, True, np.int64(1)])
def test_an_integral_helicity_acts_as_the_int(helicity):
    # 1.0 passed the spec's check and then raised TypeError at BRANCHES[1.0]
    lat = Lattice(16)
    spec, reference = (WavePacketSpec("sinc", (0.4, 0.3, -0.2), (8, 8, 8), 2,
                                      helicity=h) for h in (helicity, 1))
    assert type(spec.helicity) is int and spec == reference
    runs = []
    for s in (spec, reference):
        packet = make_wavepacket(lat, s)
        trajectory = measure_group_velocity(lat, s, 4).trajectory
        runs.append((packet.amplitudes, trajectory.positions, trajectory.spreads,
                     project_to_branch(packet, s.helicity).amplitudes,
                     project_to_branch(packet, helicity).amplitudes))
    for got, expected in zip(*runs):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("empty", [0, 3])
def test_spectral_evolution_keeps_an_empty_block_exactly_zero(empty):
    lat = Lattice(8)
    amp = random_state(lat, np.random.default_rng(6)).amplitudes
    amp[..., empty:empty + 3] = 0.0
    st = LatticeState(lat, "momentum", amp / np.linalg.norm(amp))
    a = evolve_spectral(st, 5).amplitudes
    assert not a[..., empty:empty + 3].any()
    b = evolve_direct(st, 5).amplitudes
    assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("basis", ["momentum", "position"])
def test_project_to_branch_onto_an_empty_block_raises(basis):
    lat = Lattice(8)
    amp = random_state(lat, np.random.default_rng(7)).amplitudes
    amp[..., 0:3] = 0.0  # the mirror block, helicity 1
    st = LatticeState(lat, basis, amp / np.linalg.norm(amp))
    assert project_to_branch(st, helicity=0).norm() == pytest.approx(1.0)
    with pytest.raises(PacketSpecError,
                       match="^state has no overlap with the forward eigenspace$"):
        project_to_branch(st, helicity=1)


def test_gaussian_packet_split_holds_one_block():
    # one block's axial, perpendicular and turned parts, (n^3, 3) complex
    # each, plus its angle and degeneracy mask; the empty block adds nothing
    n = 32
    lat = Lattice(n)
    spec = WavePacketSpec("gaussian", (0.4, 0.3, -0.2), (8, 8, 8), np.pi / 8)
    tracemalloc.start()
    try:
        split = _packet_parts(lat, spec)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del split
    assert held <= 3 * n**3 * 3 * 16 + n**3 * (8 + 1) + (64 << 10)


# ------------------------------------------------------ support windows

def full_lattice_trajectory(lat, spec, sample_steps, packet=None):
    """Positions, spreads and norms of the full-lattice packet (`packet`
    when given, else make_wavepacket), evolved by evolve_spectral and read
    from its position-space site marginals: each axis's circular mean and
    spread from one phasor sum z."""
    n = lat.n
    packet = make_wavepacket(lat, spec) if packet is None else packet
    phasor = np.exp(2j * np.pi * np.arange(n) / n)
    positions, spreads, norms = [], [], []
    for t in sample_steps:
        state = to_position(evolve_spectral(packet, t))
        p = np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
        z = np.array([np.sum(p.sum(axis=tuple({0, 1, 2} - {a})) * phasor)
                      for a in range(3)]) / p.sum()
        positions.append(np.angle(z) * n / (2 * np.pi) % n)
        spreads.append(n / (2 * np.pi) * np.sqrt(-2 * np.log(np.abs(z))))
        norms.append(np.sqrt(p.sum()))
    return np.array(positions), np.array(spreads), np.array(norms)


def resultants(spreads, n):
    """The circular resultants exp(-(2 pi s/n)^2 / 2) the spreads s were
    read from.  The log in a spread amplifies the resultant's rounding
    about 50-fold for packets a few sites wide (1.05e-12 in s for one cut
    Gaussian at n = 64), so trajectories compare resultants, not spreads."""
    return np.exp(-(2 * np.pi * np.asarray(spreads) / n) ** 2 / 2)


@functools.cache
def full_lattice_branches(n):
    """Per branch, over every mode of the n^3 lattice: the forward minus
    backward projector, the branch velocity and the nondegenerate-mode
    mask.  They depend on n alone, so each n builds them once, read-only."""
    grids = Lattice(n).mode_grids()
    projectors = branch_projector_grids(*grids)
    branches = []
    for (name, _, _), sign in zip(BRANCHES, (1.0, -1.0)):
        g = projectors[name]
        # the mirror velocity at kappa is minus the primary one at -kappa
        v = sign * np.stack(velocity_grid(*(sign * k for k in grids))[:3], -1)
        usable = ~(g["degenerate"] | np.isnan(v).any(axis=-1))
        arrays = (g["forward"] - g["backward"], v, usable)
        for array in arrays:
            array.flags.writeable = False
        branches.append(arrays)
    return tuple(branches)


def full_lattice_prediction(state):
    """Forward minus backward weight times branch velocity, summed over
    every nondegenerate mode of the full lattice."""
    total = np.zeros(3)
    for (_, offset, _), (split, v, usable) in zip(
            BRANCHES, full_lattice_branches(state.lattice.n)):
        a = state.amplitudes[..., offset:offset + 3]
        w = np.einsum("...i,...ij,...j->...", a.conj(), split, a).real
        total += np.sum(np.where(usable[..., None], w[..., None] * v, 0.0),
                        axis=(0, 1, 2))
    return total


@st.composite
def sinc_packets(draw):
    """Sinc packets whose centre modes include 0 and +-pi, so that windows
    wrap across index n-1 -> 0 or across the zone edge."""
    n = draw(st.sampled_from([16, 32]))  # n = 8 admits no sinc cube
    width = draw(st.sampled_from([w for w in (2, 4, 6) if w + 1 <= n / 4]))
    edge = st.sampled_from([0, 1, -1, n // 2, n // 2 - 1, 1 - n // 2])
    modes = [draw(st.one_of(edge, st.integers(1 - n // 2, n // 2)))
             for _ in range(3)]
    spec = WavePacketSpec(
        "sinc", tuple(2 * np.pi * m / n for m in modes),
        tuple(draw(st.integers(0, n - 1)) for _ in range(3)), width,
        helicity=draw(st.integers(0, 1)))
    return Lattice(n), spec, draw(st.integers(1, 3)), draw(st.integers(1, 4))


@settings(max_examples=20, deadline=None)
@given(case=sinc_packets())
@example(case=(Lattice(32), WavePacketSpec(
    "sinc", (np.pi, -np.pi, 2 * np.pi / 32), (0, 31, 7), 6, helicity=1), 3, 2))
def test_property_windowed_packet_matches_full_lattice(case):
    lat, spec, sample_every, intervals = case
    try:
        packet = make_wavepacket(lat, spec)
    except DegenerateSpectrumError:
        assume(False)  # k0 has no forward mode
    mv = measure_group_velocity(lat, spec, sample_every * intervals,
                                sample_every)
    positions, spreads, norms = full_lattice_trajectory(
        lat, spec, mv.trajectory.steps)
    n = lat.n
    offset = (mv.trajectory.positions - positions + n / 2) % n - n / 2
    assert np.max(np.abs(offset)) <= 1e-12
    np.testing.assert_allclose(resultants(mv.trajectory.spreads, n),
                               resultants(spreads, n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mv.trajectory.norms, norms, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mv.predicted, full_lattice_prediction(packet),
                               rtol=0, atol=1e-12)
    # the cube of width + 1 modes per axis and one halo mode
    assert _packet_window(lat, spec)[1].shape == (spec.width + 2,) * 3 + (3,)


def test_gaussian_packet_window_is_the_whole_lattice():
    lat = Lattice(32)
    spec = WavePacketSpec("gaussian", (0.4, 0.3, -0.2), (8, 8, 8), np.pi / 8)
    window, block = _packet_window(lat, spec)
    for axis in window:
        np.testing.assert_array_equal(axis, np.arange(32))
    offset = BRANCHES[spec.helicity][1]
    np.testing.assert_array_equal(
        block, make_wavepacket(lat, spec).amplitudes[..., offset:offset + 3])


def test_sparse_packet_memory_does_not_grow_with_the_lattice():
    # any n^3 array at n = 1024 takes gigabytes; the address-space cap makes
    # allocating one fail at once instead of filling the host's memory
    resource = pytest.importorskip("resource")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4 << 30 if limits[1] == resource.RLIM_INFINITY else min(4 << 30, limits[1])
    lat = Lattice(1024)
    spec = WavePacketSpec("sinc", (0.4, 0.0, 0.0), (512, 512, 512), 2)
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    tracemalloc.start()
    try:
        mv = measure_group_velocity(lat, spec, steps=60, sample_every=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert peak < 1 << 20
    assert np.max(np.abs(mv.velocity.as_array() - mv.predicted)) <= 0.02


def test_prediction_excludes_modes_at_exactly_pi():
    # both block angles at kappa = (0, 2 pi/16, pi) are exactly pi, where
    # the branch velocity divides by a vanishing sine
    lat = Lattice(16)
    amp = np.zeros((16, 16, 16, 6), dtype=complex)
    amp[0, 1, 8] = np.array([1, 1j]) @ np.random.default_rng(3).standard_normal((2, 6))
    amp /= np.linalg.norm(amp)
    np.testing.assert_array_equal(
        predicted_state_velocity(LatticeState(lat, "momentum", amp)), 0.0)


# ------------------------------------------------------ Gaussian amplitude cut

def uncut_gaussian(lat, spec):
    """The Gaussian packet on every mode with no amplitude cut: one joint
    exp over the squared momentum offsets, wrapped to the nearest image."""
    grids = lat.mode_grids()
    k0 = ReducedMomentum.wrap(*spec.k0)
    d2 = sum(((g - c + np.pi) % (2.0 * np.pi) - np.pi) ** 2
             for g, c in zip(grids, k0.as_array()))
    plane = np.exp(-1j * sum(g * x for g, x in zip(grids, spec.x0)))
    u = positive_energy_vector(k0, spec.helicity)
    amp = (np.exp(-d2 / (4.0 * spec.width**2)) * plane)[..., None] * u
    return LatticeState(lat, "momentum", amp / np.linalg.norm(amp))


BENCHMARK_PACKET = WavePacketSpec(
    "gaussian", (0.4 / np.sqrt(3.0),) * 3, (21, 50, 3), np.pi / 16)


@st.composite
def cut_gaussian_packets(draw):
    """Gaussian packets at n = 64 whose centre components include 0 and the
    zone edge, so that the cut box wraps across index n-1 -> 0 or n/2."""
    edge = st.sampled_from([0.0, np.pi, -np.pi, np.pi - 0.05])
    return WavePacketSpec(
        "gaussian", tuple(draw(st.one_of(edge, st.floats(-np.pi, np.pi)))
                          for _ in range(3)),
        tuple(draw(st.integers(0, 63)) for _ in range(3)),
        draw(st.one_of(st.just(np.pi / 16), st.floats(np.pi / 16, np.pi / 8))),
        helicity=draw(st.integers(0, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=2, deadline=None)
@given(spec=cut_gaussian_packets())
@example(spec=BENCHMARK_PACKET)
@example(spec=WavePacketSpec("gaussian", (np.pi, 0.0, np.pi - 0.05), (0, 0, 0),
                             np.pi / 16))
@example(spec=WavePacketSpec("gaussian", (np.pi, 0.3, -np.pi), (63, 0, 31),
                             np.pi / 16, helicity=1))
def test_property_cut_gaussian_matches_the_uncut_packet(spec):
    lat = Lattice(64)
    try:
        uncut = uncut_gaussian(lat, spec)
        mv = measure_group_velocity(lat, spec, 6, 3)
    except DegenerateSpectrumError:
        assume(False)  # k0 has no forward mode
    positions, spreads, norms = full_lattice_trajectory(
        lat, spec, mv.trajectory.steps, uncut)
    offset = (mv.trajectory.positions - positions + 32) % 64 - 32
    assert np.max(np.abs(offset)) <= 1e-12
    np.testing.assert_allclose(resultants(mv.trajectory.spreads, 64),
                               resultants(spreads, 64), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mv.trajectory.norms, norms, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mv.predicted, full_lattice_prediction(uncut),
                               rtol=0, atol=1e-12)


def test_benchmark_gaussian_window_and_dropped_probability():
    lat = Lattice(64)
    window, _ = _packet_window(lat, BENCHMARK_PACKET)
    assert [len(w) for w in window] == [49, 49, 49]
    uncut = uncut_gaussian(lat, BENCHMARK_PACKET).amplitudes
    cut = make_wavepacket(lat, BENCHMARK_PACKET).amplitudes
    dropped = np.sum(np.abs(uncut[~np.any(cut != 0, axis=-1)]) ** 2)
    assert 0 < dropped < 1e-27


def test_narrowest_gaussian_window_does_not_grow_with_the_lattice():
    # sigma = 4 pi/n spans the same number of modes at every n; only the
    # per-axis factors are built, so no array over the lattice exists
    lengths = []
    tracemalloc.start()
    try:
        for n in (64, 128, 512):
            spec = WavePacketSpec("gaussian", (2 * np.pi * 3 / 64, 0.0, -np.pi / 2),
                                  (0, 0, 0), 4 * np.pi / n)
            lengths.append([len(w) for w in _packet_support(Lattice(n), spec)[1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths == [[50, 50, 50]] * 3  # 49 modes with amplitude and a halo
    assert peak < 1 << 16


# ------------------------------------------------------------ memory budget

@pytest.mark.parametrize("soft, budget", [
    (1 << 20, 1 << 20), (1 << 30, 3000 * 4096), (None, 3000 * 4096)])
def test_memory_budget_is_the_smaller_of_the_limit_and_free_memory(
        monkeypatch, soft, budget):
    resource = pytest.importorskip("resource")
    if "SC_AVPHYS_PAGES" not in os.sysconf_names:
        pytest.skip("no free-page count on this platform")
    pages = {"SC_AVPHYS_PAGES": 3000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    soft = resource.RLIM_INFINITY if soft is None else soft
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (soft, resource.RLIM_INFINITY))
    assert _memory_budget() == budget


@pytest.mark.parametrize("n, spec, samples", [
    (32, WavePacketSpec("gaussian", (0.4, 0.3, -0.2), (8, 8, 8), np.pi / 8), 41),
    (64, BENCHMARK_PACKET, 17),
    (16, WavePacketSpec("sinc", (0.4, 0.0, 0.0), (8, 8, 8), 2), 1001),
])
def test_memory_estimate_covers_the_measured_peak(n, spec, samples):
    lat = Lattice(n)
    window, _ = _packet_window(lat, spec)
    estimate = (np.prod([len(w) for w in window]) * _BYTES_PER_WINDOW_MODE
                + samples * _BYTES_PER_SAMPLE)
    tracemalloc.start()
    try:
        measure_group_velocity(lat, spec, samples - 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate


def test_benchmark_packet_peaks_under_256_bytes_per_window_mode():
    # the packet is built as its one block, split in place and sampled into
    # one buffer
    lat = Lattice(64)
    window, _ = _packet_window(lat, BENCHMARK_PACKET)
    modes = np.prod([len(w) for w in window])
    tracemalloc.start()
    try:
        measure_group_velocity(lat, BENCHMARK_PACKET, 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * modes + 17 * _BYTES_PER_SAMPLE


def test_over_budget_packet_is_refused_before_allocating(monkeypatch):
    # the sigma = pi/16 packet at n = 512 spans about 390 modes per axis
    monkeypatch.setattr(budget, "_memory_budget", lambda: 1 << 30)
    spec = WavePacketSpec("gaussian", (0.4, 0.0, 0.0), (0, 0, 0), np.pi / 16)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError,
                           match="^a packet window of 389 x 390 x 390 modes "
                                 "would need about 2.*GiB, over the 1 GiB"):
            measure_group_velocity(Lattice(512), spec, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_over_budget_sample_count_is_refused_before_the_packet(monkeypatch):
    monkeypatch.setattr(budget, "_memory_budget", lambda: 1 << 30)
    monkeypatch.setattr(lattice_module, "_packet_window", None)  # never reached
    spec = WavePacketSpec("sinc", (0.4, 0.0, 0.0), (0, 0, 0), 2)
    with pytest.raises(MemoryBudgetError,
                       match="^50000000001 trajectory samples would need"):
        measure_group_velocity(Lattice(64), spec, 10**12, 20)
