"""Lattice states, wave packets, evolution routes, centroid tracking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk.errors import (
    BasisMismatchError,
    PacketSpecError,
    UndefinedCentroidError,
)
from bosonwalk.kernel import (
    ReducedMomentum,
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
from bosonwalk.lattice import _shifted_overlaps


def delta_state(lattice, site, component=0):
    amp = np.zeros((lattice.n,) * 3 + (6,), dtype=complex)
    amp[site + (component,)] = 1.0
    return LatticeState(lattice, "position", amp)


# ------------------------------------------------------------ construction

def test_lattice_rejects_odd_or_tiny_sizes():
    for bad in (3, 2, 7, 0, -4):
        with pytest.raises(ValueError):
            Lattice(bad)
    assert Lattice(4).sites == 64


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


def test_per_mode_packet_is_exact_eigenmode_mixture():
    lat = Lattice(32)
    spec = WavePacketSpec("gaussian", (0.5, 0.3, -0.4), (16, 16, 16), np.pi / 8,
                          per_mode_internal=True)
    pk = make_wavepacket(lat, spec)
    ev = evolve_spectral(pk, 1)
    ph = phase_grid(*lat.mode_grids())
    expected = np.exp(-1j * ph)[..., None] * pk.amplitudes
    np.testing.assert_allclose(ev.amplitudes, expected, atol=1e-12)


def test_project_to_branch_yields_eigenmode_mixture():
    lat = Lattice(16)
    st = random_state(lat, np.random.default_rng(3), basis="momentum")
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
    amp = random_state(lat, rng, basis="momentum").amplitudes
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


def test_exact_drift_law_for_branch_projected_packet():
    # an exact forward-eigenmode mixture drifts linearly at the
    # mode-weighted group velocity; verify against a recentred plain mean,
    # which is free of the circular estimator's wrap bias over short times
    lat = Lattice(64)
    spec = WavePacketSpec("gaussian", (0.4, 0.3, -0.2), (32, 32, 32), np.pi / 16)
    st = project_to_branch(make_wavepacket(lat, spec))
    pred = predicted_state_velocity(st)

    def linear_mean(state):
        p = np.sum(np.abs(state.amplitudes) ** 2, axis=-1)
        p /= p.sum()
        c = centroid(state)
        out = np.empty(3)
        for ax in range(3):
            marg = p.sum(axis=tuple(a for a in range(3) if a != ax))
            shifted = (np.arange(64) - c[ax] + 32) % 64 - 32
            out[ax] = c[ax] + np.sum(marg * shifted)
        return out

    m0 = linear_mean(to_position(st))
    m8 = linear_mean(to_position(evolve_spectral(st, 8)))
    np.testing.assert_allclose((m8 - m0) / 8, pred, atol=5e-4)


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
