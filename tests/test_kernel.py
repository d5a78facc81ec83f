"""Momentum-space step operator: spectrum, projectors, velocities, series."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bosonwalk.algebra import Axis, build_gamma
from bosonwalk.errors import (
    ArgumentOutOfRangeError,
    DegenerateSpectrumError,
    SeriesOutOfRangeError,
    ZeroMomentumError,
)
from bosonwalk.kernel import (
    BRANCHES,
    ReducedMomentum,
    branch_projector_grids,
    forward_vector_grids,
    group_velocity_analytic,
    group_velocity_numeric,
    kernel_closed_form,
    kernel_exponential,
    kernel_grid,
    mirror_phase,
    mirror_phase_grid,
    phase,
    phase_expansion_check,
    phase_grid,
    positive_energy_vector,
    rotation_grids,
    speed_deviation_series,
    surface_table,
    velocity_grid,
)
from bosonwalk.lattice import Lattice, snap_to_grid


def random_momenta(count, rng, margin=0.15):
    """Momenta kept away from the degenerate shells for stable spectra, as
    rows of a (count, 3) array."""
    out = []
    while len(out) < count:
        k = ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, size=3))
        phases = (phase(k), mirror_phase(k))
        # both branch phases clear of 0 and pi, where eigenvalues collide
        if min(min(p, np.pi - p) for p in phases) > margin:
            out.append(k.as_array())
    return np.array(out)


# ---------------------------------------------------------------- wrapping

def test_wrap_into_half_open_zone():
    k = ReducedMomentum.wrap(3 * np.pi, -np.pi, np.pi / 3)
    assert np.isclose(k.kx, np.pi)       # odd multiples land on +pi
    assert np.isclose(k.ky, np.pi)       # -pi wraps to the +pi edge
    assert np.isclose(k.kz, np.pi / 3)
    for v in (k.kx, k.ky, k.kz):
        assert -np.pi < v <= np.pi


def test_wrap_is_periodic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y, z = rng.uniform(-10, 10, size=3)
        a = ReducedMomentum.wrap(x, y, z)
        b = ReducedMomentum.wrap(x + 2 * np.pi, y - 4 * np.pi, z + 6 * np.pi)
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-12)


# ------------------------------------------------------- kernel construction

def test_closed_form_matches_exponential_on_grid():
    vals = np.linspace(-np.pi, np.pi, 13)
    worst = 0.0
    for kx in vals:
        for ky in vals:
            for kz in vals:
                k = ReducedMomentum.wrap(kx, ky, kz)
                d = np.max(np.abs(kernel_closed_form(k) - kernel_exponential(k)))
                worst = max(worst, d)
    assert worst <= 1e-12


def test_closed_form_matches_scipy_expm():
    rng = np.random.default_rng(11)
    gammas = [build_gamma(a) for a in Axis]
    for _ in range(50):
        k = rng.uniform(-np.pi, np.pi, size=3)
        u = np.eye(6, dtype=complex)
        for g, comp in zip(gammas, k):
            u = u @ scipy.linalg.expm(-1j * comp * g)
        np.testing.assert_allclose(
            kernel_closed_form(ReducedMomentum.wrap(*k)), u, atol=1e-13)


def test_kernel_is_unitary():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = kernel_closed_form(ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, 3)))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-13)


def test_kernel_block_diagonal():
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = kernel_closed_form(ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, 3)))
        np.testing.assert_allclose(u[:3, 3:], 0, atol=1e-15)
        np.testing.assert_allclose(u[3:, :3], 0, atol=1e-15)
        # each block is a real rotation
        for block in (u[:3, :3], u[3:, 3:]):
            np.testing.assert_allclose(block.imag, 0, atol=1e-15)
            np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-13)
            assert np.isclose(np.linalg.det(block.real), 1.0)


def test_kernel_at_pi_axis_is_diagonal():
    u = kernel_closed_form(ReducedMomentum.wrap(np.pi, 0.0, 0.0))
    np.testing.assert_allclose(u, np.diag([1, -1, -1, 1, -1, -1]), atol=1e-15)


# ------------------------------------------------------------------ phases

def test_phase_examples():
    assert np.isclose(phase(ReducedMomentum.wrap(np.pi / 2, np.pi / 2, np.pi / 2)),
                      np.pi / 2, atol=1e-14)
    assert np.isclose(phase(ReducedMomentum.wrap(np.pi, np.pi, np.pi)), 0.0,
                      atol=1e-14)


def test_axis_phase_is_exact_momentum():
    for mag in np.linspace(0.05, 3.0, 17):
        for axis in range(3):
            comps = [0.0, 0.0, 0.0]
            comps[axis] = mag
            assert np.isclose(phase(ReducedMomentum.wrap(*comps)), mag, atol=1e-13)


def test_integer_momenta_past_int64_are_numbers():
    # an int too large for int64 makes an object array; it is read as a float
    k = (10**20, 0, 0)
    assert phase(k) == phase((1e20, 0.0, 0.0))
    assert ReducedMomentum.wrap(*k) == ReducedMomentum.wrap(1e20, 0.0, 0.0)
    assert snap_to_grid(k, 16) == snap_to_grid((1e20, 0.0, 0.0), 16)


def test_phase_within_arccos_range():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = phase(ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, 3)))
        assert 0.0 <= p <= np.pi
    # unwrapped momenta: huge, +-pi and subnormal components, with up to
    # two of them zero (on an axis out past pi the angle wraps)
    special = [np.pi, -np.pi, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300]
    points = [[a, b, c] for a in special for b in special for c in special]
    points += [[0.0, b, c] for b in special for c in special]
    points += [np.roll([c, 0.0, 0.0], axis) for axis in range(3)
               for c in special + [4.0, -3.5, np.pi + 1e-9, 1.7e308]]
    magnitudes = 10.0 ** rng.uniform(-320, 300, size=(3000, 3))
    points += list(rng.choice([-1.0, 1.0], size=(3000, 3)) * magnitudes)
    for k in points:
        for p in (phase(k), mirror_phase(k)):
            assert 0.0 <= p <= np.pi, k


def test_mirror_phase_is_phase_of_negated_momentum():
    rng = np.random.default_rng(9)
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi, 3)
        a = mirror_phase(ReducedMomentum.wrap(*k))
        b = phase(ReducedMomentum.wrap(*(-k)))
        assert np.isclose(a, b, atol=1e-13)


def test_phases_coincide_when_any_component_vanishes():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = rng.uniform(-np.pi, np.pi, 3)
        k[rng.integers(3)] = 0.0
        rm = ReducedMomentum.wrap(*k)
        assert np.isclose(phase(rm), mirror_phase(rm), atol=1e-13)


# ---------------------------------------------------------------- spectrum

def _phases(k):
    """(phase, mirror_phase) at momenta k of shape (..., 3), by the grid forms."""
    return phase_grid(*k.T), mirror_phase_grid(*k.T)


def _splitting(k):
    """|e^{-i phase} - e^{-i mirror_phase}|: how far the forward branches part."""
    phi, mirror = _phases(k)
    return np.abs(np.exp(-1j * phi) - np.exp(-1j * mirror))


def _rebuild(k, phases):
    """U at momenta k (count, 3) rebuilt from both branches' projector grids,
    each branch turning by its entry of phases."""
    grids = branch_projector_grids(*k.T)
    rebuilt = np.zeros((len(k), 6, 6), dtype=complex)
    for (name, offset, _), phi in zip(BRANCHES, phases):
        lam, g = np.exp(-1j * phi)[:, None, None], grids[name]
        rebuilt[:, offset:offset + 3, offset:offset + 3] = (
            lam * g["forward"] + g["axis"] + np.conj(lam) * g["backward"])
    return rebuilt


def _single_phase_rebuild(k):
    """U(k) rebuilt from both branches' projectors with the primary phase alone."""
    phi = phase_grid(*k.T)
    return _rebuild(k, (phi, phi))


def _by_angle(eigenvalues):
    return np.take_along_axis(
        eigenvalues, np.argsort(np.angle(eigenvalues), axis=-1), axis=-1)


def test_eigenvalue_multiset_against_general_solver():
    # {e^{-+i phase}, e^{-+i mirror_phase}, 1, 1}
    k = random_momenta(100, np.random.default_rng(12))
    phi, mirror = _phases(k)
    zero = np.zeros_like(phi)
    ours = np.exp(-1j * np.stack([phi, mirror, zero, zero, -mirror, -phi], axis=-1))
    reference = np.linalg.eigvals(kernel_grid(*k.T))
    np.testing.assert_allclose(_by_angle(ours), _by_angle(reference), atol=1e-10)


def test_branch_phases_split_at_generic_momentum():
    # the two 3x3 blocks carry different phases unless a momentum
    # component sits at 0 or pi; the splitting is cubic in |kappa|
    splitting = _splitting(np.array([0.9, 0.8, 0.7]))
    assert splitting > 1e-3
    ratio = splitting / _splitting(np.array([0.09, 0.08, 0.07]))
    assert ratio > 100  # roughly (10)^3


def test_branch_eigen_equations():
    k = random_momenta(40, np.random.default_rng(14))
    u, grids = kernel_grid(*k.T), branch_projector_grids(*k.T)
    for (name, offset, _), phi in zip(BRANCHES, _phases(k)):
        block = u[:, offset:offset + 3, offset:offset + 3]
        lam, g = np.exp(-1j * phi)[:, None, None], grids[name]
        for key, eigenvalue in (("forward", lam), ("axis", 1.0),
                                ("backward", np.conj(lam))):
            np.testing.assert_allclose(block @ g[key], eigenvalue * g[key],
                                       atol=1e-12)


def test_branch_projectors_resolve_identity():
    k = random_momenta(40, np.random.default_rng(15))
    for g in branch_projector_grids(*k.T).values():
        total = g["forward"] + g["axis"] + g["backward"]
        np.testing.assert_allclose(total - np.eye(3), 0.0, atol=1e-11)
        for p in (g["forward"], g["axis"], g["backward"]):
            np.testing.assert_allclose(p @ p, p, atol=1e-11)


def test_aggregated_projectors_and_reconstruction():
    # each branch projector has rank 1, so forward, stationary and backward
    # each span two modes of U; one phase for both misses U by at most the
    # splitting
    k = random_momenta(30, np.random.default_rng(16))
    for g in branch_projector_grids(*k.T).values():
        for p in (g["forward"], g["axis"], g["backward"]):
            np.testing.assert_allclose(np.trace(p, axis1=-2, axis2=-1).real, 1.0,
                                       atol=1e-11)
    resid = np.max(np.abs(kernel_grid(*k.T) - _single_phase_rebuild(k)), axis=(-2, -1))
    assert np.all(resid <= _splitting(k) + 1e-11)


def test_reconstruction_exact_with_both_branch_phases():
    k = random_momenta(30, np.random.default_rng(17))
    np.testing.assert_allclose(_rebuild(k, _phases(k)), kernel_grid(*k.T), atol=1e-11)


def test_reconstruction_residual_vanishes_without_splitting():
    k = np.array([[0.7, 0.0, 0.4]])
    assert _splitting(k) <= 1e-14
    np.testing.assert_allclose(_single_phase_rebuild(k), kernel_grid(*k.T),
                               rtol=0, atol=1e-12)


def test_positive_energy_vector_is_eigenvector():
    rng = np.random.default_rng(18)
    for k in random_momenta(40, rng):
        u = kernel_closed_form(k)
        for helicity, expected_phase in ((0, phase(k)), (1, mirror_phase(k))):
            v = positive_energy_vector(k, helicity)
            assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-12)
            np.testing.assert_allclose(u @ v, np.exp(-1j * expected_phase) * v,
                                       atol=1e-11)
            lead = v[np.argmax(np.abs(v) > 1e-9)]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_helicity_vectors_occupy_disjoint_blocks():
    k = ReducedMomentum.wrap(0.5, -0.8, 1.1)
    v0 = positive_energy_vector(k, 0)
    v1 = positive_energy_vector(k, 1)
    np.testing.assert_allclose(v0[:3], 0, atol=1e-15)
    np.testing.assert_allclose(v1[3:], 0, atol=1e-15)
    assert np.isclose(abs(np.vdot(v0, v1)), 0.0, atol=1e-15)


def test_degenerate_momentum_raises():
    with pytest.raises(DegenerateSpectrumError):
        positive_energy_vector(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateSpectrumError):
        group_velocity_analytic(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    # the arccos angles are tested first, so a refusal they make keeps
    # its wording
    with pytest.raises(DegenerateSpectrumError, match="^phase = 0.0 is within"):
        positive_energy_vector(ReducedMomentum.wrap(np.pi, np.pi, np.pi))
    # the block angle is exactly pi here, but the arccos form reads
    # 3.1415926325, 2e-8 short of it: only the quaternion angle fires
    k = ReducedMomentum.wrap(np.pi, 0.0, np.pi - 0.05)
    assert math.pi - phase(k) > 1e-8
    with pytest.raises(DegenerateSpectrumError, match=(
            r"^phase \(block angle\) = 3.141592653589793 is within")):
        positive_energy_vector(k)
    with pytest.raises(DegenerateSpectrumError,
                       match=r"^mirror phase \(block angle\) = "):
        positive_energy_vector(k, 1)


# ------------------------------------------------------------- velocities

def test_analytic_velocity_matches_finite_differences():
    rng = np.random.default_rng(19)
    for k in random_momenta(200, rng):
        va = group_velocity_analytic(k).as_array()
        vn = group_velocity_numeric(k).as_array()
        assert np.max(np.abs(va - vn)) / max(np.max(np.abs(va)), 1e-3) <= 1e-7


# a component of either sign whose magnitude is log-uniform in [1e-3, 1e308],
# or in [1e-3, 1e9], where the floats are dense enough for some answers
wide_components = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((1.0, -1.0)),
    st.one_of(st.floats(-3.0, 308.0), st.floats(-3.0, 9.0)))


@settings(max_examples=300, deadline=None)
@example(kappa=(1e9, 0.1, 0.2))
@example(kappa=(2.0**30, 0.1, 0.2))
@given(kappa=st.tuples(wide_components, wide_components, wide_components))
def test_property_numeric_velocity_agrees_or_is_refused_over_the_float_range(kappa):
    # the phase is smooth only away from the cone tips at 0 and pi
    assume(min(min(p, np.pi - p) for p in (phase(kappa), mirror_phase(kappa))) >= 0.2)
    va = group_velocity_analytic(kappa).as_array()
    try:
        vn = group_velocity_numeric(kappa).as_array()
    except ArgumentOutOfRangeError as exc:
        assert "is too large for a difference step of 1e-06" in str(exc)
        assert max(map(abs, kappa)) > 1e6  # the floats near kappa are sparse
        return
    assert np.max(np.abs(va - vn)) <= 1e-6 * max(np.max(np.abs(va)), 1e-3)


def test_axis_velocity_is_exactly_light_speed():
    mags = np.linspace(1e-3, np.pi - 1e-3, 50)
    for axis in range(3):
        for mag in mags:
            comps = [0.0, 0.0, 0.0]
            comps[axis] = mag
            v = group_velocity_analytic(ReducedMomentum.wrap(*comps))
            assert abs(v.speed - 1.0) <= 1e-12
            expected = np.zeros(3)
            expected[axis] = 1.0
            np.testing.assert_allclose(v.as_array(), expected, atol=1e-12)


# ----------------------------------------------------------------- series

def test_phase_expansion_residual_scales_cubically():
    rng = np.random.default_rng(20)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    mags = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    residuals = [phase_expansion_check(ReducedMomentum.wrap(*(m * direction)))
                 for m in mags]
    for r1, r2 in zip(residuals, residuals[1:]):
        ratio = r1 / r2
        assert 8 / 1.5 <= ratio <= 8 * 1.5


def test_speed_deviation_series_accuracy():
    rng = np.random.default_rng(21)
    for _ in range(60):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        mag = rng.uniform(1e-3, 1e-2)
        k = ReducedMomentum.wrap(*(mag * direction))
        measured = group_velocity_analytic(k).speed - 1.0
        predicted = speed_deviation_series(k)
        assert abs(measured - predicted) <= 5 * mag**2


# a component of either sign whose magnitude is log-uniform over the floats
# below pi, subnormals included, or exactly zero
tiny_components = st.one_of(st.just(0.0), st.builds(
    lambda sign, exponent: sign * 2.0**exponent, st.sampled_from((1.0, -1.0)),
    st.floats(-1074.0, math.log2(math.pi), exclude_max=True)))


@settings(max_examples=300, deadline=None)
# kx ky kz or |kappa|^2 left the normal range: ZeroMomentumError, -0.0, 0.0
@example(kappa=(1e-200,) * 3)
@example(kappa=(1e-160,) * 3)
@example(kappa=(1e-160, 2e-160, -3e-160))
@given(kappa=st.tuples(tiny_components, tiny_components, tiny_components))
def test_property_speed_deviation_series_matches_an_exact_oracle(kappa):
    # -kx ky kz / |kappa|^2 in rationals, to 4 ulp (of 2^-1074 below the
    # normal range); only kappa = 0 is refused
    if not any(kappa):
        with pytest.raises(ZeroMomentumError):
            speed_deviation_series(kappa)
        return
    value = speed_deviation_series(kappa)
    kx, ky, kz = map(Fraction, kappa)
    exact = -(kx * ky * kz) / (kx * kx + ky * ky + kz * kz)
    assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact)))


@settings(max_examples=300, deadline=None)
# |kappa|^2 leaves the normal range: ZeroMomentumError before the rescaling
@example(kappa=(1e-200,) * 3)
@example(kappa=(0.0, 0.0, 1e-200))
@example(kappa=(0.0, 5e-324, 0.0))
@given(kappa=st.tuples(tiny_components, tiny_components, tiny_components))
def test_property_phase_expansion_check_refuses_only_zero(kappa):
    # only kappa = 0 is refused; where every square stays in the normal
    # range, the residual keeps the bits of the unscaled norm
    if not any(kappa):
        with pytest.raises(ZeroMomentumError):
            phase_expansion_check(kappa)
        return
    k = np.array(kappa)
    norm = math.sqrt(k @ k)
    if norm > 0.1:
        with pytest.raises(SeriesOutOfRangeError):
            phase_expansion_check(kappa)
        return
    value = phase_expansion_check(kappa)
    if all(c == 0.0 or c * c >= sys.float_info.min for c in kappa):
        assert value == abs(phase(k) - (norm - (k[0] * k[1] * k[2]) / (2.0 * norm)))
    else:
        assert 0.0 <= value < math.inf


def test_series_domain_errors():
    with pytest.raises(ZeroMomentumError):
        speed_deviation_series(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    with pytest.raises(ZeroMomentumError):
        phase_expansion_check(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    with pytest.raises(SeriesOutOfRangeError):
        phase_expansion_check(ReducedMomentum.wrap(0.2, 0.2, 0.2))


# ------------------------------------------------------------------ grids

def test_grid_functions_match_scalar():
    rng = np.random.default_rng(22)
    kx, ky, kz = rng.uniform(-np.pi, np.pi, size=(3, 4, 5))
    ph = phase_grid(kx, ky, kz)
    mph = mirror_phase_grid(kx, ky, kz)
    ker = kernel_grid(kx, ky, kz)
    vx, vy, vz, speed, degenerate = velocity_grid(kx, ky, kz)
    for i in range(4):
        for j in range(5):
            k = ReducedMomentum.wrap(kx[i, j], ky[i, j], kz[i, j])
            assert np.isclose(ph[i, j], phase(k), atol=1e-13)
            assert np.isclose(mph[i, j], mirror_phase(k), atol=1e-13)
            np.testing.assert_allclose(ker[i, j], kernel_closed_form(k), atol=1e-13)
            if not degenerate[i, j]:
                v = group_velocity_analytic(k)
                np.testing.assert_allclose([vx[i, j], vy[i, j], vz[i, j]],
                                           v.as_array(), atol=1e-12)
                assert np.isclose(speed[i, j], v.speed, atol=1e-12)


def test_branch_projector_grids_match_scalar():
    rng = np.random.default_rng(23)
    kx, ky, kz = rng.uniform(-np.pi + 0.3, np.pi - 0.3, size=(3, 2, 3))
    grids = branch_projector_grids(kx, ky, kz)
    for i in range(2):
        for j in range(3):
            k = ReducedMomentum.wrap(kx[i, j], ky[i, j], kz[i, j])
            for name, scalar in (("primary", phase), ("mirror", mirror_phase)):
                assert np.isclose(grids[name]["phase"][i, j], scalar(k), atol=1e-12)


@pytest.mark.parametrize("grids", [
    Lattice(16).mode_grids(),  # 168 flagged modes per branch
    tuple(np.random.default_rng(29).uniform(-np.pi, np.pi, (3, 500))),
], ids=["lattice-16", "random"])
@pytest.mark.parametrize("helicity", [0, 1])
def test_forward_vector_grids_are_the_branch_forward_eigenvectors(grids, helicity):
    # zero where rotation_grids flags the branch; elsewhere a unit
    # eigenvector of its kernel block with eigenvalue exp(-i phase), whose
    # first component over 1e-9 in modulus is positive, real to rounding
    name, offset, _ = BRANCHES[helicity]
    rotation = rotation_grids(*grids, (name,))[name]
    vectors = forward_vector_grids(*grids, helicity)
    shape = np.broadcast_shapes(*(np.shape(g) for g in grids))
    assert vectors.shape == shape + (3,)
    flagged = rotation["degenerate"]
    assert np.all(vectors[flagged] == 0.0)
    v = vectors[~flagged]
    block = kernel_grid(*grids)[..., offset:offset + 3, offset:offset + 3][~flagged]
    lam = np.exp(-1j * rotation["phase"][~flagged])[:, None]
    assert np.max(np.abs((block @ v[..., None])[..., 0] - lam * v)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) <= 1e-12
    lead = v[np.arange(len(v)), np.argmax(np.abs(v) > 1e-9, axis=-1)]
    assert np.all(lead.real > 0.0)
    assert np.all(np.abs(lead.imag) <= 4 * np.finfo(float).eps)


def test_rotation_grids_flag_angles_of_exactly_pi():
    # q0 here is only the rounding of cos(pi/2), so 2 atan2(|v|, |q0|) rounds
    # to pi itself; an arccos of the cosine lands 2.8e-8 below pi, outside
    # the margin
    rotations = rotation_grids(0.0, 2 * np.pi / 16, np.pi)
    for name in ("primary", "mirror"):
        assert rotations[name]["phase"] == np.pi
        assert rotations[name]["degenerate"]


@pytest.mark.parametrize("n, flagged", [(16, 168), (64, 744)])
def test_rotation_grids_flag_mode_grid_counts(n, flagged):
    # every mode whose angle is within the margin of 0 or pi, exact-pi
    # modes such as (0, 2 pi/16, pi) included
    rotations = rotation_grids(*Lattice(n).mode_grids())
    for name in ("primary", "mirror"):
        assert np.count_nonzero(rotations[name]["degenerate"]) == flagged


@pytest.mark.parametrize("names", [("primary",), ("mirror",), ()])
def test_rotation_grids_evaluate_only_the_named_branches(names):
    k = np.random.default_rng(8).uniform(-np.pi, np.pi, (3, 50))
    both = rotation_grids(*k)
    some = rotation_grids(*k, names)
    assert set(some) == set(names)
    for name in names:
        for key, value in some[name].items():
            np.testing.assert_array_equal(value, both[name][key])


def _table_coordinates(table):
    """The kx, ky and kz of each table row, rebuilt from its axis."""
    axis = table["axis"]
    return [g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")]


def test_surface_table_shape_and_order():
    table = surface_table(3)
    vals = np.linspace(-np.pi, np.pi, 3)
    assert table["axis"].tobytes() == vals.tobytes()
    assert len(table["phase"]) == 27
    # lexicographic in (kx, ky, kz): (0, 0, 0) is row 13, and the rows
    # before it run through kz fastest
    kx, ky, kz = _table_coordinates(table)
    np.testing.assert_allclose(kz[:3], vals)
    np.testing.assert_allclose(kx[:9], vals[0])
    center = 13
    assert kx[center] == ky[center] == kz[center] == 0.0
    assert table["degenerate"][center]
    assert np.isnan(table["vx"][center])


@pytest.mark.parametrize("m", [2, 3, 8, 17, 33, 48])
def test_surface_table_is_bitwise_the_meshgrid_evaluation(m):
    # the formulas run on open axes; every column must equal, bit for bit,
    # the same formulas over three full meshgrids
    axis = np.linspace(-math.pi, math.pi, m)
    kx, ky, kz = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    expected = dict(zip(
        ("phase", "vx", "vy", "vz", "speed", "degenerate"),
        (phase_grid(kx, ky, kz), *velocity_grid(kx, ky, kz))))
    table = surface_table(m)
    assert list(table) == ["axis", *expected]
    assert table["axis"].shape == (m,)
    assert table["axis"].tobytes() == axis.tobytes()
    for key, column in expected.items():
        assert table[key].dtype == column.dtype, key
        assert table[key].shape == (m**3,), key
        assert table[key].tobytes() == column.tobytes(), key


def test_surface_table_resolution_bounds():
    with pytest.raises(ArgumentOutOfRangeError):
        surface_table(1)
    with pytest.raises(ArgumentOutOfRangeError):
        surface_table(513)


def test_surface_contains_quarter_zone_point():
    table = surface_table(5)  # includes pi/2 values
    match = np.logical_and.reduce(
        [np.isclose(k, np.pi / 2) for k in _table_coordinates(table)])
    assert match.sum() == 1
    i = int(np.argmax(match))
    assert np.isclose(table["phase"][i], np.pi / 2, atol=1e-13)
    assert np.isclose(table["speed"][i], 0.0, atol=1e-12)


# ------------------------------------------------ properties at random batches

# batches of momenta in the closed zone; hypothesis also draws the edge
# values 0, +-pi and signed zeros
momentum_batches = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(3)),
    elements=st.floats(-math.pi, math.pi))


@settings(max_examples=60, deadline=None)
@given(k=momentum_batches)
def test_property_kernel_grid_is_unitary(k):
    u = kernel_grid(*k.T)
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(k=momentum_batches)
def test_property_mirror_phase_grid_is_phase_grid_at_minus_k(k):
    np.testing.assert_array_equal(mirror_phase_grid(*k.T), phase_grid(*-k.T))


@settings(max_examples=60, deadline=None)
@given(k=momentum_batches)
# a float64 scalar's ** 2 rounded sin(kz/2)^2 here one unit below the array's
@example(k=np.array([[2.7465498825571615, 0.695314516583108, 2.129112633464633]]))
def test_property_scalar_phase_is_phase_grid_off_the_axes(k):
    # on an axis the scalar form returns |kappa| exactly instead
    off_axis = k[np.count_nonzero(k == 0.0, axis=1) < 2]
    grid = phase_grid(*off_axis.T)
    mirror = mirror_phase_grid(*off_axis.T)
    for i, row in enumerate(off_axis):
        assert phase(row) == grid[i]
        assert mirror_phase(row) == mirror[i]


any_float = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(k=st.one_of(
    st.tuples(any_float, any_float, any_float),
    st.builds(lambda c, axis: tuple(np.roll([c, 0.0, 0.0], axis)),
              any_float, st.integers(0, 2))))
# the axis case returned |kappa| unwrapped: 4.0 here, and pi + 1e-9 just past pi
@example(k=(4.0, 0.0, 0.0))
@example(k=(np.pi + 1e-9, 0.0, 0.0))
@example(k=(0.0, 0.0, -np.pi))
def test_property_scalar_phase_is_its_grid_form_over_the_float_range(k):
    # only on an axis inside the zone is the scalar form |kappa| itself
    on_zone_axis = k.count(0.0) >= 2 and abs(sum(k)) <= np.pi
    for scalar, grid in ((phase, phase_grid), (mirror_phase, mirror_phase_grid)):
        angle = scalar(k)
        assert 0.0 <= angle <= np.pi
        assert angle == (abs(sum(k)) if on_zone_axis else grid(*k))


def _near_pi(k1, k2, sign, offset):
    """A momentum whose block of the given sign (-1 primary, +1 mirror) turns
    by pi, up to `offset` in kz: there c1 c2 c3 = sign s1 s2 s3."""
    a, b = 0.5 * k1, 0.5 * k2
    tangent = sign * math.sin(a) * math.sin(b)
    half = math.atan(math.cos(a) * math.cos(b) / tangent) if tangent else math.pi / 2
    return (k1, k2, min(max(2.0 * half + offset, -math.pi), math.pi))


# rotation_grids rescales |v| where its float64 square would underflow, so
# the zone reaches 1e-300; below that a subnormal's half-angle rounds (to 0
# at the smallest), and the zone draws such components as exactly zero
zone = st.floats(-math.pi, math.pi).map(lambda c: c if abs(c) >= 1e-300 else 0.0)
oracle_momenta = st.lists(st.one_of(
    st.tuples(zone, zone, zone),
    st.builds(_near_pi, zone, zone, st.sampled_from([-1.0, 1.0]),
              st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))),
    min_size=1, max_size=8)


def _exact_rotation(k, sign, mpmath):
    """(phi, unit axis, q0) of one block's quaternion at 200 bits."""
    with mpmath.workprec(200):
        half = [mpmath.mpf(float(c)) / 2 for c in k]
        c1, c2, c3 = (mpmath.cos(h) for h in half)
        s1, s2, s3 = (sign * mpmath.sin(h) for h in half)
        q0 = c1 * c2 * c3 - s1 * s2 * s3
        v = (c2 * c3 * s1 + c1 * s2 * s3, c1 * c3 * s2 - c2 * s1 * s3,
             c1 * c2 * s3 + c3 * s1 * s2)
        v_norm = mpmath.sqrt(sum(x * x for x in v))
        axis = [(-x if q0 < 0 else x) / v_norm if v_norm else x * 0 for x in v]
        return 2 * mpmath.atan2(v_norm, abs(q0)), axis, q0


@settings(max_examples=40, deadline=None)
@given(k=oracle_momenta)
# |v|^2 underflowed to 0 here, so the angle was 0 and the axis zero
@example(k=[(0.0, 0.0, 4.5e-175)])
# |v| = 2e-160, just under the small-|v| threshold 1e-150
@example(k=[(0.0, 0.0, 2e-160)])
@example(k=[(3e-200, -1e-180, 1e-190), (0.3, 1e-160, -0.2)])
@example(k=[(1e-300, 0.0, 0.0), (2e-300, -1e-300, 5e-301)])
def test_property_rotation_grids_match_a_200_bit_oracle(k):
    # the quaternion angle and axis to a few ulp over the zone and near
    # phi = pi; there n and -n are the same rotation, so the axis may flip
    # sign only where the exact q0 is within rounding of zero
    mpmath = pytest.importorskip("mpmath")
    k = np.array(k)
    rotations = rotation_grids(*k.T)
    for (name, _, _), sign in zip(BRANCHES, (-1, 1)):
        phi, axis = rotations[name]["phase"], rotations[name]["axis"]
        for i, point in enumerate(k):
            exact_phi, exact_axis, q0 = _exact_rotation(point, sign, mpmath)
            assert abs(phi[i] - exact_phi) <= 4 * math.ulp(float(exact_phi))
            errors = [max(abs(flip * a - e) for a, e in zip(axis[i], exact_axis))
                      for flip in (1, -1)]
            assert min(errors) <= 2 * np.finfo(float).eps
            assert errors[0] <= errors[1] or abs(q0) <= 4 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(k=momentum_batches)
def test_property_rotation_grids_rebuild_the_kernel_blocks(k):
    # Rodrigues: R = I + sin(phi) [n]x + (1 - cos(phi)) [n]x^2, at every
    # mode, degenerate ones included
    u = kernel_grid(*k.T)
    for name, rotation in rotation_grids(*k.T).items():
        n, phi = rotation["axis"], rotation["phase"][:, None, None]
        cross = np.swapaxes(np.cross(n[:, None, :], np.eye(3)), -1, -2)
        rebuilt = (np.eye(3) + np.sin(phi) * cross
                   + (1.0 - np.cos(phi)) * (cross @ cross))
        offset = {b: o for b, o, _ in BRANCHES}[name]
        block = u[:, offset:offset + 3, offset:offset + 3]
        assert np.max(np.abs(rebuilt - block)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(k=momentum_batches)
def test_property_each_branch_is_the_upper_block_at_its_signed_momentum(k):
    # BRANCHES states it once: a branch's block at kappa is the upper block
    # at sign * kappa, in the kernel and in its rotation form
    for name, offset, sign in BRANCHES:
        block = kernel_grid(*k.T)[:, offset:offset + 3, offset:offset + 3]
        upper = kernel_grid(*(sign * k).T)[:, :3, :3]
        assert np.max(np.abs(block - upper)) <= 1e-15
        rotation = rotation_grids(*k.T)[name]
        mirror = rotation_grids(*(sign * k).T)["mirror"]
        for key in ("axis", "phase"):
            assert np.max(np.abs(rotation[key] - mirror[key])) <= 1e-15
        np.testing.assert_array_equal(rotation["degenerate"], mirror["degenerate"])
