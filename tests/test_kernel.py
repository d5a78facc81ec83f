"""Momentum-space step operator: spectrum, projectors, velocities, series."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
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
    branch_decomposition,
    branch_projector_grids,
    group_velocity_analytic,
    group_velocity_numeric,
    kernel_closed_form,
    kernel_exponential,
    kernel_grid,
    mirror_phase,
    mirror_phase_grid,
    mode_decomposition,
    phase,
    phase_expansion_check,
    phase_grid,
    positive_energy_vector,
    rotation_grids,
    speed_deviation_series,
    surface_table,
    velocity_grid,
)
from bosonwalk.lattice import Lattice


def random_momenta(count, rng, margin=0.15):
    """Momenta kept away from the degenerate shells for stable spectra."""
    out = []
    while len(out) < count:
        k = ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, size=3))
        phases = (phase(k), mirror_phase(k))
        # both branch phases clear of 0 and pi, where eigenvalues collide
        if min(min(p, np.pi - p) for p in phases) > margin:
            out.append(k)
    return out


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


def test_phase_within_arccos_range():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = phase(ReducedMomentum.wrap(*rng.uniform(-np.pi, np.pi, 3)))
        assert 0.0 <= p <= np.pi
    # unwrapped momenta with at most one zero component (on an axis the
    # angle is |kappa| itself): huge, +-pi and subnormal components
    special = [np.pi, -np.pi, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300]
    points = [[a, b, c] for a in special for b in special for c in special]
    points += [[0.0, b, c] for b in special for c in special]
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

def test_eigenvalue_multiset_against_general_solver():
    rng = np.random.default_rng(12)
    for k in random_momenta(100, rng):
        md = mode_decomposition(k)
        u = kernel_closed_form(k)
        reference = np.linalg.eigvals(u)
        reference = reference[np.argsort(np.angle(reference))]
        ours = md.eigenvalues[np.argsort(np.angle(md.eigenvalues))]
        np.testing.assert_allclose(ours, reference, atol=1e-10)


def test_spectrum_structure():
    rng = np.random.default_rng(13)
    for k in random_momenta(30, rng):
        md = mode_decomposition(k)
        lam = md.eigenvalues
        # two unit eigenvalues, two conjugate pairs
        np.testing.assert_allclose(lam[2], 1.0, atol=1e-13)
        np.testing.assert_allclose(lam[3], 1.0, atol=1e-13)
        np.testing.assert_allclose(lam[4], np.conj(lam[1]), atol=1e-13)
        np.testing.assert_allclose(lam[5], np.conj(lam[0]), atol=1e-13)
        assert np.isclose(abs(lam[0]), 1.0, atol=1e-13)
        assert md.splitting >= 0.0


def test_branch_phases_split_at_generic_momentum():
    # the two 3x3 blocks carry different phases unless a momentum
    # component sits at 0 or pi; the splitting is cubic in |kappa|
    md = mode_decomposition(ReducedMomentum.wrap(0.9, 0.8, 0.7))
    assert md.splitting > 1e-3
    md_small = mode_decomposition(ReducedMomentum.wrap(0.09, 0.08, 0.07))
    ratio = md.splitting / md_small.splitting
    assert ratio > 100  # roughly (10)^3


def test_branch_eigen_equations():
    rng = np.random.default_rng(14)
    for k in random_momenta(40, rng):
        u = kernel_closed_form(k)
        primary, mirror = branch_decomposition(k)
        for branch, offset in ((primary, 3), (mirror, 0)):
            block = u[offset:offset + 3, offset:offset + 3]
            lam = np.exp(-1j * branch.phase)
            np.testing.assert_allclose(block @ branch.forward,
                                       lam * branch.forward, atol=1e-12)
            np.testing.assert_allclose(block @ branch.axis,
                                       branch.axis, atol=1e-12)
            np.testing.assert_allclose(block @ branch.backward,
                                       np.conj(lam) * branch.backward, atol=1e-12)


def test_branch_projectors_resolve_identity():
    rng = np.random.default_rng(15)
    for k in random_momenta(40, rng):
        for branch in branch_decomposition(k):
            total = branch.forward + branch.axis + branch.backward
            np.testing.assert_allclose(total, np.eye(3), atol=1e-11)
            for p in (branch.forward, branch.axis, branch.backward):
                np.testing.assert_allclose(p @ p, p, atol=1e-11)


def test_aggregated_projectors_and_reconstruction():
    rng = np.random.default_rng(16)
    for k in random_momenta(30, rng):
        md = mode_decomposition(k)
        u = kernel_closed_form(k)
        total = md.projector_plus + md.projector_zero + md.projector_minus
        np.testing.assert_allclose(total, np.eye(6), atol=1e-11)
        for p in (md.projector_plus, md.projector_zero, md.projector_minus):
            np.testing.assert_allclose(p @ p, p, atol=1e-11)
            assert np.isclose(np.trace(p).real, 2.0, atol=1e-11)
        # single-phase reconstruction misses by the branch splitting
        single = (np.exp(-1j * md.phase) * md.projector_plus + md.projector_zero
                  + np.exp(1j * md.phase) * md.projector_minus)
        resid = np.max(np.abs(u - single))
        assert np.isclose(resid, md.reconstruction_residual, atol=1e-12)
        assert resid <= md.splitting + 1e-11


def test_reconstruction_exact_with_both_branch_phases():
    rng = np.random.default_rng(17)
    for k in random_momenta(30, rng):
        u = kernel_closed_form(k)
        primary, mirror = branch_decomposition(k)
        rebuilt = np.zeros((6, 6), dtype=complex)
        for branch, offset in ((primary, 3), (mirror, 0)):
            lam = np.exp(-1j * branch.phase)
            block = (lam * branch.forward + branch.axis
                     + np.conj(lam) * branch.backward)
            rebuilt[offset:offset + 3, offset:offset + 3] = block
        np.testing.assert_allclose(rebuilt, u, atol=1e-11)


def test_reconstruction_residual_vanishes_without_splitting():
    md = mode_decomposition(ReducedMomentum.wrap(0.7, 0.0, 0.4))
    assert md.splitting <= 1e-14
    assert md.reconstruction_residual <= 1e-12


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
        branch_decomposition(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateSpectrumError):
        group_velocity_analytic(ReducedMomentum.wrap(0.0, 0.0, 0.0))
    # the arccos angles are tested first, so a refusal they make keeps
    # its wording
    with pytest.raises(DegenerateSpectrumError, match="^phase = 0.0 is within"):
        mode_decomposition(ReducedMomentum.wrap(np.pi, np.pi, np.pi))
    # the block angle is exactly pi here, but the arccos form reads
    # 3.1415926325, 2e-8 short of it: only the quaternion angle fires
    k = ReducedMomentum.wrap(np.pi, 0.0, np.pi - 0.05)
    assert math.pi - phase(k) > 1e-8
    for scalar_api in (positive_energy_vector, branch_decomposition,
                       mode_decomposition):
        with pytest.raises(DegenerateSpectrumError, match=(
                r"^phase \(block angle\) = 3.141592653589793 is within")):
            scalar_api(k)
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


def test_numeric_velocity_step_validation():
    k = ReducedMomentum.wrap(0.4, 0.5, 0.6)
    with pytest.raises(ArgumentOutOfRangeError):
        group_velocity_numeric(k, step=1.0)
    with pytest.raises(ArgumentOutOfRangeError):
        group_velocity_numeric(k, step=1e-12)


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
            if grids["primary"]["degenerate"][i, j]:
                continue
            primary, mirror = branch_decomposition(k)
            for name, branch in (("primary", primary), ("mirror", mirror)):
                g = grids[name]
                assert np.isclose(g["phase"][i, j], branch.phase, atol=1e-12)
                for key in ("forward", "axis", "backward"):
                    np.testing.assert_allclose(g[key][i, j],
                                               getattr(branch, key), atol=1e-11)


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


def test_surface_table_shape_and_order():
    table = surface_table(3)
    assert len(table["kx"]) == 27
    vals = np.linspace(-np.pi, np.pi, 3)
    # lexicographic in (kx, ky, kz)
    np.testing.assert_allclose(table["kx"][:9], vals[0])
    np.testing.assert_allclose(table["ky"][:3], vals[0])
    np.testing.assert_allclose(table["kz"][:3], vals)
    center = 13  # index of (0, 0, 0)
    assert table["degenerate"][center]
    assert np.isnan(table["vx"][center])


@pytest.mark.parametrize("m", [2, 3, 8, 17, 33, 48])
def test_surface_table_is_bitwise_the_meshgrid_evaluation(m):
    # the formulas run on open axes; every column must equal, bit for bit,
    # the same formulas over three full meshgrids
    axis = np.linspace(-math.pi, math.pi, m)
    kx, ky, kz = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    expected = dict(zip(
        ("kx", "ky", "kz", "phase", "vx", "vy", "vz", "speed", "degenerate"),
        (kx, ky, kz, phase_grid(kx, ky, kz), *velocity_grid(kx, ky, kz))))
    table = surface_table(m)
    assert list(table) == list(expected)
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
    match = (np.isclose(table["kx"], np.pi / 2) & np.isclose(table["ky"], np.pi / 2)
             & np.isclose(table["kz"], np.pi / 2))
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
        offset = dict(BRANCHES)[name]
        block = u[:, offset:offset + 3, offset:offset + 3]
        assert np.max(np.abs(rebuilt - block)) <= 1e-14
