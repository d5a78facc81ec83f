"""Internal-space operators: structure, projector algebra, cross-axis constants."""

import numpy as np
import pytest

from bosonwalk.algebra import (
    Axis,
    C_SIDE,
    C_ZERO,
    build_gamma,
    build_projectors,
    build_spin1_matrix,
    verify_projector_conditions,
)

AXES = list(Axis)


def test_spin1_matrices_are_hermitian():
    for axis in AXES:
        j = build_spin1_matrix(axis)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-15)


def test_spin1_commutation_cyclic():
    jx, jy, jz = (build_spin1_matrix(a) for a in AXES)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-15)
    np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-15)
    np.testing.assert_allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-15)


def test_spin1_cube_is_self():
    # spin-1 generators satisfy J^3 = J, the property behind the
    # three-term rotation formula
    for axis in AXES:
        j = build_spin1_matrix(axis)
        np.testing.assert_allclose(j @ j @ j, j, atol=1e-15)


def test_gamma_block_structure():
    for axis in AXES:
        g = build_gamma(axis)
        j = build_spin1_matrix(axis)
        np.testing.assert_array_equal(g[:3, :3], j)
        np.testing.assert_array_equal(g[3:, 3:], -j)
        np.testing.assert_array_equal(g[:3, 3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(g[3:, :3], np.zeros((3, 3)))
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
        np.testing.assert_allclose(g @ g @ g, g, atol=1e-15)


@pytest.mark.parametrize("axis", AXES)
def test_projector_triple_is_a_resolution(axis):
    t = build_projectors(axis)
    for p in (t.plus, t.zero, t.minus):
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
    np.testing.assert_allclose(t.plus + t.zero + t.minus, np.eye(6), atol=1e-15)
    # orthogonality within the axis
    np.testing.assert_allclose(t.plus @ t.zero, np.zeros((6, 6)), atol=1e-15)
    np.testing.assert_allclose(t.plus @ t.minus, np.zeros((6, 6)), atol=1e-15)
    np.testing.assert_allclose(t.zero @ t.minus, np.zeros((6, 6)), atol=1e-15)


@pytest.mark.parametrize("axis", AXES)
def test_projectors_recombine_to_gamma(axis):
    t = build_projectors(axis)
    g = build_gamma(axis)
    np.testing.assert_allclose(t.plus - t.minus, g, atol=1e-15)
    np.testing.assert_allclose(t.plus + t.minus, g @ g, atol=1e-15)


@pytest.mark.parametrize("axis", AXES)
def test_projector_ranks(axis):
    t = build_projectors(axis)
    assert np.isclose(np.trace(t.plus).real, 2.0)
    assert np.isclose(np.trace(t.zero).real, 2.0)
    assert np.isclose(np.trace(t.minus).real, 2.0)


def test_cross_axis_conditions_pass():
    report = verify_projector_conditions()
    assert report.passed
    assert report.max_residual <= 1e-14
    assert np.isclose(report.c_side, 0.25, atol=1e-14)
    assert np.isclose(report.c_zero, 0.5, atol=1e-14)
    assert C_SIDE == 0.25 and C_ZERO == 0.5


def test_cross_axis_check_inventory():
    report = verify_projector_conditions()
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    # 6 ordered axis pairs x 9 sandwich combinations
    assert len(names) == 54


def test_condition_report_flags_loose_tolerance():
    tight = verify_projector_conditions(tolerance=1e-300)
    # residuals are exactly zero in rational arithmetic, and these
    # matrices are small enough that floating point agrees
    assert tight.passed

