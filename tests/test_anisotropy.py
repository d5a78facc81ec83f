"""Direction factor s and its statistics over the sphere."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk import budget
from bosonwalk.anisotropy import (
    Direction,
    MAX_VALUE,
    RMS_SOLID_ANGLE,
    RMS_UNIT_AVERAGE,
    SPREAD_MAX,
    anisotropy_map,
    deviation_for_direction,
    s_factor,
    s_values,
    sphere_stats,
)
from bosonwalk.errors import ArgumentOutOfRangeError, SeriesOutOfRangeError
from bosonwalk.kernel import ReducedMomentum, group_velocity_analytic, velocity_grid

DIAG_THETA = math.acos(1 / math.sqrt(3))


def test_direction_validation_and_unit_vector():
    with pytest.raises(ArgumentOutOfRangeError):
        Direction(-0.1, 0.0)
    with pytest.raises(ArgumentOutOfRangeError):
        Direction(1.0, 2 * math.pi)
    d = Direction(math.pi / 2, math.pi / 2)
    np.testing.assert_allclose(d.unit_vector(), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(Direction(0.0, 0.0).unit_vector(), [0, 0, 1],
                               atol=1e-15)


def test_s_vanishes_on_equator():
    for phi in np.linspace(0, 2 * math.pi, 9, endpoint=False):
        assert abs(s_factor(Direction(math.pi / 2, phi))) <= 1e-15


def test_s_maximum_closed_form():
    val = s_factor(Direction(DIAG_THETA, math.pi / 4))
    assert np.isclose(val, 1 / (3 * math.sqrt(3)), atol=1e-15)
    assert np.isclose(val, MAX_VALUE, atol=1e-15)


def test_s_sign_flip_quarter_turn():
    d1 = s_factor(Direction(0.7, math.pi / 4))
    d2 = s_factor(Direction(0.7, 3 * math.pi / 4))
    assert np.isclose(d1, -d2, atol=1e-15)


def test_octant_antisymmetry():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, math.pi, 50)
    phi = rng.uniform(0, 2 * math.pi, 50)
    base = s_values(theta, phi)
    np.testing.assert_allclose(s_values(theta, -phi), -base, atol=1e-15)
    np.testing.assert_allclose(s_values(math.pi - theta, phi), -base, atol=1e-15)
    np.testing.assert_allclose(s_values(math.pi - theta, -phi), base, atol=1e-15)


def test_module_constants():
    assert np.isclose(RMS_UNIT_AVERAGE, 1 / math.sqrt(105), atol=1e-16)
    assert np.isclose(RMS_SOLID_ANGLE, math.sqrt(4 * math.pi / 105), atol=1e-16)
    assert np.isclose(SPREAD_MAX, 2 / (3 * math.sqrt(3)), atol=1e-16)
    assert np.isclose(RMS_SOLID_ANGLE, math.sqrt(4 * math.pi) * RMS_UNIT_AVERAGE,
                      atol=1e-16)


def test_sphere_stats_closed_forms():
    st = sphere_stats(64, 64)
    assert abs(st.mean) <= 1e-14
    assert abs(st.rms_unit_average - 1 / math.sqrt(105)) <= 1e-10
    assert abs(st.rms_paper_normalization - math.sqrt(4 * math.pi / 105)) <= 1e-10
    assert abs(st.rms_paper_normalization
               - math.sqrt(4 * math.pi) * st.rms_unit_average) <= 1e-12
    assert abs(st.spread - 2 / (3 * math.sqrt(3))) <= 1e-9
    assert st.min <= st.mean <= st.max
    assert np.isclose(st.max, -st.min, atol=1e-12)
    assert st.quadrature_error_estimate <= 1e-12


def test_sphere_stats_extrema_locations():
    stats = sphere_stats(32, 32)

    def gradient(x, h=1e-5):
        return [(s_values(*(x + d)) - s_values(*(x - d))) / (2 * h)
                for d in h * np.eye(2)]

    # s has period pi in phi and is even under (theta, phi) -> (pi - theta,
    # pi - phi), so [0, pi/2] x [0, pi) holds one copy of each extremum:
    # the first in theta-major order, the one sphere_stats reports
    for sign, direction, value in ((-1, stats.argmax, stats.max),
                                   (1, stats.argmin, stats.min)):
        seed = scipy.optimize.brute(lambda x: sign * s_values(*x),
                                    ((0, math.pi / 2), (0, math.pi)),
                                    Ns=101, finish=None)
        root = scipy.optimize.root(gradient, seed)
        assert root.success
        np.testing.assert_allclose([direction.theta, direction.phi], root.x,
                                   rtol=0, atol=1e-8)
        assert abs(value - s_values(*root.x)) <= 1e-8
    # the output bits; acos(1 / sqrt(3)) for theta would be one ulp lower
    assert stats.argmax == Direction(0.9553166181245093, math.pi / 4)
    assert stats.argmin == Direction(0.9553166181245093, 3 * math.pi / 4)
    assert stats.max == -stats.min == 0.19245008972987523


@settings(max_examples=20, deadline=None)
@given(n_theta=st.integers(16, 64), n_phi=st.integers(16, 64))
def test_property_sphere_stats_closed_forms(n_theta, n_phi):
    stats = sphere_stats(n_theta, n_phi)
    assert abs(stats.mean) <= 1e-14
    assert abs(stats.rms_unit_average - RMS_UNIT_AVERAGE) <= 1e-10
    assert abs(stats.rms_paper_normalization - RMS_SOLID_ANGLE) <= 1e-10
    # max - min rounds one ulp below 2 / (3 sqrt(3)) as SPREAD_MAX computes it
    assert abs(stats.spread - SPREAD_MAX) <= math.ulp(SPREAD_MAX)


def test_sphere_stats_resolution_floor():
    with pytest.raises(ArgumentOutOfRangeError):
        sphere_stats(8, 64)
    with pytest.raises(ArgumentOutOfRangeError):
        sphere_stats(64, 8)


def test_sphere_stats_quadrature_converged():
    a = sphere_stats(64, 64)
    b = sphere_stats(128, 128)
    assert abs(a.rms_unit_average - b.rms_unit_average) <= 1e-12


def test_mean_square_against_scipy_dblquad():
    val, err = scipy.integrate.dblquad(
        lambda t, p: float(s_values(t, p)) ** 2 * math.sin(t),
        0, 2 * math.pi, 0, math.pi, epsabs=1e-12)
    assert err < 1e-10
    st = sphere_stats(64, 64)
    assert abs(st.rms_unit_average - math.sqrt(val / (4 * math.pi))) <= 1e-9


def test_deviation_for_direction_values():
    d = Direction(DIAG_THETA, math.pi / 4)
    assert np.isclose(deviation_for_direction(0.01, d), -0.01 / (3 * math.sqrt(3)),
                      atol=1e-15)
    assert np.isclose(deviation_for_direction(0.01, d), -0.0019245, atol=1e-7)
    eq = Direction(math.pi / 2, 1.0)
    # cos(pi/2) rounds to ~6e-17, not zero, so only near-zero here
    assert abs(deviation_for_direction(0.05, eq)) <= 1e-16
    assert deviation_for_direction(0.0, d) == 0.0


def test_deviation_series_window():
    d = Direction(1.0, 1.0)
    with pytest.raises(SeriesOutOfRangeError):
        deviation_for_direction(0.2, d)
    with pytest.raises(SeriesOutOfRangeError):
        deviation_for_direction(-0.01, d)


def test_deviation_consistent_with_group_velocity():
    rng = np.random.default_rng(1)
    kappa = 0.005
    for _ in range(100):
        theta = math.acos(rng.uniform(-1, 1))
        phi = rng.uniform(0, 2 * math.pi)
        d = Direction(theta, phi)
        k = ReducedMomentum.wrap(*(kappa * d.unit_vector()))
        measured = group_velocity_analytic(k).speed - 1.0
        predicted = deviation_for_direction(kappa, d)
        assert abs(measured - predicted) <= 5 * kappa**2


@settings(max_examples=200, deadline=None)
@given(cos_theta=st.floats(-1.0, 1.0),
       phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
       kappa=st.sampled_from([0.1, 0.03, 0.01, 0.003]))
def test_property_small_momentum_speed_law(cos_theta, phi, kappa):
    # |speed - 1 -/+ deviation| <= C kappa^2 on the primary/mirror branch;
    # C = 0.0563 on both over 20,000 directions, asserted with margin
    d = Direction(math.acos(cos_theta), phi)
    k = kappa * d.unit_vector()
    deviation = deviation_for_direction(kappa, d)  # -kappa s
    primary = velocity_grid(*k)[3]
    mirror = velocity_grid(*-k)[3]  # the mirror phase at k is the primary at -k
    assert abs(primary - 1.0 - deviation) <= 0.06 * kappa**2
    assert abs(mirror - 1.0 + deviation) <= 0.06 * kappa**2


def test_diagonal_direction_example():
    d = Direction(DIAG_THETA, math.pi / 4)
    k = ReducedMomentum.wrap(*(0.01 * d.unit_vector()))
    measured = group_velocity_analytic(k).speed - 1.0
    assert abs(deviation_for_direction(0.01, d) - measured) <= 1e-5


def test_anisotropy_map_shape():
    theta, phi, s = anisotropy_map(16, 32)
    assert theta.shape == phi.shape == s.shape == (16 * 32,)
    np.testing.assert_allclose(s, s_values(theta, phi), atol=1e-15)


@pytest.mark.parametrize("call, sizes", [
    (anisotropy_map, ((16, 16), (64, 64), (512, 512), (16, 4096))),
    (sphere_stats, ((64, 64), (512, 512), (512, 16), (16, 1024)))])
def test_memory_estimate_covers_twice_the_traced_peak(monkeypatch, call, sizes):
    # sphere_stats peaks at its doubled pass: the companion matrix of
    # leggauss(2 n_theta) at (512, 16), the grid at (16, 1024)
    estimates = []
    monkeypatch.setattr(budget, "_refuse_over_budget",
                        lambda estimate, what: estimates.append(estimate))
    call(16, 16)  # numpy's lazy imports on a first call are not the call's
    for size in sizes:
        tracemalloc.start()
        try:
            call(*size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimates.pop() >= 2 * peak
