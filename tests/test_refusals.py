"""Each refusal branch raises its own error class with its own message."""

import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk import algebra, anisotropy, budget, cli, kernel, lattice
from bosonwalk.bounds import (
    ExperimentRecord,
    PhysicalConstants,
    anisotropy_bound,
    dispersion_bound,
    time_lag,
)
from bosonwalk.errors import (
    ArgumentOutOfRangeError,
    CatalogValidationError,
    InvalidArgumentError,
    MemoryBudgetError,
    PacketSpecError,
    SeriesOutOfRangeError,
    UndefinedCentroidError,
    WalkError,
)


def _record(kind, **fields):
    return ExperimentRecord("r", kind, "test", **fields)


def _grb(**fields):
    return _record("dispersion", e_qg_lower_bound=1e19, liv_order=1, **fields)


def _resonator(**fields):
    return _record("anisotropy", **{"delta_c_over_c": 1e-17, **fields})


def _array_packet(tmp_path):
    path = tmp_path / "packet.json"
    path.write_text(json.dumps([1, 2]))
    return cli._load_packet_config(str(path))


def _within_a_gib(call, *args):
    """`call(*args)` under a 1 GiB memory budget, so its message is fixed."""
    with mock.patch.object(budget, "_memory_budget", lambda: 1 << 30):
        return call(*args)


def _uniform_state():
    lat = lattice.Lattice(4)
    amplitudes = np.full((4, 4, 4, 6), 1 / np.sqrt(4**3 * 6), dtype=complex)
    return lattice.LatticeState(lat, lattice.MOMENTUM, amplitudes)


def _spec(**fields):
    return lattice.WavePacketSpec(**{"kind": "sinc", "k0": (0.4, 0.0, 0.0),
                                     "x0": (0, 0, 0), "width": 2, **fields})


def _measure(**arguments):
    return lattice.measure_group_velocity(lattice.Lattice(16), _spec(),
                                          **{"steps": 4, **arguments})


REFUSALS = {
    "record sign": (
        lambda tmp: _grb(sign=0), CatalogValidationError,
        "record 'r': sign must be +1 or -1"),
    "record delta_c_over_c zero": (
        lambda tmp: _resonator(delta_c_over_c=0.0),
        CatalogValidationError, "record 'r': delta_c_over_c must be positive"),
    "record delta_c_over_c missing": (
        lambda tmp: _resonator(delta_c_over_c=None),
        CatalogValidationError, "record 'r': delta_c_over_c must be positive"),
    "record wavelength": (
        lambda tmp: _resonator(wavelength=-1e-6),
        CatalogValidationError, "record 'r': wavelength must be positive"),
    "dispersion bound whose denominator rounds to zero": (
        lambda tmp: dispersion_bound(_record(
            "dispersion", e_qg_lower_bound=5e-324, liv_order=1, sign=1),
            PhysicalConstants()),
        OverflowError, "record 'r': bound is not finite"),
    "anisotropy bound of a dispersion record": (
        lambda tmp: anisotropy_bound(_grb(sign=1), PhysicalConstants()),
        ArgumentOutOfRangeError, "record 'r' is not an anisotropy record"),
    "dispersion bound rms factor": (
        lambda tmp: dispersion_bound(_grb(sign=1), PhysicalConstants(),
                                     rms_factor=-1.0),
        ArgumentOutOfRangeError, "rms_factor must be positive"),
    **{f"dispersion bound rms factor of {value!r}": (
        lambda tmp, value=value: dispersion_bound(
            _grb(sign=1), PhysicalConstants(), rms_factor=value),
        ArgumentOutOfRangeError, f"rms_factor must be finite, got {value!r}")
       for value in (math.nan, math.inf, "a")},
    "momentum shape": (
        lambda tmp: kernel.phase([0.1, 0.2]), InvalidArgumentError,
        "expected 3 momentum components, got shape (2,)"),
    "eigenvector helicity index": (
        lambda tmp: kernel.positive_energy_vector([0.1, 0.2, 0.3], 2),
        ArgumentOutOfRangeError, "helicity_index must be 0 or 1"),
    **{f"grid eigenvector helicity index {index}": (
        lambda tmp, index=index: kernel.forward_vector_grids(0.1, 0.2, 0.3, index),
        ArgumentOutOfRangeError, "helicity_index must be 0 or 1")
       for index in (-1, 2, 0.5)},
    "packet k0 of two components": (
        lambda tmp: lattice.WavePacketSpec("sinc", (0.1, 0.2), (0, 0, 0), 2),
        PacketSpecError, "k0 and x0 must have three components"),
    **{f"packet k0 of {value}": (
        lambda tmp, value=value: lattice.WavePacketSpec(
            "gaussian", (value, 0.0, 0.0), (0, 0, 0), np.pi / 8),
        PacketSpecError, f"k0 [{value}, 0.0, 0.0] must be finite")
       for value in (float("nan"), float("inf"), -float("inf"))},
    "packet width of NaN": (
        lambda tmp: _spec(width=math.nan), PacketSpecError,
        "width nan must be finite"),
    "packet width given as a string": (
        lambda tmp: _spec(width="2"), PacketSpecError,
        "width '2' must be finite"),
    "packet width past the float range": (
        lambda tmp: lattice.WavePacketSpec("sinc", (0.1, 0, 0), (0, 0, 0), 10**400),
        PacketSpecError, f"width {10**400} must be finite"),
    "packet k0 holding a string": (
        lambda tmp: _spec(k0=("a", 0, 0)), PacketSpecError,
        "k0 ['a', 0, 0] must be finite"),
    "packet k0 given as one number": (
        lambda tmp: _spec(k0=0.5), PacketSpecError,
        "k0 and x0 must have three components"),
    "packet x0 of inf": (
        lambda tmp: _spec(x0=(math.inf, 0, 0)), PacketSpecError,
        "x0 [inf, 0, 0] must be finite"),
    "momentum of NaN": (
        lambda tmp: kernel.phase((math.nan, 0, 0)), InvalidArgumentError,
        "momentum components must be finite numbers, got [nan, 0.0, 0.0]"),
    "momentum given as a string": (
        lambda tmp: kernel.phase("abc"), InvalidArgumentError,
        "expected 3 momentum components, got shape ()"),
    "momentum holding a string": (
        lambda tmp: kernel.group_velocity_analytic(("a", 0.1, 0.2)),
        InvalidArgumentError,
        "momentum components must be finite numbers, got ['a', '0.1', '0.2']"),
    "momentum of an integer past the float range": (
        lambda tmp: kernel.phase((10**400, 0, 0)), InvalidArgumentError,
        "momentum components must lie within the float range"),
    "wrapped momentum of inf": (
        lambda tmp: kernel.ReducedMomentum.wrap(math.inf, 0, 0),
        InvalidArgumentError,
        "momentum components must be finite numbers, got [inf, 0.0, 0.0]"),
    "reduced momentum outside the zone": (
        lambda tmp: kernel.ReducedMomentum(4.0, 0, 0), InvalidArgumentError,
        "momentum (4.0, 0, 0) outside (-pi, pi]^3"),
    "speed deviation series outside the zone": (
        lambda tmp: kernel.speed_deviation_series((4.0, 0, 0)),
        SeriesOutOfRangeError, "kappa [4.0, 0.0, 0.0] outside the reduced zone"),
    "numeric velocity where k +- step rounds to k": (
        lambda tmp: kernel.group_velocity_numeric((1e308, 0.1, 0.2)),
        ArgumentOutOfRangeError,
        "kappa [1e+308, 0.1, 0.2] is too large for a difference step of 1e-06: "
        "the floats near it are too far apart"),
    **{f"{builder.__name__} of axis {axis!r}": (
        lambda tmp, builder=builder, axis=axis: builder(axis),
        InvalidArgumentError, f"axis must be 0, 1 or 2, got {axis!r}")
       for builder, axis in ((algebra.build_spin1_matrix, 5),
                             (algebra.build_gamma, "x"),
                             (algebra.build_gamma, True),
                             (algebra.build_projectors, 1.5))},
    "surface resolution of a fraction": (
        lambda tmp: kernel.surface_table(2.5), ArgumentOutOfRangeError,
        "resolution 2.5 outside [2, 512]"),
    "projector-condition tolerance given as a string": (
        lambda tmp: algebra.verify_projector_conditions("a"),
        ArgumentOutOfRangeError, "tolerance 'a' is not a finite number >= 0"),
    "projector-condition tolerance past the float range": (
        lambda tmp: algebra.verify_projector_conditions(10**400),
        ArgumentOutOfRangeError, f"tolerance {10**400} is not a finite number >= 0"),
    "lattice size of a float": (
        lambda tmp: lattice.Lattice(4.0), InvalidArgumentError,
        "lattice size must be even and >= 4, got 4.0"),
    # a string size is quoted, not read as the number it spells
    "lattice size of a string": (
        lambda tmp: lattice.Lattice("16"), InvalidArgumentError,
        "lattice size must be even and >= 4, got '16'"),
    **{f"snapped momentum on a lattice of size {n!r}": (
        lambda tmp, n=n: lattice.snap_to_grid((0.4, 0.0, 0.0), n),
        InvalidArgumentError, f"lattice size must be even and >= 4, got {n!r}")
       for n in (0, -4, 1.5, "a")},
    "snapped momentum on a lattice past 2**53": (
        lambda tmp: lattice.snap_to_grid((0.4, 0.0, 0.0), 2**1024),
        InvalidArgumentError, f"lattice size {2**1024} exceeds 2**53"),
    "measured steps of a fraction": (
        lambda tmp: _measure(steps=2.5), InvalidArgumentError,
        "steps must be an integer, got 2.5"),
    "measured sample interval of a float": (
        lambda tmp: _measure(sample_every=2.0), InvalidArgumentError,
        "sample_every must be a positive integer, got 2.0"),
    # along x the circular resultant falls to 4.4e-8 at step 822
    "measured packet spread over the torus": (
        lambda tmp: lattice.measure_group_velocity(lattice.Lattice(36), _spec(
            k0=(math.pi, 2 * math.pi * 13 / 36, math.pi)), 822, 6),
        UndefinedCentroidError, "packet spread out too far for a defined centroid"),
    "evolved steps of a fraction": (
        lambda tmp: lattice.evolve_spectral(_uniform_state(), 2.5),
        InvalidArgumentError, "steps must be a nonnegative integer, got 2.5"),
    **{f"{evolve.__name__} steps past 2**53": (
        lambda tmp, evolve=evolve: evolve(_uniform_state(), 2**53 + 1),
        InvalidArgumentError, f"steps {2**53 + 1} exceed 2**53")
       for evolve in (lattice.evolve_spectral, lattice.evolve_direct)},
    "sphere statistics of NaN points": (
        lambda tmp: anisotropy.sphere_stats(math.nan), ArgumentOutOfRangeError,
        "need n_theta, n_phi >= 16, got nan, 64"),
    "anisotropy map of a fractional size": (
        lambda tmp: anisotropy.anisotropy_map(2.5, 4), ArgumentOutOfRangeError,
        "need n_theta, n_phi >= 1, got 2.5, 4"),
    "sphere statistics past 2**53 points": (
        lambda tmp: anisotropy.sphere_stats(16, 2**1024), ArgumentOutOfRangeError,
        f"need n_theta, n_phi <= 2**53, got 16, {2**1024}"),
    "anisotropy map past 2**53 points": (
        lambda tmp: anisotropy.anisotropy_map(2**53 + 1, 4), ArgumentOutOfRangeError,
        f"need n_theta, n_phi <= 2**53, got {2**53 + 1}, 4"),
    "anisotropy map over the memory budget": (
        lambda tmp: _within_a_gib(anisotropy.anisotropy_map, 2**40, 4),
        MemoryBudgetError, "an anisotropy map of 1099511627776 x 4 points "
        "would need about 3.93e+05 GiB, over the 1 GiB memory budget"),
    "sphere statistics over the memory budget": (
        lambda tmp: _within_a_gib(anisotropy.sphere_stats, 2**22, 16),
        MemoryBudgetError, "sphere statistics on 4194304 x 16 nodes "
        "would need about 4.19e+06 GiB, over the 1 GiB memory budget"),
    "direction given as a string": (
        lambda tmp: anisotropy.Direction("a", 0.0), ArgumentOutOfRangeError,
        "theta a outside [0, pi]"),
    "deviation at a NaN momentum": (
        lambda tmp: anisotropy.deviation_for_direction(
            math.nan, anisotropy.Direction(1.0, 1.0)),
        SeriesOutOfRangeError,
        "kappa magnitude nan outside the series window [0, 0.1]"),
    "physical constant of NaN": (
        lambda tmp: PhysicalConstants(hbar_c=math.nan), ArgumentOutOfRangeError,
        "hbar_c must be finite and positive"),
    "physical constant past the float range": (
        lambda tmp: PhysicalConstants(hbar_c=10**400), ArgumentOutOfRangeError,
        "hbar_c must be finite and positive"),
    "record bound given as a string": (
        lambda tmp: _record("dispersion", e_qg_lower_bound="a", liv_order=1,
                            sign=1), CatalogValidationError,
        "record 'r': e_qg_lower_bound must be finite"),
    "time lag over a NaN distance": (
        lambda tmp: time_lag(math.nan, 1.0, 0.0, 1e20), ArgumentOutOfRangeError,
        "distance must be finite, got nan"),
    "time lag over a distance past the float range": (
        lambda tmp: time_lag(10**400, 1.0, 0.0, 1e20), ArgumentOutOfRangeError,
        f"distance must be finite, got {10**400}"),
    "time lag past the float range": (
        lambda tmp: time_lag(1e308, 1e308, 0.0, 1e-300), ArgumentOutOfRangeError,
        "the time lag leaves the float range"),
    "packet file k0 of two components": (
        lambda tmp: cli._packet_triple("k0", [0.1, 0.2]), PacketSpecError,
        "packet field 'k0' must be a list of 3"),
    "packet x0 of two components": (
        lambda tmp: lattice.WavePacketSpec("sinc", (0.1, 0.2, 0.3), (0, 0), 2),
        PacketSpecError, "k0 and x0 must have three components"),
    "packet x0 whose plane-wave phase overflows": (
        lambda tmp: lattice.make_wavepacket(lattice.Lattice(32), lattice.WavePacketSpec(
            "gaussian", (0.3, 0.0, 0.0), (1.7e308, 0, 0), np.pi / 8)),
        PacketSpecError,
        "x0 [1.7e+308, 0.0, 0.0] is too large: its plane-wave phase overflows"),
    "projection helicity": (
        lambda tmp: lattice.project_to_branch(_uniform_state(), helicity=2),
        PacketSpecError, "helicity must be 0 or 1, got 2"),
    "packet file holding an array": (
        _array_packet, PacketSpecError,
        "packet file {tmp}/packet.json: expected a JSON object"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_raises_its_class_and_message(tmp_path, case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(tmp=tmp_path)


# ----------------------------------------------------- hostile arguments

HOSTILE = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -2.2e-310,
           2**1024, -10**400, True, False, "a", "2", 2.5, 16.0)
# a hostile value or an ordinary one, so that some calls get through
numbers = st.one_of(st.sampled_from(HOSTILE), st.floats(-4.0, 4.0),
                    st.integers(-3, 40))
triples = st.tuples(numbers, numbers, numbers)
# three components, a wrong count of them, or a bare number
momenta = st.one_of(
    triples, numbers,
    st.lists(numbers, max_size=5).filter(lambda v: len(v) != 3).map(tuple))


def _choice(*valid):
    """A selector argument: one of its valid values, or any number."""
    return st.one_of(st.sampled_from(valid), numbers)


def _angle(value):
    assert isinstance(value, float) and 0.0 <= value <= math.pi, value


def _finite(*values):
    for value in values:
        assert np.isfinite(np.asarray(value, dtype=complex)).all(), value


def _unitary(u):
    assert u.shape == (6, 6)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12


def _in_zone(m):
    assert all(-math.pi < c <= math.pi for c in (m.kx, m.ky, m.kz)), m


def _unit_vector(v):
    assert v.shape == (6,) and abs(np.linalg.norm(v) - 1.0) <= 1e-12


def _velocity(v):
    _finite(v.vx, v.vy, v.vz)


def _series(k, value):
    # |kx ky kz| / |k|^2 peaks on the diagonals at |k| / (3 sqrt(3))
    assert isinstance(value, float) and abs(value) <= (
        math.hypot(*map(float, k)) / (3 * math.sqrt(3)) * (1 + 1e-12) + 1e-300)


def _lattice(lat):
    assert isinstance(lat.n, int) and lat.n >= 4 and lat.n % 2 == 0


def _packet_spec(spec):
    assert len(spec.k0) == len(spec.x0) == 3 and spec.helicity in (0, 1)
    assert all(isinstance(c, (int, float)) and math.isfinite(c)
               for c in (*spec.k0, *spec.x0, spec.width))


def _measured(mv):
    _velocity(mv.velocity)
    _finite(mv.predicted, mv.fit_residual, mv.trajectory.positions)


def _normalized(state):
    assert abs(state.norm() - 1.0) <= 1e-12


def _direction(d):
    assert 0.0 <= d.theta <= math.pi and 0.0 <= d.phi < 2.0 * math.pi


def _sphere(stats):
    _finite(stats.mean, stats.rms_unit_average, stats.max, stats.min,
            stats.quadrature_error_estimate)


def _constants(c):
    _finite(c.hbar_c, c.planck_length, c.speed_of_light)
    assert min(c.hbar_c, c.planck_length, c.speed_of_light) > 0


def _lag(value):
    assert isinstance(value, float) and math.isfinite(value)


def _bound(call, value):
    # a finite value may still take the bound past the float range or below
    # its normal range: the CLI's numerical failure, exit 4
    try:
        result = call(value)
    except OverflowError as exc:
        assert math.isfinite(value) and str(exc) in (
            "record 'r': bound is not finite",
            "record 'r': bound is below the normal float range")
        return
    _finite(result.delta_x_upper_bound, result.ratio_to_planck)
    assert min(result.delta_x_upper_bound, result.ratio_to_planck) >= sys.float_info.min


def _hermitian(m, size):
    assert m.shape == (size, size)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-13)


def _projectors(triple):
    for p in (triple.plus, triple.zero, triple.minus):
        _hermitian(p, 6)
        np.testing.assert_allclose(p @ p, p, atol=1e-13)


def _conditions(report):
    # every residual is exactly zero, so any tolerance >= 0 passes
    assert report.passed


def _surface(m, table):
    assert table.pop("axis").shape == (m,)
    assert all(column.shape == (m**3,) for column in table.values())


_DIRECTION = anisotropy.Direction(1.0, 1.0)
_STATE = lattice.random_state(lattice.Lattice(4), np.random.default_rng(2))

# each public constructor and scalar function: a call on drawn arguments,
# and the check of what it returns
CALLS = {
    "kernel.phase": lambda d: _angle(kernel.phase(d.draw(momenta))),
    "kernel.mirror_phase": lambda d: _angle(kernel.mirror_phase(d.draw(momenta))),
    "kernel.kernel_closed_form": lambda d: _unitary(
        kernel.kernel_closed_form(d.draw(momenta))),
    "kernel.kernel_exponential": lambda d: _unitary(
        kernel.kernel_exponential(d.draw(momenta))),
    "kernel.positive_energy_vector": lambda d: _unit_vector(
        kernel.positive_energy_vector(d.draw(momenta), d.draw(_choice(0, 1)))),
    "kernel.group_velocity_analytic": lambda d: _velocity(
        kernel.group_velocity_analytic(d.draw(momenta))),
    "kernel.group_velocity_numeric": lambda d: _velocity(
        kernel.group_velocity_numeric(d.draw(momenta))),
    "kernel.speed_deviation_series": lambda d: _series(
        k := d.draw(triples), kernel.speed_deviation_series(k)),
    "kernel.phase_expansion_check": lambda d: _finite(
        kernel.phase_expansion_check(d.draw(momenta))),
    "kernel.surface_table": lambda d: _surface(
        m := d.draw(numbers), kernel.surface_table(m)),
    "kernel.ReducedMomentum": lambda d: _in_zone(
        kernel.ReducedMomentum(*d.draw(triples))),
    "kernel.ReducedMomentum.wrap": lambda d: _in_zone(
        kernel.ReducedMomentum.wrap(*d.draw(triples))),
    "lattice.Lattice": lambda d: _lattice(lattice.Lattice(d.draw(numbers))),
    "lattice.WavePacketSpec": lambda d: _packet_spec(lattice.WavePacketSpec(
        d.draw(_choice("sinc", "gaussian")),
        d.draw(momenta), d.draw(momenta), d.draw(numbers),
        helicity=d.draw(_choice(0, 1)))),
    "lattice.snap_to_grid": lambda d: _in_zone(
        lattice.snap_to_grid(d.draw(momenta), d.draw(numbers))),
    "lattice.measure_group_velocity": lambda d: _measured(_measure(
        steps=d.draw(numbers), sample_every=d.draw(numbers))),
    "lattice.evolve_spectral": lambda d: _normalized(
        lattice.evolve_spectral(_STATE, d.draw(numbers))),
    "lattice.evolve_direct": lambda d: _normalized(
        lattice.evolve_direct(_STATE, d.draw(numbers))),
    "anisotropy.Direction": lambda d: _direction(
        anisotropy.Direction(d.draw(numbers), d.draw(numbers))),
    "anisotropy.deviation_for_direction": lambda d: _finite(
        anisotropy.deviation_for_direction(d.draw(numbers), _DIRECTION)),
    "anisotropy.sphere_stats": lambda d: _sphere(
        anisotropy.sphere_stats(d.draw(numbers), d.draw(numbers))),
    "anisotropy.anisotropy_map": lambda d: _finite(
        *anisotropy.anisotropy_map(d.draw(numbers), d.draw(numbers))),
    "bounds.PhysicalConstants": lambda d: _constants(
        PhysicalConstants(*d.draw(triples))),
    "bounds.time_lag": lambda d: _lag(time_lag(
        *(d.draw(_choice(1.0, 1e20)) for _ in range(4)))),
    "bounds.dispersion_bound": lambda d: _bound(
        lambda f: dispersion_bound(_grb(sign=1), PhysicalConstants(), rms_factor=f),
        d.draw(numbers)),
    "bounds.anisotropy_bound": lambda d: _bound(
        lambda w: anisotropy_bound(_resonator(wavelength=w), PhysicalConstants()),
        d.draw(numbers)),
    "algebra.build_spin1_matrix": lambda d: _hermitian(
        algebra.build_spin1_matrix(d.draw(_choice(*algebra.Axis))), 3),
    "algebra.build_gamma": lambda d: _hermitian(
        algebra.build_gamma(d.draw(_choice(*algebra.Axis))), 6),
    "algebra.build_projectors": lambda d: _projectors(
        algebra.build_projectors(d.draw(_choice(*algebra.Axis)))),
    "algebra.verify_projector_conditions": lambda d: _conditions(
        algebra.verify_projector_conditions(d.draw(numbers))),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_hostile_arguments_are_answered_in_range_or_refused(name, data):
    # NaN, infinities, 1e308, subnormals, bools, strings, floats where
    # integers belong and wrong lengths: a value in range, or a WalkError
    try:
        CALLS[name](data)
    except WalkError:
        pass
