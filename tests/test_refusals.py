"""Each refusal branch raises its own error class with its own message."""

import json

import numpy as np
import pytest

from bosonwalk import cli, kernel, lattice
from bosonwalk.bounds import (
    ExperimentRecord,
    PhysicalConstants,
    anisotropy_bound,
    dispersion_bound,
)
from bosonwalk.errors import (
    ArgumentOutOfRangeError,
    CatalogValidationError,
    InvalidArgumentError,
    PacketSpecError,
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


def _uniform_state():
    lat = lattice.Lattice(4)
    amplitudes = np.full((4, 4, 4, 6), 1 / np.sqrt(4**3 * 6), dtype=complex)
    return lattice.LatticeState(lat, lattice.MOMENTUM, amplitudes)


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
    "anisotropy bound spread factor": (
        lambda tmp: anisotropy_bound(_resonator(wavelength=1e-6),
                                     PhysicalConstants(), spread_factor=0.0),
        ArgumentOutOfRangeError, "spread_factor must be positive"),
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
