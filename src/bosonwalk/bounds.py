"""Lattice-spacing bounds from observational light-speed constraints.

Two families of constraints are converted into upper bounds on the
lattice spacing.  Time-of-flight limits on an energy-dependent photon
speed give a quantum-gravity scale E_QG; since the walk's leading speed
correction is linear in k dx with a direction RMS factor r, the spacing
obeys dx <= hbar c / (r E_QG).  Michelson-Morley style resonator limits
on a direction-dependent speed Delta c / c at photon energy E = c h /
lambda constrain dx through the spread of the direction factor s.

For the resonator case two readings of the algebra circulate: dividing
the measured Delta c / c by the spread factor (first principles) or
multiplying by it.  The multiply form reproduces published example
numbers and is the default (`paper_compat`); whenever the two differ by
more than 1% the other is reported alongside.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional, Union

from . import (
    CONSTANTS,
    RMS_SOLID_ANGLE,
    SPREAD_MAX,
    _finite,
    budget,
)
from .errors import (
    ArgumentOutOfRangeError,
    CatalogParseError,
    CatalogValidationError,
    MissingWavelengthError,
    UnsupportedOrderError,
)

DISPERSION = "dispersion"
ANISOTROPY = "anisotropy"

@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used in bound conversions; echoed with every result."""

    hbar_c: float = CONSTANTS["hbar_c"]
    planck_length: float = CONSTANTS["planck_length"]
    speed_of_light: float = CONSTANTS["speed_of_light"]

    def __post_init__(self):
        for name in CONSTANTS:
            if not _finite(getattr(self, name)) or getattr(self, name) <= 0:
                raise ArgumentOutOfRangeError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class ExperimentRecord:
    """One observational constraint, either time-of-flight or resonator."""

    id: str
    kind: str
    source: str
    e_qg_lower_bound: Optional[float] = None  # GeV, dispersion only
    liv_order: Optional[int] = None           # 1 or 2, dispersion only
    sign: Optional[int] = None                # +1 subluminal, -1 superluminal
    delta_c_over_c: Optional[float] = None    # anisotropy only
    wavelength: Optional[float] = None        # m, anisotropy only

    def __post_init__(self):  # so every record in hand is valid
        # NaN passes every ordered comparison below, so test it first
        for name in _FLOAT_FIELDS:
            if not _finite(getattr(self, name) or 0.0):
                raise CatalogValidationError(
                    f"record {self.id!r}: {name} must be finite")
        if self.kind not in (DISPERSION, ANISOTROPY):
            raise CatalogValidationError(
                f"record {self.id!r}: unknown kind {self.kind!r}")
        if self.kind == DISPERSION:
            if self.e_qg_lower_bound is None or self.e_qg_lower_bound <= 0:
                raise CatalogValidationError(
                    f"record {self.id!r}: e_qg_lower_bound must be positive")
            if self.liv_order not in (1, 2):
                raise CatalogValidationError(
                    f"record {self.id!r}: liv_order must be 1 or 2")
            if self.sign not in (1, -1):
                raise CatalogValidationError(
                    f"record {self.id!r}: sign must be +1 or -1")
        else:
            if self.delta_c_over_c is None or self.delta_c_over_c <= 0:
                raise CatalogValidationError(
                    f"record {self.id!r}: delta_c_over_c must be positive")
            if self.wavelength is not None and self.wavelength <= 0:
                raise CatalogValidationError(
                    f"record {self.id!r}: wavelength must be positive")


# JSON types each field annotation accepts; one missing here fails at import
_JSON_TYPES = {"str": str, "Optional[int]": int, "Optional[float]": (int, float)}
_RECORD_FIELDS = {f.name: _JSON_TYPES[f.type] for f in fields(ExperimentRecord)}
_REQUIRED_FIELDS = [f.name for f in fields(ExperimentRecord) if f.default is MISSING]
_FLOAT_FIELDS = [f.name for f in fields(ExperimentRecord) if "float" in f.type]


def _check_range(record_id: str, *values: float) -> None:
    """Refuse bound figures past the float range or below its normal range,
    where a subnormal keeps too few bits to print as if exact."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"record {record_id!r}: bound is not finite")
    if min(values) < sys.float_info.min:
        raise OverflowError(
            f"record {record_id!r}: bound is below the normal float range")


@dataclass(frozen=True)
class BoundResult:
    """A numeric lattice-spacing bound with full input provenance; every
    figure is a finite normal float."""

    experiment_id: str
    delta_x_upper_bound: float  # m
    ratio_to_planck: float
    normalization_used: str
    alternate_delta_x_upper_bound: Optional[float] = None
    note: Optional[str] = None
    inputs_echo: dict = field(kw_only=True)  # last, as the json output shows it

    def __post_init__(self):
        alt = self.alternate_delta_x_upper_bound
        _check_range(self.experiment_id, self.delta_x_upper_bound,
                     self.ratio_to_planck, *(() if alt is None else (alt,)))


@dataclass(frozen=True)
class UnsupportedEntry:
    """Catalog entry the model cannot convert into a number."""

    experiment_id: str
    note: str
    inputs_echo: dict


CatalogEntry = Union[BoundResult, UnsupportedEntry]


def _echo(record: ExperimentRecord, constants: PhysicalConstants,
          **factors) -> dict:
    return {"record": asdict(record), "constants": asdict(constants),
            **factors}


def dispersion_bound(record: ExperimentRecord, constants: PhysicalConstants,
                     rms_factor: float = RMS_SOLID_ANGLE) -> BoundResult:
    """dx <= hbar c / (rms_factor * E_QG) for a linear-order record.

    Quadratic-order records are rejected: the walk's leading correction
    is strictly linear, so it predicts no quadratic-leading dispersion
    for such a record to constrain.
    """
    if record.kind != DISPERSION:
        raise ArgumentOutOfRangeError(
            f"record {record.id!r} is not a dispersion record")
    if not _finite(rms_factor):
        raise ArgumentOutOfRangeError(f"rms_factor must be finite, got {rms_factor!r}")
    if rms_factor <= 0:
        raise ArgumentOutOfRangeError("rms_factor must be positive")
    if record.liv_order == 2:
        raise UnsupportedOrderError(
            f"record {record.id!r} constrains quadratic-order dispersion; "
            "the model's leading speed correction is linear, so this record "
            "does not translate into a spacing bound")
    denominator = rms_factor * record.e_qg_lower_bound
    # a subnormal E_QG times rms_factor rounds to 0; BoundResult refuses inf
    dx = constants.hbar_c / denominator if denominator else math.inf
    return BoundResult(
        experiment_id=record.id,
        delta_x_upper_bound=dx,
        ratio_to_planck=dx / constants.planck_length,
        normalization_used="paper_rms" if rms_factor == RMS_SOLID_ANGLE else "custom_rms",
        inputs_echo=_echo(record, constants, rms_factor=rms_factor),
    )


def anisotropy_bound(record: ExperimentRecord, constants: PhysicalConstants,
                     paper_compat: bool = True) -> BoundResult:
    """Resonator bound dx from Delta c / c at wavelength lambda.

    First principles: Delta c / c ~= SPREAD_MAX * (E dx / hbar c) with
    E = c h / lambda gives dx <= (Delta c / c) / SPREAD_MAX * lambda /
    2 pi.  With paper_compat the spread factor multiplies instead, which
    matches published example figures.  The two readings differ by the
    factor SPREAD_MAX**2, so both are returned, with a note.
    """
    if record.kind != ANISOTROPY:
        raise ArgumentOutOfRangeError(
            f"record {record.id!r} is not an anisotropy record")
    if record.wavelength is None:
        raise MissingWavelengthError(
            f"record {record.id!r} has no wavelength; the photon energy "
            "is undefined")
    scale = record.delta_c_over_c * record.wavelength / (2.0 * math.pi)
    compat = scale * SPREAD_MAX
    first_principles = scale / SPREAD_MAX
    # refused whichever reading is primary, so paper_compat never decides it
    readings = (compat, first_principles)
    _check_range(record.id, *readings,
                 *(r / constants.planck_length for r in readings))
    dx, alt = (compat, first_principles) if paper_compat else (first_principles, compat)
    return BoundResult(
        experiment_id=record.id,
        delta_x_upper_bound=dx,
        ratio_to_planck=dx / constants.planck_length,
        normalization_used="max_spread",
        inputs_echo=_echo(record, constants, spread_factor=SPREAD_MAX,
                          paper_compat=paper_compat),
        alternate_delta_x_upper_bound=alt,
        note=("spread-factor normalization ambiguity: multiplying by the "
              f"spread gives {compat:.6e} m, dividing gives "
              f"{first_principles:.6e} m"),
    )


def time_lag(distance: float, e_high: float, e_low: float, e_qg: float) -> float:
    """Arrival-time difference in seconds between two photon energies.

    dt = (d / c) (e_high - e_low) / e_qg, the walk's linear-order lag;
    positive means the higher-energy photon arrives later.  Flat space, no
    cosmological redshift weighting.  Non-finite arguments, and arguments
    whose arithmetic leaves the float range, are refused.
    """
    for name, value in (("distance", distance), ("e_high", e_high),
                        ("e_low", e_low), ("e_qg", e_qg)):
        if not _finite(value):
            raise ArgumentOutOfRangeError(f"{name} must be finite, got {value!r}")
    if distance <= 0:
        raise ArgumentOutOfRangeError("distance must be positive")
    if not e_high >= e_low >= 0:
        raise ArgumentOutOfRangeError("need e_high >= e_low >= 0")
    if e_qg <= 0:
        raise ArgumentOutOfRangeError("e_qg must be positive")
    scale = distance / PhysicalConstants().speed_of_light
    lag = scale * (e_high - e_low) / e_qg
    if not math.isfinite(lag) or (lag == 0.0 and e_high != e_low):
        # the same lag from energy ratios, in range where the product is not
        lag = scale * (e_high / e_qg - e_low / e_qg)
    if not math.isfinite(lag):
        raise ArgumentOutOfRangeError("the time lag leaves the float range")
    return lag


def _parse_record(item, index: int) -> ExperimentRecord:
    where = f"record at index {index}"
    if not isinstance(item, dict):
        raise CatalogParseError(f"{where}: expected an object, got {type(item).__name__}")
    for key in item:
        if key not in _RECORD_FIELDS:
            raise CatalogParseError(f"{where}: unknown field {key!r}")
    for key in _REQUIRED_FIELDS:
        if key not in item:
            raise CatalogParseError(f"{where}: missing field {key!r}")
    kwargs = {}
    for key, value in item.items():
        expected = _RECORD_FIELDS[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise CatalogParseError(
                f"{where}: field {key!r} has wrong type {type(value).__name__}")
        if key in _FLOAT_FIELDS:
            try:
                value = float(value)
            except OverflowError:
                raise CatalogParseError(
                    f"{where}: field {key!r} is too large for a float") from None
        kwargs[key] = value
    if not kwargs["id"].isprintable():
        # a CSV writer leaves a lone carriage return unquoted
        raise CatalogParseError(
            f"{where}: field 'id' holds an unprintable character: {kwargs['id']!r}")
    return ExperimentRecord(**kwargs)


def load_experiments(path) -> list[ExperimentRecord]:
    """Parse and validate a JSON experiment catalog; a file of more bytes
    than the memory budget over _CATALOG_BYTES_PER_FILE_BYTE is refused
    before it is parsed."""
    limit = int(min(budget._memory_budget(), 2**62)
                // budget._CATALOG_BYTES_PER_FILE_BYTE)
    try:
        payload = json.loads(budget._read_text(path, limit, CatalogParseError,
                                               path))
    except json.JSONDecodeError as exc:
        raise CatalogParseError(
            f"{path}: invalid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, UnicodeDecodeError) as exc:
        raise CatalogParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise CatalogParseError(f"{path}: top level must be a JSON array")
    records = []
    seen = set()
    for index, item in enumerate(payload):
        record = _parse_record(item, index)
        if record.id in seen:
            raise CatalogValidationError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def bundled_catalog_path() -> str:
    from importlib.resources import files
    return str(files("bosonwalk") / "data" / "experiments.json")


def run_catalog(records, constants: PhysicalConstants,
                paper_compat: bool = True) -> list[CatalogEntry]:
    """Convert every applicable record; annotate the rest.

    Dispersion records take the solid-angle RMS factor; paper_compat is as
    in anisotropy_bound.  Numeric results come first, sorted by bound
    ascending (tightest first); entries the model cannot convert follow in
    input order with an explanatory note.
    """
    numeric = []
    annotated = []
    for record in records:
        try:
            numeric.append(
                dispersion_bound(record, constants) if record.kind == DISPERSION
                else anisotropy_bound(record, constants, paper_compat=paper_compat))
        except UnsupportedOrderError:
            annotated.append(UnsupportedEntry(
                experiment_id=record.id,
                note=("unsupported by model: leading speed correction is "
                      "linear, quadratic-order constraints do not apply"),
                inputs_echo=_echo(record, constants),
            ))
    numeric.sort(key=lambda r: r.delta_x_upper_bound)
    return numeric + annotated
