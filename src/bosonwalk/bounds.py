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
from dataclasses import asdict, dataclass
from typing import Optional, Union

from . import CONSTANTS, RMS_SOLID_ANGLE, RMS_UNIT_AVERAGE, SPREAD_MAX, budget
from .errors import (
    ArgumentOutOfRangeError,
    CatalogParseError,
    CatalogValidationError,
    MissingWavelengthError,
    UnsupportedOrderError,
)

DISPERSION = "dispersion"
ANISOTROPY = "anisotropy"

NORMALIZATIONS = {
    "paper_rms": RMS_SOLID_ANGLE,
    "unit_average_rms": RMS_UNIT_AVERAGE,
    "max_spread": SPREAD_MAX,
}


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used in bound conversions; echoed with every result."""

    hbar_c: float = CONSTANTS["hbar_c"]
    planck_length: float = CONSTANTS["planck_length"]
    speed_of_light: float = CONSTANTS["speed_of_light"]

    def __post_init__(self):
        for name in CONSTANTS:
            if getattr(self, name) <= 0:
                raise ArgumentOutOfRangeError(f"{name} must be positive")

    @classmethod
    def rounded(cls) -> "PhysicalConstants":
        """The coarser hbar c = 2e-7 eV m often used in quick estimates."""
        return cls(hbar_c=2e-16)

    def as_dict(self) -> dict:
        return asdict(self)


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

    def __post_init__(self):
        self.validate()  # so every record in hand is valid

    def validate(self) -> None:
        # NaN passes every ordered comparison below, so test it first
        for name in ("e_qg_lower_bound", "delta_c_over_c", "wavelength"):
            if not math.isfinite(getattr(self, name) or 0.0):
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


@dataclass(frozen=True)
class BoundResult:
    """A numeric lattice-spacing bound with full input provenance."""

    experiment_id: str
    delta_x_upper_bound: float  # m
    ratio_to_planck: float
    normalization_used: str
    inputs_echo: dict
    alternate_delta_x_upper_bound: Optional[float] = None
    note: Optional[str] = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.delta_x_upper_bound, self.ratio_to_planck,
                                       self.alternate_delta_x_upper_bound or 0.0))):
            raise OverflowError(f"record {self.experiment_id!r}: bound is not finite")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class UnsupportedEntry:
    """Catalog entry the model cannot convert into a number."""

    experiment_id: str
    note: str
    inputs_echo: dict

    def as_dict(self) -> dict:
        return asdict(self)


CatalogEntry = Union[BoundResult, UnsupportedEntry]


def _echo(record: ExperimentRecord, constants: PhysicalConstants,
          **factors) -> dict:
    return {"record": asdict(record), "constants": constants.as_dict(),
            **factors}


def dispersion_bound(record: ExperimentRecord, constants: PhysicalConstants,
                     rms_factor: float = RMS_SOLID_ANGLE,
                     normalization: str = "paper_rms") -> BoundResult:
    """dx <= hbar c / (rms_factor * E_QG) for a linear-order record.

    Quadratic-order records are rejected: the walk's leading correction
    is strictly linear, so it predicts no quadratic-leading dispersion
    for such a record to constrain.
    """
    if record.kind != DISPERSION:
        raise ArgumentOutOfRangeError(
            f"record {record.id!r} is not a dispersion record")
    if rms_factor <= 0:
        raise ArgumentOutOfRangeError("rms_factor must be positive")
    if record.liv_order == 2:
        raise UnsupportedOrderError(
            f"record {record.id!r} constrains quadratic-order dispersion; "
            "the model's leading speed correction is linear, so this record "
            "does not translate into a spacing bound")
    try:
        dx = constants.hbar_c / (rms_factor * record.e_qg_lower_bound)
    except ZeroDivisionError:  # a subnormal E_QG times rms_factor rounds to 0
        raise OverflowError(f"record {record.id!r}: bound is not finite") from None
    return BoundResult(
        experiment_id=record.id,
        delta_x_upper_bound=dx,
        ratio_to_planck=dx / constants.planck_length,
        normalization_used=normalization,
        inputs_echo=_echo(record, constants, rms_factor=rms_factor),
    )


def anisotropy_bound(record: ExperimentRecord, constants: PhysicalConstants,
                     spread_factor: float = SPREAD_MAX,
                     paper_compat: bool = True) -> BoundResult:
    """Resonator bound dx from Delta c / c at wavelength lambda.

    First principles: Delta c / c ~= spread_factor * (E dx / hbar c) with
    E = c h / lambda gives dx <= (Delta c / c) / spread_factor * lambda /
    2 pi.  With paper_compat the spread factor multiplies instead, which
    matches published example figures; when the two readings differ by
    more than 1% both are returned.
    """
    if record.kind != ANISOTROPY:
        raise ArgumentOutOfRangeError(
            f"record {record.id!r} is not an anisotropy record")
    if spread_factor <= 0:
        raise ArgumentOutOfRangeError("spread_factor must be positive")
    if record.wavelength is None:
        raise MissingWavelengthError(
            f"record {record.id!r} has no wavelength; the photon energy "
            "is undefined")
    scale = record.delta_c_over_c * record.wavelength / (2.0 * math.pi)
    compat = scale * spread_factor
    first_principles = scale / spread_factor
    dx, alt = (compat, first_principles) if paper_compat else (first_principles, compat)
    note = None
    if abs(dx - alt) > 0.01 * max(dx, alt):
        note = ("spread-factor normalization ambiguity: multiplying by the "
                f"spread gives {compat:.6e} m, dividing gives "
                f"{first_principles:.6e} m")
    return BoundResult(
        experiment_id=record.id,
        delta_x_upper_bound=dx,
        ratio_to_planck=dx / constants.planck_length,
        normalization_used="max_spread",
        inputs_echo=_echo(record, constants, spread_factor=spread_factor,
                          paper_compat=paper_compat),
        alternate_delta_x_upper_bound=alt if note else None,
        note=note,
    )


def time_lag(distance: float, e_high: float, e_low: float, e_qg: float,
             n: int = 1, s: int = 1) -> float:
    """Arrival-time difference in seconds between two photon energies.

    dt = s (d / c) ((n + 1) / 2) (e_high^n - e_low^n) / e_qg^n; positive
    means the higher-energy photon arrives later (subluminal, s = +1).
    Flat space, no cosmological redshift weighting.
    """
    if distance <= 0:
        raise ArgumentOutOfRangeError("distance must be positive")
    if not e_high >= e_low >= 0:
        raise ArgumentOutOfRangeError("need e_high >= e_low >= 0")
    if e_qg <= 0:
        raise ArgumentOutOfRangeError("e_qg must be positive")
    if n not in (1, 2):
        raise ArgumentOutOfRangeError(f"order n must be 1 or 2, got {n}")
    if s not in (1, -1):
        raise ArgumentOutOfRangeError(f"sign s must be +1 or -1, got {s}")
    c = PhysicalConstants().speed_of_light
    return s * (distance / c) * ((n + 1) / 2.0) * (e_high**n - e_low**n) / e_qg**n


_RECORD_FIELDS = {
    "id": str,
    "kind": str,
    "source": str,
    "e_qg_lower_bound": (int, float),
    "liv_order": int,
    "sign": int,
    "delta_c_over_c": (int, float),
    "wavelength": (int, float),
}
_REQUIRED_FIELDS = ("id", "kind", "source")


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
        if key in ("e_qg_lower_bound", "delta_c_over_c", "wavelength"):
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


@dataclass(frozen=True)
class CatalogOptions:
    """run_catalog's normalization (a NORMALIZATIONS key) and paper_compat
    (see anisotropy_bound); defaults reproduce the published arithmetic."""

    normalization: str = "paper_rms"
    paper_compat: bool = True

    def resolved_rms_factor(self) -> float:
        if self.normalization not in NORMALIZATIONS:
            raise ArgumentOutOfRangeError(
                f"unknown normalization {self.normalization!r}")
        return NORMALIZATIONS[self.normalization]


def run_catalog(records, constants: PhysicalConstants,
                options: Optional[CatalogOptions] = None) -> list[CatalogEntry]:
    """Convert every applicable record; annotate the rest.

    Numeric results come first, sorted by bound ascending (tightest
    first); entries the model cannot convert follow in input order with
    an explanatory note.
    """
    options = options or CatalogOptions()
    numeric = []
    annotated = []
    for record in records:
        if record.kind == DISPERSION and record.liv_order == 2:
            annotated.append(UnsupportedEntry(
                experiment_id=record.id,
                note=("unsupported by model: leading speed correction is "
                      "linear, quadratic-order constraints do not apply"),
                inputs_echo=_echo(record, constants),
            ))
        elif record.kind == DISPERSION:
            numeric.append(dispersion_bound(
                record, constants, options.resolved_rms_factor(),
                options.normalization))
        else:
            numeric.append(anisotropy_bound(
                record, constants, paper_compat=options.paper_compat))
    numeric.sort(key=lambda r: r.delta_x_upper_bound)
    return numeric + annotated
