"""Constraint records, spacing bounds, time lags, and the bundled catalog."""

import csv
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk.anisotropy import RMS_SOLID_ANGLE, RMS_UNIT_AVERAGE, SPREAD_MAX
from bosonwalk.bounds import (
    BoundResult,
    ExperimentRecord,
    PhysicalConstants,
    UnsupportedEntry,
    _parse_record,
    anisotropy_bound,
    bundled_catalog_path,
    dispersion_bound,
    load_experiments,
    run_catalog,
    time_lag,
)
from bosonwalk.cli import main as cli_main
from bosonwalk.errors import (
    ArgumentOutOfRangeError,
    CatalogParseError,
    CatalogValidationError,
    MissingWavelengthError,
    UnsupportedOrderError,
)

GRB_SUB = ExperimentRecord(
    id="grb-sub", kind="dispersion", source="test",
    e_qg_lower_bound=1e20, liv_order=1, sign=1)
GRB_SUPER = ExperimentRecord(
    id="grb-super", kind="dispersion", source="test",
    e_qg_lower_bound=1.1e20, liv_order=1, sign=-1)
RESONATOR = ExperimentRecord(
    id="resonator", kind="anisotropy", source="test",
    delta_c_over_c=1e-18, wavelength=1e-6)


def test_constants_defaults_and_rounded():
    c = PhysicalConstants()
    assert c.hbar_c == 1.973269804e-16
    assert c.planck_length == 1.6e-35
    assert c.speed_of_light == 2.99792458e8
    rounded = PhysicalConstants(hbar_c=2e-16)
    assert (rounded.hbar_c, rounded.planck_length, rounded.speed_of_light) == (
        2e-16, c.planck_length, c.speed_of_light)
    with pytest.raises(ArgumentOutOfRangeError):
        PhysicalConstants(hbar_c=-1.0)


def test_grb_bound_with_quoted_rms_factor():
    res = dispersion_bound(GRB_SUB, PhysicalConstants(), rms_factor=0.346)
    assert np.isclose(res.delta_x_upper_bound, 5.703092e-36, rtol=1e-6)
    # within 2% of the published rough figure
    assert abs(res.delta_x_upper_bound - 5.8e-36) / 5.8e-36 <= 0.02
    assert np.isclose(res.ratio_to_planck, 0.36, atol=0.01)


def test_grb_bound_with_rounded_constants_reproduces_rough_figure():
    res = dispersion_bound(GRB_SUB, PhysicalConstants(hbar_c=2e-16), rms_factor=0.346)
    assert np.isclose(res.delta_x_upper_bound, 5.78e-36, rtol=5e-4)
    codata = dispersion_bound(GRB_SUB, PhysicalConstants(), rms_factor=0.346)
    rel = abs(res.delta_x_upper_bound - codata.delta_x_upper_bound)
    assert rel / res.delta_x_upper_bound < 0.02


def test_grb_bound_with_exact_rms_default():
    res = dispersion_bound(GRB_SUB, PhysicalConstants())
    expected = 1.973269804e-16 / (RMS_SOLID_ANGLE * 1e20)
    assert np.isclose(res.delta_x_upper_bound, expected, rtol=1e-14)
    assert np.isclose(res.delta_x_upper_bound, 5.7039562748594834e-36, rtol=1e-12)
    assert res.normalization_used == "paper_rms"
    assert res.inputs_echo["rms_factor"] == RMS_SOLID_ANGLE
    assert res.inputs_echo["record"]["id"] == "grb-sub"


def test_only_the_paper_factor_is_labelled_paper_rms():
    # the label agrees with the echoed factor; 0.346 is the paper's rounded
    for rms in (0.346, RMS_UNIT_AVERAGE, SPREAD_MAX):
        res = dispersion_bound(GRB_SUB, PhysicalConstants(), rms)
        assert res.normalization_used == "custom_rms"
        assert res.inputs_echo["rms_factor"] == rms


def test_superluminal_record_is_tighter():
    sub = dispersion_bound(GRB_SUB, PhysicalConstants())
    sup = dispersion_bound(GRB_SUPER, PhysicalConstants())
    assert sup.delta_x_upper_bound < sub.delta_x_upper_bound
    assert np.isclose(sup.delta_x_upper_bound, 5.185414795326803e-36, rtol=1e-12)


def test_dispersion_bound_self_inverse():
    rec = ExperimentRecord(id="unit", kind="dispersion", source="t",
                           e_qg_lower_bound=1.973269804e-16, liv_order=1, sign=1)
    res = dispersion_bound(rec, PhysicalConstants(), rms_factor=1.0)
    assert np.isclose(res.delta_x_upper_bound, 1.0, rtol=1e-14)


def test_dispersion_bound_rejects_quadratic_records():
    rec = ExperimentRecord(id="quad", kind="dispersion", source="t",
                           e_qg_lower_bound=6.9e11, liv_order=2, sign=1)
    with pytest.raises(UnsupportedOrderError):
        dispersion_bound(rec, PhysicalConstants())


def test_dispersion_bound_input_validation():
    with pytest.raises(ArgumentOutOfRangeError):
        dispersion_bound(RESONATOR, PhysicalConstants())
    with pytest.raises(ArgumentOutOfRangeError):
        dispersion_bound(GRB_SUB, PhysicalConstants(), rms_factor=0.0)


def test_dispersion_bound_monotone_in_energy_scale():
    prev = math.inf
    for e in np.logspace(18, 22, 9):
        rec = ExperimentRecord(id="e", kind="dispersion", source="t",
                               e_qg_lower_bound=float(e), liv_order=1, sign=1)
        dx = dispersion_bound(rec, PhysicalConstants()).delta_x_upper_bound
        assert dx < prev
        prev = dx


def test_ratio_to_planck_consistency():
    c = PhysicalConstants()
    for res in (dispersion_bound(GRB_SUB, c),
                anisotropy_bound(RESONATOR, c)):
        rel = abs(res.ratio_to_planck * c.planck_length - res.delta_x_upper_bound)
        assert rel <= 1e-15 * res.delta_x_upper_bound


def test_resonator_bound_paper_compat():
    res = anisotropy_bound(RESONATOR, PhysicalConstants())
    assert np.isclose(res.delta_x_upper_bound, 6.12587661579769e-26, rtol=1e-12)
    # within 10% of the published rough figure
    assert abs(res.delta_x_upper_bound - 6.5e-26) / 6.5e-26 <= 0.10
    assert res.normalization_used == "max_spread"
    # the ambiguity is surfaced: the other reading differs by 1/spread^2
    assert res.note is not None
    assert res.alternate_delta_x_upper_bound is not None
    ratio = res.alternate_delta_x_upper_bound / res.delta_x_upper_bound
    assert np.isclose(ratio, 1 / SPREAD_MAX**2, rtol=1e-12)


def test_resonator_bound_first_principles():
    res = anisotropy_bound(RESONATOR, PhysicalConstants(), paper_compat=False)
    expected = 1e-18 / SPREAD_MAX * 1e-6 / (2 * math.pi)
    assert np.isclose(res.delta_x_upper_bound, expected, rtol=1e-14)
    assert np.isclose(res.alternate_delta_x_upper_bound, 6.12587661579769e-26,
                      rtol=1e-12)


def test_resonator_bound_linear_in_wavelength():
    base = anisotropy_bound(RESONATOR, PhysicalConstants()).delta_x_upper_bound
    microwave = ExperimentRecord(id="mw", kind="anisotropy", source="t",
                                 delta_c_over_c=1e-18, wavelength=2e-2)
    res = anisotropy_bound(microwave, PhysicalConstants()).delta_x_upper_bound
    assert np.isclose(res / base, 2e4, rtol=1e-12)


def test_resonator_bound_vanishes_with_constraint():
    for dc in (1e-20, 1e-25, 1e-30):
        rec = ExperimentRecord(id="x", kind="anisotropy", source="t",
                               delta_c_over_c=dc, wavelength=1e-6)
        res = anisotropy_bound(rec, PhysicalConstants())
        assert np.isclose(res.delta_x_upper_bound,
                          dc * SPREAD_MAX * 1e-6 / (2 * math.pi), rtol=1e-12)


@pytest.mark.parametrize("paper_compat", [True, False])
def test_resonator_bound_refuses_either_reading_past_the_float_range(paper_compat):
    # the dividing reading's ratio to the Planck length overflows (5.2e308)
    # while the multiplying one's, SPREAD_MAX**2 of it, stays finite:
    # refused whichever of the two is primary
    record = replace(RESONATOR, wavelength=2e292)
    with pytest.raises(OverflowError, match="^record 'resonator': "
                                            "bound is not finite$"):
        anisotropy_bound(record, PhysicalConstants(), paper_compat)


BELOW_NORMAL = "bound is below the normal float range$"


def test_dispersion_bound_refuses_a_subnormal_bound():
    # hbar c / (r 1e308 GeV) printed as 4.94e-324 m, one significant bit
    record = replace(GRB_SUB, e_qg_lower_bound=1e308)
    with pytest.raises(OverflowError, match="^record 'grb-sub': " + BELOW_NORMAL):
        dispersion_bound(record, PhysicalConstants())


@pytest.mark.parametrize("paper_compat", [True, False])
@pytest.mark.parametrize("delta_c_over_c, wavelength", [
    (1e-200, 1e-200),  # both readings round to 0 m
    # only the multiplying reading is subnormal: 1.2e-308 m against 7.8e-308 m
    (1e-150, 2.0 * math.pi * 3e-158),
])
def test_resonator_bound_refuses_either_reading_below_the_normal_range(
        delta_c_over_c, wavelength, paper_compat):
    record = replace(RESONATOR, delta_c_over_c=delta_c_over_c,
                     wavelength=wavelength)
    with pytest.raises(OverflowError, match="^record 'resonator': " + BELOW_NORMAL):
        anisotropy_bound(record, PhysicalConstants(), paper_compat=paper_compat)


def test_resonator_bound_requires_wavelength():
    rec = ExperimentRecord(id="nolambda", kind="anisotropy", source="t",
                           delta_c_over_c=1e-18)
    with pytest.raises(MissingWavelengthError):
        anisotropy_bound(rec, PhysicalConstants())


INVALID_CHANGES = [
    (GRB_SUB, {"sign": 0}, "record 'grb-sub': sign must be +1 or -1"),
    (GRB_SUB, {"liv_order": 3}, "record 'grb-sub': liv_order must be 1 or 2"),
    (GRB_SUB, {"e_qg_lower_bound": math.nan},
     "record 'grb-sub': e_qg_lower_bound must be finite"),
    (GRB_SUB, {"kind": "other"}, "record 'grb-sub': unknown kind 'other'"),
    (RESONATOR, {"delta_c_over_c": None},
     "record 'resonator': delta_c_over_c must be positive"),
    (RESONATOR, {"wavelength": -1e-6},
     "record 'resonator': wavelength must be positive"),
]


@pytest.mark.parametrize("record, change, message", INVALID_CHANGES)
def test_an_invalid_record_cannot_be_built(record, change, message):
    # validate() runs when a record is built, so no invalid record exists
    with pytest.raises(CatalogValidationError) as built:
        ExperimentRecord(**{**asdict(record), **change})
    with pytest.raises(CatalogValidationError) as replaced:
        replace(record, **change)
    assert str(built.value) == str(replaced.value) == message


# ---------------------------------------------------------------- time lag

def test_time_lag_zero_for_equal_energies():
    assert time_lag(1e20, 1.0, 1.0, 1e20) == 0.0


def test_time_lag_linear_example():
    c = PhysicalConstants().speed_of_light
    lag = time_lag(c * 1.0, 1.0, 0.0, 1e20)
    assert np.isclose(lag, 1e-20, rtol=1e-14)


def test_time_lag_scaling_and_sign():
    c = PhysicalConstants().speed_of_light
    base = time_lag(c, 2.0, 1.0, 1e20)
    assert base > 0  # the higher energy arrives later
    assert np.isclose(time_lag(c, 2.0, 1.0, 2e20), base / 2, rtol=1e-14)
    assert np.isclose(time_lag(2 * c, 3.0, 1.0, 1e20), 4 * base, rtol=1e-14)


def test_time_lag_where_the_energy_product_leaves_the_float_range():
    c = PhysicalConstants().speed_of_light
    # scale * e_high overflows; the energy ratio is 1e-100
    assert time_lag(1e300, 1e100, 0.0, 1e200) == 1e300 / c * 1e-100
    # scale * e_high underflows to 0; the energy ratio is 1
    assert time_lag(1.0, 1e-320, 0.0, 1e-320) == 1 / c


def test_time_lag_validation():
    with pytest.raises(ArgumentOutOfRangeError):
        time_lag(-1.0, 1.0, 0.0, 1e20)
    with pytest.raises(ArgumentOutOfRangeError):
        time_lag(1.0, 0.5, 1.0, 1e20)
    with pytest.raises(ArgumentOutOfRangeError):
        time_lag(1.0, 1.0, 0.0, 0.0)


# ----------------------------------------------------------------- catalog

def test_bundled_catalog_loads_and_validates():
    records = load_experiments(bundled_catalog_path())
    assert len(records) == 6
    ids = [r.id for r in records]
    assert len(set(ids)) == 6
    kinds = {r.kind for r in records}
    assert kinds == {"dispersion", "anisotropy"}
    for r in records:
        assert replace(r) == r  # rebuilding runs the record's validation
        assert r.source


def test_run_catalog_on_bundled_records():
    records = load_experiments(bundled_catalog_path())
    entries = run_catalog(records, PhysicalConstants())
    numeric = [e for e in entries if isinstance(e, BoundResult)]
    annotated = [e for e in entries if isinstance(e, UnsupportedEntry)]
    assert len(numeric) == 4 and len(annotated) == 2
    bounds = [e.delta_x_upper_bound for e in numeric]
    assert bounds == sorted(bounds)
    # tightest: the superluminal GRB record (largest energy scale)
    assert numeric[0].experiment_id == "grb221009a-linear-superluminal"
    by_id = {r.id: r for r in records}
    dispersion = [e for e in numeric
                  if by_id[e.experiment_id].kind == "dispersion"]
    assert len(dispersion) == 2
    for e in dispersion:
        assert e == dispersion_bound(by_id[e.experiment_id], PhysicalConstants())
        assert e.normalization_used == "paper_rms"
    for e in annotated:
        assert "unsupported by model" in e.note
        assert e.inputs_echo["record"]["liv_order"] == 2


def test_run_catalog_empty():
    assert run_catalog([], PhysicalConstants()) == []


# ------------------------------------------------------------ file parsing

def write_catalog(tmp_path, payload):
    path = tmp_path / "catalog.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def test_load_rejects_invalid_json(tmp_path):
    path = write_catalog(tmp_path, "[{not json")
    with pytest.raises(CatalogParseError, match="line"):
        load_experiments(path)


@pytest.mark.parametrize("payload, cause", [
    (b"[" * 100000, "maximum recursion depth exceeded"),
    (b'[{"id": "\xff"}]', "'utf-8' codec can't decode byte 0xff in position 9"),
])
def test_load_rejects_deep_nesting_and_undecodable_bytes(tmp_path, payload, cause):
    path = tmp_path / "catalog.json"
    path.write_bytes(payload)
    with pytest.raises(CatalogParseError,
                       match=f"^{re.escape(f'{path}: invalid JSON: {cause}')}"):
        load_experiments(path)


def test_load_rejects_non_array(tmp_path):
    path = write_catalog(tmp_path, {"id": "x"})
    with pytest.raises(CatalogParseError, match="array"):
        load_experiments(path)


def test_load_rejects_unknown_field(tmp_path):
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "dispersion", "source": "t",
        "e_qg_lower_bound": 1e20, "liv_order": 1, "sign": 1,
        "flavor": "strange"}])
    with pytest.raises(CatalogParseError,
                       match="^record at index 0: unknown field 'flavor'$"):
        load_experiments(path)


def test_bundled_records_parse_back_from_their_fields():
    # the schema is the dataclass's fields: every field a record sets is
    # accepted under its own name and type, and the unset ones may be left out
    for index, record in enumerate(load_experiments(bundled_catalog_path())):
        item = {k: v for k, v in asdict(record).items() if v is not None}
        assert _parse_record(item, index) == record


def test_load_rejects_missing_required_field(tmp_path):
    path = write_catalog(tmp_path, [{"kind": "dispersion", "source": "t"}])
    with pytest.raises(CatalogParseError, match="id"):
        load_experiments(path)


def test_load_rejects_wrong_type(tmp_path):
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "dispersion", "source": "t",
        "e_qg_lower_bound": "big", "liv_order": 1, "sign": 1}])
    with pytest.raises(CatalogParseError, match="e_qg_lower_bound"):
        load_experiments(path)


def test_load_rejects_negative_bound(tmp_path):
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "dispersion", "source": "t",
        "e_qg_lower_bound": -1e20, "liv_order": 1, "sign": 1}])
    with pytest.raises(CatalogValidationError, match="positive"):
        load_experiments(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("record", [
    {"id": "x", "kind": "dispersion", "source": "t",
     "e_qg_lower_bound": 1e20, "liv_order": 1, "sign": 1},
    {"id": "x", "kind": "anisotropy", "source": "t",
     "delta_c_over_c": 1e-18, "wavelength": 1e-6},
])
def test_load_rejects_non_finite_numbers(tmp_path, record, value):
    # NaN compares false against every bound, and infinity gave a 0 m bound
    for field in ("e_qg_lower_bound", "delta_c_over_c", "wavelength"):
        if field not in record:
            continue
        path = write_catalog(tmp_path, [{**record, field: value}])
        with pytest.raises(CatalogValidationError, match="finite"):
            load_experiments(path)
        assert cli_main(["bounds", "--experiments", str(path)]) == 2


def test_load_rejects_integer_too_large_for_a_float(tmp_path, capsys):
    # float() of a 401-digit JSON integer raised OverflowError: a traceback
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "dispersion", "source": "t",
        "e_qg_lower_bound": 10**400, "liv_order": 1, "sign": 1}])
    with pytest.raises(CatalogParseError, match="e_qg_lower_bound"):
        load_experiments(path)
    assert cli_main(["bounds", "--experiments", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "too large" in err[0]


@pytest.mark.parametrize("record_id", ["a\rb", "a\nb", "tab\there", "\x00", "x\u2028"])
def test_load_rejects_an_unprintable_id(tmp_path, capsys, record_id):
    # a lone carriage return was written unquoted and read back as two rows
    path = write_catalog(tmp_path, [{
        "id": record_id, "kind": "anisotropy", "source": "t",
        "delta_c_over_c": 1e-18, "wavelength": 1e-6}])
    with pytest.raises(CatalogParseError, match="field 'id' holds an unprintable"):
        load_experiments(path)
    assert cli_main(["bounds", "--experiments", str(path)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_load_rejects_duplicate_ids(tmp_path):
    rec = {"id": "x", "kind": "anisotropy", "source": "t",
           "delta_c_over_c": 1e-18, "wavelength": 1e-6}
    path = write_catalog(tmp_path, [rec, rec])
    with pytest.raises(CatalogValidationError, match="duplicate"):
        load_experiments(path)


def test_load_rejects_bad_enum_values(tmp_path):
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "dispersion", "source": "t",
        "e_qg_lower_bound": 1e20, "liv_order": 3, "sign": 1}])
    with pytest.raises(CatalogValidationError, match="liv_order"):
        load_experiments(path)
    path = write_catalog(tmp_path, [{
        "id": "x", "kind": "telepathy", "source": "t"}])
    with pytest.raises(CatalogValidationError, match="kind"):
        load_experiments(path)


# ------------------------------------------------------------ bound algebra

# physical ranges, far from the float range's edges, so that every product
# below is a normal float; a few repeated values give ties in run_catalog
energies = st.one_of(st.floats(1e10, 1e25), st.sampled_from([1e19, 3e19]))
speed_limits = st.one_of(st.floats(1e-20, 1e-3), st.sampled_from([1e-18]))
wavelengths = st.one_of(st.floats(1e-9, 1e2), st.sampled_from([1e-6]))


def _dispersion_records(order=st.just(1)):
    return st.builds(
        ExperimentRecord, id=st.just("r"), kind=st.just("dispersion"),
        source=st.just("fuzz"), e_qg_lower_bound=energies, liv_order=order,
        sign=st.sampled_from([1, -1]))


resonator_records = st.builds(
    ExperimentRecord, id=st.just("r"), kind=st.just("anisotropy"),
    source=st.just("fuzz"), delta_c_over_c=speed_limits, wavelength=wavelengths)
catalog_records = st.lists(st.one_of(
    _dispersion_records(st.sampled_from([1, 2])), resonator_records),
    min_size=1, max_size=8).map(
        lambda records: [replace(r, id=f"r{i}") for i, r in enumerate(records)])


@settings(max_examples=100, deadline=None)
@given(record=_dispersion_records(),
       rms=st.sampled_from([RMS_SOLID_ANGLE, RMS_UNIT_AVERAGE, SPREAD_MAX]))
def test_property_dispersion_bound_times_scale_is_hbar_c(record, rms):
    constants = PhysicalConstants()
    dx = dispersion_bound(record, constants, rms).delta_x_upper_bound
    # four roundings: r E, the quotient, and the two products here
    assert abs(dx * rms * record.e_qg_lower_bound - constants.hbar_c) \
        <= 4 * math.ulp(constants.hbar_c)


@settings(max_examples=100, deadline=None)
@given(record=resonator_records)
def test_property_resonator_readings_multiply_to_scale_squared(record):
    constants = PhysicalConstants()
    compat, first = (anisotropy_bound(record, constants, paper_compat)
                     for paper_compat in (True, False))
    a, b = compat.delta_x_upper_bound, first.delta_x_upper_bound
    scale = record.delta_c_over_c * record.wavelength / (2.0 * math.pi)
    assert abs(a * b - scale**2) <= 4 * math.ulp(scale**2)
    # the readings differ by the factor SPREAD_MAX**2: each reports the other
    for result, other in ((compat, b), (first, a)):
        assert result.note is not None
        assert result.alternate_delta_x_upper_bound == other


def _ties_as_sets(entries):
    """The numeric entries' bounds in order, each with the set of its ids."""
    groups = {}
    for e in entries:
        if isinstance(e, BoundResult):
            groups.setdefault(e.delta_x_upper_bound, set()).add(e.experiment_id)
    return list(groups.items())


@settings(max_examples=60, deadline=None)
@given(records=catalog_records, data=st.data())
def test_property_run_catalog_order_ignores_input_order(records, data):
    shuffled = data.draw(st.permutations(records))
    constants = PhysicalConstants()
    entries = run_catalog(records, constants)
    numeric = [e for e in entries if isinstance(e, BoundResult)]
    assert entries[:len(numeric)] == numeric  # numbers first, then notes
    bounds = [e.delta_x_upper_bound for e in numeric]
    assert bounds == sorted(bounds)
    assert _ties_as_sets(run_catalog(shuffled, constants)) == _ties_as_sets(entries)


@settings(max_examples=20, deadline=None)
@given(records=catalog_records, compat=st.booleans())
def test_property_csv_and_json_carry_the_same_numbers(tmp_path_factory, records,
                                                      compat):
    tmp = tmp_path_factory.mktemp("catalog")
    catalog = tmp / "catalog.json"
    catalog.write_text(json.dumps([
        {k: v for k, v in asdict(r).items() if v is not None} for r in records]))
    flag = "--paper-compat" if compat else "--no-paper-compat"
    for fmt in ("csv", "json"):
        assert cli_main(["bounds", "--experiments", str(catalog), flag,
                         "--format", fmt, "--out", str(tmp / fmt)]) == 0
    with open(tmp / "csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    items = json.loads((tmp / "json").read_text())
    assert [row["id"] for row in rows] == [item["experiment_id"] for item in items]
    for row, item in zip(rows, items):
        if "delta_x_upper_bound" in item:
            assert float(row["delta_x_m"]) == item["delta_x_upper_bound"]
            assert float(row["ratio_to_planck"]) == item["ratio_to_planck"]
            assert row["normalization"] == item["normalization_used"]
        else:
            assert (row["delta_x_m"], row["ratio_to_planck"]) == ("", "")
            assert row["normalization"] == item["note"]
