"""End-to-end command-line checks: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bosonwalk import __version__
from bosonwalk.cli import main

PACKET = {"kind": "sinc", "n": 16, "k0": [0.4, 0.0, 0.0], "x0": [8, 8, 8],
          "width": 2, "helicity": 0, "steps": 6, "sample_every": 1}


def run_cli(*argv):
    return main(list(argv))


def write_packet(tmp_path, **overrides):
    payload = {**PACKET, **overrides}
    path = tmp_path / "packet.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ------------------------------------------------------------------ surface

def test_surface_grid3_has_27_rows_and_flags_origin(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli("surface", "--grid", "3", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kx,ky,kz,phase,vx,vy,vz,speed,degenerate"
    assert len(lines) == 28
    origin = [ln for ln in lines[1:] if ln.startswith("0,0,0,")]
    assert len(origin) == 1
    assert origin[0].endswith(",,,,,1")


def test_surface_rows_lexicographic_and_phase_in_range(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli("surface", "--grid", "5", "--out", str(out)) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    triples = [tuple(float(c) for c in r[:3]) for r in rows]
    assert triples == sorted(triples)
    assert all(0.0 <= float(r[3]) <= math.pi for r in rows)


def test_surface_quarter_zone_diagonal_row(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli("surface", "--grid", "5", "--out", str(out)) == 0
    target = None
    for ln in out.read_text().strip().splitlines()[1:]:
        cells = ln.split(",")
        if all(np.isclose(float(c), math.pi / 2) for c in cells[:3]):
            target = cells
    assert target is not None
    assert np.isclose(float(target[3]), math.pi / 2, atol=1e-15)
    assert np.isclose(float(target[7]), 0.0, atol=1e-15)
    assert target[8] == "0"


def test_surface_identical_across_thread_counts(tmp_path):
    texts = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"surface-{threads}.csv"
        assert run_cli("surface", "--grid", "9", "--threads", threads,
                       "--out", str(out)) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_surface_json_mirrors_csv(tmp_path):
    out = tmp_path / "surface.json"
    assert run_cli("surface", "--grid", "3", "--format", "json",
                   "--out", str(out)) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 27
    origin = [r for r in rows if r["kx"] == r["ky"] == r["kz"] == 0.0]
    assert origin[0]["degenerate"] is True and origin[0]["vx"] is None


def test_surface_grid_out_of_range(tmp_path):
    assert run_cli("surface", "--grid", "1") == 2
    assert run_cli("surface", "--grid", "513") == 2


def test_surface_unwritable_path_leaves_no_partial_file(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli("surface", "--grid", "3", "--out", str(missing_dir)) == 3
    assert not missing_dir.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- propagate

def test_propagate_csv_trajectory(tmp_path):
    out = tmp_path / "trajectory.csv"
    packet = write_packet(tmp_path)
    assert run_cli("propagate", "--packet", packet, "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,cx,cy,cz,sx,sy,sz,norm"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0"
    assert [float(c) for c in first[1:4]] == [8.0, 8.0, 8.0]
    for ln in lines[1:]:
        assert np.isclose(float(ln.split(",")[7]), 1.0, atol=1e-12)


def test_propagate_json_summary(tmp_path):
    out = tmp_path / "summary.json"
    packet = write_packet(tmp_path)
    assert run_cli("propagate", "--packet", packet, "--format", "json",
                   "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["n"] == 16 and summary["steps"] == 6
    assert np.isclose(summary["analytic_velocity"][0], 1.0)
    # the measured rate tracks the mode-weighted prediction, which the
    # momentum spread of this wide packet pulls well below the axis speed
    measured = np.array(summary["measured_velocity"])
    predicted = np.array(summary["predicted_packet_velocity"])
    assert np.max(np.abs(measured - predicted)) <= 0.02
    assert summary["norm_drift"] <= 1e-12


def test_propagate_overrides_take_precedence(tmp_path):
    out = tmp_path / "summary.json"
    packet = write_packet(tmp_path)
    assert run_cli("propagate", "--packet", packet, "--format", "json",
                   "--n", "20", "--steps", "3", "--out", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["n"] == 20 and summary["steps"] == 3


def test_propagate_rejects_unknown_and_missing_fields(tmp_path):
    packet = write_packet(tmp_path, flavor="charm")
    assert run_cli("propagate", "--packet", packet) == 2
    payload = {k: v for k, v in PACKET.items() if k != "width"}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(payload))
    assert run_cli("propagate", "--packet", str(path)) == 2


def test_propagate_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("propagate", "--packet", str(path)) == 2


def test_propagate_missing_file_is_io_error():
    assert run_cli("propagate", "--packet", "/nonexistent/packet.json") == 3


def test_propagate_degenerate_momentum_is_numerical_error(tmp_path):
    packet = write_packet(tmp_path, k0=[0.0, 0.0, 0.0])
    assert run_cli("propagate", "--packet", packet) == 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value", [
    ("x0", [8.5, 8, 8]),
    ("steps", 4.7),
    ("helicity", True),
    ("k0", [float("nan"), 0.0, 0.0]),
])
def test_propagate_refuses_numbers_it_would_coerce(tmp_path, capsys,
                                                   field, value):
    # each of these used to be truncated, cast, or to end in a numpy warning
    packet = write_packet(tmp_path, **{field: value})
    assert run_cli("propagate", "--packet", packet) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]


def test_propagate_accepts_integral_floats(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("propagate", "--packet", write_packet(tmp_path),
                   "--out", str(a)) == 0
    packet = write_packet(tmp_path, x0=[8.0, 8.0, 8.0], steps=6.0, n=16.0,
                          helicity=0.0, sample_every=1.0)
    assert run_cli("propagate", "--packet", packet, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- anisotropy

def test_anisotropy_map_csv(tmp_path):
    out = tmp_path / "map.csv"
    assert run_cli("anisotropy", "--grid", "16", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,phi,s"
    assert len(lines) == 1 + 16 * 16
    values = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert max(values) <= 1 / (3 * math.sqrt(3)) + 1e-12


def test_anisotropy_stats_json(tmp_path):
    out = tmp_path / "stats.json"
    assert run_cli("anisotropy", "--grid", "64", "--format", "json",
                   "--out", str(out)) == 0
    st = json.loads(out.read_text())
    assert abs(st["mean"]) <= 1e-14
    assert np.isclose(st["rms_unit_average"], 1 / math.sqrt(105), atol=1e-10)
    assert np.isclose(st["spread"], 2 / (3 * math.sqrt(3)), atol=1e-9)
    assert np.isclose(st["argmax"]["phi"], math.pi / 4, atol=1e-8)


def test_anisotropy_grid_too_coarse():
    assert run_cli("anisotropy", "--grid", "8", "--format", "json") == 2


# ------------------------------------------------------------------- bounds

def test_bounds_csv_contains_published_scale(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,kind,delta_x_m,ratio_to_planck,normalization"
    numeric = [ln.split(",") for ln in lines[1:] if ",,," not in ln]
    assert len(numeric) == 4
    deltas = [float(r[2]) for r in numeric]
    assert deltas == sorted(deltas)
    sub = next(r for r in numeric if r[0] == "grb221009a-linear-subluminal")
    assert abs(float(sub[2]) - 5.7e-36) / 5.7e-36 <= 0.02
    annotated = [ln for ln in lines[1:] if ",,," in ln]
    assert len(annotated) == 2
    assert all("unsupported by model" in ln for ln in annotated)


def test_bounds_json_round_trip(tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--format", "json", "--out", str(out)) == 0
    entries = json.loads(out.read_text())
    assert len(entries) == 6
    numeric = [e for e in entries if "delta_x_upper_bound" in e]
    assert numeric[0]["experiment_id"] == "grb221009a-linear-superluminal"
    for e in numeric:
        echoed = e["inputs_echo"]["record"]
        assert echoed["id"] == e["experiment_id"]


def test_bounds_paper_compat_toggle(tmp_path):
    on, off = tmp_path / "on.json", tmp_path / "off.json"
    assert run_cli("bounds", "--format", "json", "--out", str(on)) == 0
    assert run_cli("bounds", "--format", "json", "--no-paper-compat",
                   "--out", str(off)) == 0
    get = lambda path: {e["experiment_id"]: e for e in json.loads(path.read_text())
                        if "delta_x_upper_bound" in e}
    compat = get(on)["resonator-infrared"]["delta_x_upper_bound"]
    first = get(off)["resonator-infrared"]["delta_x_upper_bound"]
    assert first > compat
    spread = 2 / (3 * math.sqrt(3))
    assert np.isclose(first / compat, 1 / spread**2, rtol=1e-12)


def test_bounds_custom_catalog(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{
        "id": "toy", "kind": "dispersion", "source": "test",
        "e_qg_lower_bound": 1e20, "liv_order": 1, "sign": 1}]))
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--experiments", str(path), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("toy,")


def test_bounds_invalid_catalog_is_config_error(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("[{]")
    assert run_cli("bounds", "--experiments", str(path)) == 2
    assert run_cli("bounds", "--experiments", str(tmp_path / "missing.json")) == 3


# ------------------------------------------------------------------- verify

def test_verify_passes_and_reports_enough_checks(capsys):
    assert run_cli("verify") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    named = [ln for ln in lines if ln.startswith("pass")]
    assert len(named) >= 20
    assert lines[-1].endswith("0 failed")


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("verify", "--seed", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True and report["seed"] == 3
    assert len(report["checks"]) >= 20
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"algebra", "kernel", "lattice", "anisotropy", "bounds"}


# ------------------------------------------------------------- entry points

def test_version_lists_constants():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
    assert "hbar_c" in proc.stdout and "1.973269804e-16" in proc.stdout
    assert "planck_length" in proc.stdout


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "transmogrify"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_positional_arguments_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "surface", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_propagate_deterministic_across_runs(tmp_path):
    packet = write_packet(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("propagate", "--packet", packet, "--out", str(a)) == 0
    assert run_cli("propagate", "--packet", packet, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
