"""End-to-end command-line checks: formats, exit codes, determinism."""

import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bosonwalk import __version__, budget, cli, errors
from bosonwalk.cli import PACKET_FIELDS, _surface_chunks, main
from bosonwalk.kernel import surface_table

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


def reference_surface(m, fmt):
    """The surface text written one row at a time: `.17g` CSV cells, and
    json.dumps over a list of one dict per row."""
    t = surface_table(m)
    # the coordinates of each row, lexicographic in (kx, ky, kz)
    a = t.pop("axis")
    t.update(zip(("kx", "ky", "kz"),
                 (g.ravel() for g in np.meshgrid(a, a, a, indexing="ij"))))
    if fmt == "csv":
        lines = ["kx,ky,kz,phase,vx,vy,vz,speed,degenerate"]
        for j in range(t["kx"].size):
            head = ",".join(format(float(t[k][j]), ".17g")
                            for k in ("kx", "ky", "kz", "phase"))
            if t["degenerate"][j]:
                lines.append(head + ",,,,,1")
            else:
                lines.append(head + "," + ",".join(
                    format(float(t[k][j]), ".17g")
                    for k in ("vx", "vy", "vz", "speed")) + ",0")
        return "\n".join(lines) + "\n"
    rows = []
    for j in range(t["kx"].size):
        degenerate = bool(t["degenerate"][j])
        row = {k: float(t[k][j]) for k in ("kx", "ky", "kz", "phase")}
        row["degenerate"] = degenerate
        row.update({k: None if degenerate else float(t[k][j])
                    for k in ("vx", "vy", "vz", "speed")})
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 24), fmt=st.sampled_from(["csv", "json"]))
@example(m=7, fmt="csv")   # odd grid with both 0.0 and -0.0 velocities
@example(m=7, fmt="json")
@example(m=33, fmt="csv")  # odd, and past the drawn grids
@example(m=33, fmt="json")
def test_surface_bytes_match_per_row_reference(tmp_path_factory, m, fmt):
    out = tmp_path_factory.mktemp("surface") / f"surface.{fmt}"
    assert run_cli("surface", "--grid", str(m), "--format", fmt,
                   "--out", str(out)) == 0
    got, want = out.read_text(), reference_surface(m, fmt)
    same = got == want  # outside the assert: pytest would diff the whole texts
    assert same, next(f"line {i}: {a!r} != {b!r}" for i, (a, b) in enumerate(
        itertools.zip_longest(got.splitlines(True), want.splitlines(True)), 1)
        if a != b)


def test_surface_reference_covers_signed_zeros_and_degenerate_rows():
    # the grid the property test always includes has what it must tell apart
    t = surface_table(7)
    v = np.concatenate([t[k][~t["degenerate"]] for k in ("vx", "vy", "vz")])
    assert np.any((v == 0) & np.signbit(v)) and np.any((v == 0) & ~np.signbit(v))
    assert t["degenerate"].any() and not t["degenerate"].all()
    # and both texts of a negative value: "-" and its magnitude's text where
    # that magnitude occurs (35 distinct nonzero values), its own where not (41)
    values = np.concatenate([t[k] for k in ("phase", "vx", "vy", "vz", "speed")])
    negative = values[values < 0]
    occurs = np.isin(-negative, values)
    assert occurs.any() and not occurs.all()


def test_surface_json_streams_without_holding_its_text(tmp_path):
    out = tmp_path / "surface.json"
    tracemalloc.start()
    try:
        assert run_cli("surface", "--grid", "32", "--format", "json",
                       "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_surface_peaks_under_128_bytes_per_point(fmt):
    # np.unique's copies of the value bits peaked at 253 bytes per point, and
    # full m^3 index grids held beside the strings at 133 (csv) and 137 (json)
    for _ in _surface_chunks(2, fmt):  # what a first call imports is not counted
        pass
    tracemalloc.start()
    try:
        for _ in _surface_chunks(48, fmt):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 48**3


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


def test_propagate_fits_the_trajectory_only_where_json_reads_it(
        tmp_path, monkeypatch):
    packet = write_packet(tmp_path)
    plain, counted = tmp_path / "plain.csv", tmp_path / "counted.csv"
    assert run_cli("propagate", "--packet", packet, "--out", str(plain)) == 0
    calls, polyfit = [], np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *a: calls.append(a) or polyfit(*a))
    assert run_cli("propagate", "--packet", packet, "--out", str(counted)) == 0
    assert calls == [] and counted.read_bytes() == plain.read_bytes()
    assert run_cli("propagate", "--packet", packet, "--format", "json",
                   "--out", str(tmp_path / "summary.json")) == 0
    assert len(calls) >= 1


def test_propagate_sparse_packet_on_a_large_lattice(tmp_path):
    # a 1024^3 lattice: any array over every mode would exceed the 1 GiB
    # address-space limit put on the process
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    packet = write_packet(tmp_path, steps=60, sample_every=20)
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "propagate", "--packet", packet,
         "--n", "1024", "--format", "csv"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5


def test_propagate_narrowest_gaussian_on_a_large_lattice(tmp_path):
    # sigma = 4 pi/512 is cut to a box of about 50 modes per axis; the uncut
    # packet needs arrays over all 512^3 modes, past the 1 GiB limit
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    packet = write_packet(tmp_path, kind="gaussian", n=512,
                          width=4 * math.pi / 512, steps=8, sample_every=2)
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "propagate", "--packet", packet,
         "--format", "json"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["norm_drift"] <= 1e-12
    assert np.max(np.abs(np.subtract(summary["measured_velocity"],
                                     summary["predicted_packet_velocity"]))) <= 0.02


@pytest.mark.parametrize("overrides, argv, size", [
    ({"n": 64, "steps": 10**12, "sample_every": 20}, (),
     "50000000001 trajectory samples"),
    ({"kind": "gaussian", "width": math.pi / 16}, ("--n", "512"),
     "a packet window of 389 x 390 x 390 modes"),
])
def test_propagate_over_the_memory_budget_is_config_error(
        tmp_path, monkeypatch, capsys, overrides, argv, size):
    monkeypatch.setattr(budget, "_memory_budget", lambda: 1 << 30)
    packet = write_packet(tmp_path, **overrides)
    assert run_cli("propagate", "--packet", packet, *argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and size in err[0] and "memory budget" in err[0]


@pytest.mark.parametrize("flag, what, gib", [
    ("--n", f"a lattice of {10**400} modes per axis", "1.19e+393"),
    ("--steps", f"{10**400 + 1} trajectory samples", "9.54e+393"),
], ids=["n", "steps"])
def test_size_override_past_the_float_range_is_config_error(
        tmp_path, monkeypatch, capsys, flag, what, gib):
    # dividing the estimate to a float used to overflow, which exited 4
    monkeypatch.setattr(budget, "_memory_budget", lambda: 1 << 30)
    packet = write_packet(tmp_path)
    assert run_cli("propagate", "--packet", packet, flag, str(10**400)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bosonwalk: configuration error: {what} would need about {gib} GiB, "
        "over the 1 GiB memory budget"]


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


@pytest.mark.parametrize("payload, cause", [
    (b"[" * 100000, "maximum recursion depth exceeded while decoding a JSON "
                    "array from a unicode string"),
    (b'{"kind": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10: "
                          "invalid start byte"),
])
@pytest.mark.parametrize("argv, prefix", [
    (["propagate", "--packet"], "packet file "), (["bounds", "--experiments"], "")])
def test_deep_nesting_and_undecodable_bytes_are_parse_errors(
        tmp_path, capsys, payload, cause, argv, prefix):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert run_cli(*argv, str(path)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bosonwalk: configuration error: {prefix}{path}: invalid JSON: {cause}"]


@pytest.mark.parametrize("source", ["/dev/zero", "padded"])
@pytest.mark.parametrize("argv, prefix, text", [
    (["propagate", "--packet"], "packet file ", json.dumps(PACKET)),
    (["bounds", "--experiments"], "", "[]")])
def test_input_files_over_their_cap_are_refused_unparsed(
        tmp_path, capsys, monkeypatch, source, argv, prefix, text):
    # a packet file may hold 1 MiB; a catalog 1/64 of the memory budget
    monkeypatch.setattr(budget, "_memory_budget", lambda: 4 << 20)
    limit = (budget._PACKET_FILE_BYTES if prefix else
             (4 << 20) // budget._CATALOG_BYTES_PER_FILE_BYTE)
    if source == "/dev/zero" and not os.path.exists(source):
        pytest.skip("no /dev/zero")
    path = tmp_path / "input.json"
    path.write_text(text.ljust(limit))  # valid, and exactly at the cap
    assert run_cli(*argv, str(path)) == 0
    capsys.readouterr()
    if source == "padded":
        path.write_text(text.ljust(limit + 1))
    else:
        path = source
    assert run_cli(*argv, str(path)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bosonwalk: configuration error: {prefix}{path}: "
        f"larger than {limit} bytes"]


def test_propagate_gaussian_on_a_small_lattice_is_config_error(tmp_path, capsys):
    packet = write_packet(tmp_path, kind="gaussian", width=math.pi / 4)
    assert run_cli("propagate", "--packet", packet) == 2
    assert capsys.readouterr().err.splitlines() == [
        "bosonwalk: configuration error: gaussian packets need n >= 32, got n=16"]


def test_propagate_missing_file_is_io_error():
    assert run_cli("propagate", "--packet", "/nonexistent/packet.json") == 3


def test_propagate_degenerate_momentum_is_numerical_error(tmp_path):
    packet = write_packet(tmp_path, k0=[0.0, 0.0, 0.0])
    assert run_cli("propagate", "--packet", packet) == 4


def test_propagate_gaussian_at_an_exact_pi_angle_is_numerical_error(
        tmp_path, capsys):
    # the block angle at this k0 is exactly pi, which the quaternion form
    # gives and the arccos form misses by 2e-8; no forward vector exists
    packet = write_packet(tmp_path, kind="gaussian", n=32, width=math.pi / 8,
                          k0=[math.pi, 0.0, math.pi - 0.05])
    assert run_cli("propagate", "--packet", packet) == 4
    assert capsys.readouterr().err.splitlines() == [
        "bosonwalk: numerical failure: phase (block angle) = "
        "3.141592653589793 is within "
        "1e-09 of 0 or pi; forward/backward modes merge there"]


def test_propagate_packet_spread_over_the_torus_is_numerical_error(
        tmp_path, capsys):
    # along x the circular resultant of this sinc packet falls to 4.4e-8 at
    # step 822, below the 1e-6 a centroid needs
    packet = write_packet(tmp_path, n=36, k0=[math.pi, 2 * math.pi * 13 / 36, math.pi],
                          x0=[0, 0, 0], steps=822, sample_every=6)
    assert run_cli("propagate", "--packet", packet) == 4
    assert capsys.readouterr().err.splitlines() == [
        "bosonwalk: numerical failure: "
        "packet spread out too far for a defined centroid"]


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


@pytest.mark.parametrize("field, value", [
    ("width", 10**400),
    ("k0", [10**400, 0.0, 0.0]),
    ("x0", [8, 10**400, 8]),
    ("steps", -10**400),
])
def test_propagate_refuses_integers_too_large_for_a_float(tmp_path, capsys,
                                                         field, value):
    # float() of a 401-digit JSON integer raised OverflowError, which the
    # front end reported as a numerical failure (exit 4)
    packet = write_packet(tmp_path, **{field: value})
    assert run_cli("propagate", "--packet", packet) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0] and "too large" in err[0]


@pytest.mark.parametrize("field, value", [("n", "abc"), ("steps", True)])
def test_propagate_checks_the_packet_field_a_flag_overrides(tmp_path, capsys,
                                                            field, value):
    # with --n and --steps the file's own n and steps went unchecked: exit 0
    packet = write_packet(tmp_path, **{field: value})
    assert run_cli("propagate", "--packet", packet) == 2
    alone = capsys.readouterr().err
    assert run_cli("propagate", "--packet", packet, "--n", "16",
                   "--steps", "4") == 2
    assert capsys.readouterr().err == alone == (
        "bosonwalk: configuration error: packet field "
        f"{field!r} must be an integer, got {value!r}\n")


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
    # the field order of SphereStats, which the JSON text follows
    assert list(st) == ["mean", "rms_unit_average", "rms_paper_normalization",
                        "min", "max", "argmax", "argmin", "spread",
                        "quadrature_error_estimate", "n_theta", "n_phi"]
    assert list(st["argmax"]) == list(st["argmin"]) == ["theta", "phi"]


@pytest.mark.parametrize("argv, size", [
    (("surface", "--grid", "16"), "a surface of 16^3 points"),
    (("anisotropy", "--grid", "64", "--format", "json"),
     "an anisotropy grid of 64^2 points"),
    (("anisotropy", "--grid", "64", "--format", "csv"),
     "an anisotropy grid of 64^2 points"),
])
def test_grid_over_the_memory_budget_is_config_error(monkeypatch, capsys,
                                                     argv, size):
    # a 1 MiB budget refuses grids that would run in milliseconds
    monkeypatch.setattr(budget, "_memory_budget", lambda: 1 << 20)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and size in err[0] and "memory budget" in err[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, sizes", [
    ("surface", (16, 32, 48)), ("anisotropy", (128, 256))])
def test_grid_memory_estimate_covers_the_traced_peak(
        tmp_path, monkeypatch, command, sizes, fmt):
    estimates = []
    monkeypatch.setattr(budget, "_refuse_over_budget",
                        lambda estimate, what: estimates.append(estimate))
    for m in sizes:
        tracemalloc.start()
        try:
            assert run_cli(command, "--grid", str(m), "--format", fmt,
                           "--out", str(tmp_path / "out")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the command checks its own estimate before the library checks its
        # part, so the command's decides
        command_estimate, *library_estimates = estimates
        estimates.clear()
        assert command_estimate >= max([peak, *library_estimates])


def test_anisotropy_grid_too_coarse():
    assert run_cli("anisotropy", "--grid", "8", "--format", "json") == 2


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_anisotropy_map_refuses_empty_grid(capsys, grid):
    # --grid 0 used to print only the header, --grid -3 numpy's own error
    assert run_cli("anisotropy", "--grid", grid, "--format", "csv") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "n_theta, n_phi >= 1" in err[0]


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
    # the field order of BoundResult and UnsupportedEntry, the echo last
    assert list(entries[0]) == [
        "experiment_id", "delta_x_upper_bound", "ratio_to_planck",
        "normalization_used", "alternate_delta_x_upper_bound", "note",
        "inputs_echo"]
    assert list(entries[-1]) == ["experiment_id", "note", "inputs_echo"]


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


def test_bounds_csv_quotes_an_id_with_a_comma(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{
        "id": "grb,comma", "kind": "dispersion", "source": "test",
        "e_qg_lower_bound": 1e20, "liv_order": 1, "sign": 1}]))
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--experiments", str(path), "--out", str(out)) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["id", "kind", "delta_x_m", "ratio_to_planck",
                       "normalization"]
    assert len(rows) == 2 and len(rows[1]) == 5
    assert rows[1][:2] == ["grb,comma", "dispersion"]
    assert rows[1][4] == "paper_rms"


def test_bounds_invalid_catalog_is_config_error(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("[{]")
    assert run_cli("bounds", "--experiments", str(path)) == 2
    assert run_cli("bounds", "--experiments", str(tmp_path / "missing.json")) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("record", [
    {"id": "tiny", "kind": "dispersion", "source": "t",
     "e_qg_lower_bound": 1e-320, "liv_order": 1, "sign": 1},
    # the denominator rounds to 0 and raised ZeroDivisionError: exit 1
    {"id": "underflow", "kind": "dispersion", "source": "t",
     "e_qg_lower_bound": 5e-324, "liv_order": 1, "sign": 1},
    {"id": "huge", "kind": "anisotropy", "source": "t",
     "delta_c_over_c": 1e308, "wavelength": 1e308},
])
def test_bounds_overflowing_to_infinity_is_numerical_error(tmp_path, capsys,
                                                            record, fmt):
    # finite inputs whose bound leaves the float range printed inf in CSV
    # and Infinity, which is not JSON, and exited 0
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]))
    out = tmp_path / f"bounds.{fmt}"
    assert run_cli("bounds", "--experiments", str(path), "--format", fmt,
                   "--out", str(out)) == 4
    assert not out.exists()
    assert run_cli("bounds", "--experiments", str(path), "--format", fmt) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("bosonwalk: numerical failure: ")
    assert record["id"] in err[0] and "not finite" in err[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("record", [
    {"id": "far", "kind": "dispersion", "source": "t",
     "e_qg_lower_bound": 1e308, "liv_order": 1, "sign": 1},
    {"id": "tiny", "kind": "anisotropy", "source": "t",
     "delta_c_over_c": 1e-200, "wavelength": 1e-200},
])
def test_bounds_below_the_normal_range_is_numerical_error(tmp_path, capsys,
                                                          record, fmt):
    # a subnormal bound printed as 4.94e-324 m and a vanishing one as 0 m,
    # both with exit 0
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]))
    assert run_cli("bounds", "--experiments", str(path), "--format", fmt) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"bosonwalk: numerical failure: record {record['id']!r}: "
                            "bound is below the normal float range\n")


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


def test_verify_json_report_writes_a_non_finite_residual_as_null(
        tmp_path, capsys, monkeypatch):
    from bosonwalk import verify

    original = verify.run_all_checks

    def with_nan(seed):
        report = original(seed=seed)
        report.checks[0] = verify._result(report.checks[0].name, math.nan, 1.0)
        return report

    monkeypatch.setattr(verify, "run_all_checks", with_nan)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["checks"][0]["residual"] is None
    assert "FAIL" in capsys.readouterr().out


# ------------------------------------------------------------- entry points

def test_version_lists_constants():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
    assert "hbar_c" in proc.stdout and "1.973269804e-16" in proc.stdout
    assert "planck_length" in proc.stdout


@pytest.mark.parametrize("columns", ["40", "200"])
def test_version_text_ignores_the_terminal_width(columns):
    # argparse's version action used to rewrap the text to the terminal
    def version(**env):
        environ = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
        proc = subprocess.run(
            [sys.executable, "-m", "bosonwalk", "--version"],
            capture_output=True, text=True, env={**environ, **env})
        assert proc.returncode == 0
        return proc.stdout

    assert version(COLUMNS=columns) == version()


def test_linalg_error_is_numerical_error(monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which alone would make it exit 2
    from bosonwalk import anisotropy

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(anisotropy, "sphere_stats", singular)
    assert run_cli("anisotropy", "--format", "json") == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "numerical failure: Singular matrix" in err[0]


# named one by one, so that a new error class needs a deliberate choice
NUMERICAL_FAILURES = ("DegenerateSpectrumError", "UndefinedCentroidError",
                      "ZeroMomentumError", "OverflowError")


@pytest.mark.parametrize("error", [
    *(c for c in vars(errors).values()
      if isinstance(c, type) and issubclass(c, errors.WalkError)),
    ValueError, OverflowError,
], ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("the reason")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    numerical = error.__name__ in NUMERICAL_FAILURES
    assert run_cli("verify") == (4 if numerical else 2)
    kind = "numerical failure" if numerical else "configuration error"
    assert capsys.readouterr().err.splitlines() == [
        f"bosonwalk: {kind}: the reason"]


@pytest.mark.parametrize("argv", [
    ["bounds"], ["verify", "--format", "csv"], ["--version"],
    ["verify", "--out", "{tmp}/report.json"],  # the summary line on stdout
])
def test_closed_stdout_is_io_error(capsys, monkeypatch, tmp_path, argv):
    # a process started with stdout closed has sys.stdout None; writing to
    # it used to end in an AttributeError traceback and exit 1
    monkeypatch.setattr(sys, "stdout", None)
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["bosonwalk: I/O error: standard output is closed"]


@pytest.mark.parametrize("argv", [["bounds"], ["surface", "--grid", "4"]])
def test_out_into_a_missing_directory_names_the_given_path(capsys, tmp_path,
                                                           argv):
    # the message used to name the temporary file made beside the output
    out = str(tmp_path / "missing" / "x.csv")
    assert run_cli(*argv, "--out", out) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and out in err[0] and ".bosonwalk-" not in err[0]
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [["bounds"], ["surface", "--grid", "4"]])
def test_out_to_a_directory_names_the_given_path(capsys, tmp_path, argv):
    # the message used to name the temporary file renamed onto the directory
    assert run_cli(*argv, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(tmp_path) in err[0]
    assert ".bosonwalk-" not in err[0] and list(tmp_path.iterdir()) == []


def test_out_file_mode_is_the_umask_default_or_kept(tmp_path):
    # mkstemp's 0600 used to survive the rename onto either file; a second
    # umask tells the umask default from a fixed 0o644
    new, old, private = (tmp_path / f"{name}.csv"
                         for name in ("new", "old", "private"))
    old.write_text("old\n")
    os.chmod(old, 0o604)
    umask = os.umask(0o022)
    try:
        for out in (new, old):
            assert run_cli("bounds", "--format", "csv", "--out", str(out)) == 0
        os.umask(0o027)
        assert run_cli("bounds", "--format", "csv", "--out", str(private)) == 0
    finally:
        os.umask(umask)
    assert [stat.S_IMODE(os.stat(p).st_mode) for p in (new, old, private)] == [
        0o644, 0o604, 0o640]


@pytest.mark.parametrize("existing", [True, False])
def test_out_through_a_symlink_writes_the_file_it_names(capsys, tmp_path,
                                                         existing):
    # the link used to be replaced, and the file it names never written
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    if existing:
        target.write_text("old\n")
    os.symlink(target, link)
    assert run_cli("bounds", "--format", "csv", "--out", str(link)) == 0
    assert run_cli("bounds", "--format", "csv") == 0
    assert link.is_symlink() and target.read_text() == capsys.readouterr().out


def _surface_failing_after_one_chunk(monkeypatch, tmp_path, error):
    """An existing --out target, and a surface whose text breaks off with
    `error` once its first chunk is written."""
    def chunks(m, fmt):
        yield "kx,ky,kz,phase,vx,vy,vz,speed,degenerate\n"
        raise error
    monkeypatch.setattr(cli, "_surface_chunks", chunks)
    target = tmp_path / "surface.csv"
    target.write_text("old\n")
    return target


def test_out_failing_mid_write_leaves_the_target_as_it_was(capsys, tmp_path,
                                                           monkeypatch):
    # an --out file appears either complete or not at all
    target = _surface_failing_after_one_chunk(
        monkeypatch, tmp_path, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert run_cli("surface", "--grid", "3", "--out", str(target)) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"bosonwalk: I/O error: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}: {str(target)!r}"]
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]  # no .bosonwalk-* file


def test_out_interrupted_mid_write_propagates_and_cleans_up(tmp_path,
                                                            monkeypatch):
    target = _surface_failing_after_one_chunk(monkeypatch, tmp_path,
                                              KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run_cli("surface", "--grid", "3", "--out", str(target))
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]  # no .bosonwalk-* file


def _start_reader(fifo, size=-1):
    """A thread that reads `size` bytes (all, by default) from the FIFO and
    closes it; the list it returns receives them."""
    received = []

    def read():
        with open(fifo, "rb") as handle:
            received.append(handle.read(size))
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, received


def test_out_to_a_fifo_writes_through_it(capsys, tmp_path):
    # the FIFO used to be replaced by a file, and its reader got nothing
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader, received = _start_reader(fifo)
    assert run_cli("bounds", "--format", "csv", "--out", str(fifo)) == 0
    reader.join(timeout=10)
    assert run_cli("bounds", "--format", "csv") == 0
    assert received == [capsys.readouterr().out.encode()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_out_to_a_fifo_its_reader_closes_is_io_error(capsys, tmp_path):
    # the 655 kB surface cannot fit the pipe before the reader leaves
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader, _ = _start_reader(fifo, 1)
    assert run_cli("surface", "--grid", "16", "--out", str(fifo)) == 3
    reader.join(timeout=10)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(fifo) in err[0]
    assert "Broken pipe" in err[0] and ".bosonwalk-" not in err[0]


def test_verify_negative_seed_is_config_error(capsys):
    # numpy used to refuse it with a reason that named no flag
    assert run_cli("verify", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "--seed -1" in err[0]


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bosonwalk", "transmogrify"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("bounds", "--seed", "1"),
    ("anisotropy", "--threads", "2"),
    ("surface", "--seed", "1"),
    ("propagate", "--packet", "p.json", "--seed", "1"),
    ("verify", "--threads", "2"),
    ("bounds", "--threads", "2"),
    ("anisotropy", "--seed", "1"),
])
def test_flags_only_where_they_act(argv, capsys):
    # --seed feeds only verify's sampling; --threads stays on surface and
    # propagate for compatibility
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


# ------------------------------------------------------- fuzzed input files

# JSON values of every type, numbers weighted toward the float range's edges
# and integers too large for a float; NaN and Infinity are written as the
# non-standard tokens that json.load accepts
fuzz_numbers = st.one_of(
    st.floats(), st.integers(-10, 10),
    st.sampled_from([10**400, -10**400, 1e308, 1e-320, 5e-324, -0.0]))
fuzz_values = st.one_of(fuzz_numbers, st.booleans(), st.none(),
                        st.text(max_size=4), st.lists(st.integers(), max_size=4))


# a finite size past these is for a memory estimate to refuse, not the parser
FUZZ_LIMITS = {"n": 32, "steps": 1000}


def _mutated(valid, fields):
    """Draws of `valid` with up to two of `fields` set to arbitrary values."""
    changes = st.dictionaries(st.sampled_from(fields), fuzz_values, max_size=2)
    return st.tuples(valid, changes.filter(lambda c: not any(
        isinstance(c.get(k), float) and top < c[k] < math.inf
        for k, top in FUZZ_LIMITS.items()))).map(lambda p: {**p[0], **p[1]})


positive_numbers = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([10**400, 1e308, 1e-320, 5e-324]))
record_fields = ["id", "kind", "source", "e_qg_lower_bound", "liv_order",
                 "sign", "delta_c_over_c", "wavelength", "extra"]
valid_records = st.one_of(
    st.fixed_dictionaries({
        "id": st.text(min_size=1, max_size=6), "kind": st.just("dispersion"),
        "source": st.just("fuzz"), "e_qg_lower_bound": positive_numbers,
        "liv_order": st.sampled_from([1, 2]), "sign": st.sampled_from([1, -1]),
    }),
    st.fixed_dictionaries({
        "id": st.text(min_size=1, max_size=6), "kind": st.just("anisotropy"),
        "source": st.just("fuzz"), "delta_c_over_c": positive_numbers,
    }, optional={"wavelength": positive_numbers}))


def _or_broken_file(payloads, limit):
    """Draws of `payloads`, or file bytes that json.dump cannot write:
    nesting past the parser's recursion limit, invalid UTF-8, or a stream
    one byte past the reader's `limit`."""
    return st.one_of(payloads, st.one_of(
        st.integers(1, 10**5).map(lambda depth: b"[" * depth + b"]" * depth),
        st.binary(max_size=4).map(lambda raw: b'["' + raw + b'\xff"]'),
        st.just(b"[" + b" " * limit)))


# the catalog size limit under a 1 MiB memory budget
CATALOG_BUDGET = 1 << 20
CATALOG_LIMIT = CATALOG_BUDGET // budget._CATALOG_BYTES_PER_FILE_BYTE

# at most one altered record and one stray element, so that most catalogs
# reach the bound computation
fuzz_catalogs = _or_broken_file(st.tuples(
    st.lists(_mutated(valid_records, record_fields), max_size=1),
    st.lists(valid_records, max_size=2),
    st.lists(fuzz_values, max_size=1),
).map(lambda parts: [record for part in parts for record in part]), CATALOG_LIMIT)

# magnitudes spread over the decades of the float range, half of them in
# its top two, where k0 n and x0 k0 overflow
wide_floats = st.tuples(
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(-300.0, 308.25), st.floats(306.0, 308.25)),
).map(lambda p: p[0] * 10.0 ** p[1])
# x0 is an integer, here up to 10**308, as a JSON integer or an integral float
wide_integers = wide_floats.filter(lambda v: abs(v) <= 1e308).map(math.floor)


def _triples(usual, wide):
    """Three components: all `usual` ones, or each `usual` or `wide`."""
    return st.one_of(st.lists(usual, min_size=3, max_size=3),
                     st.lists(st.one_of(usual, wide), min_size=3, max_size=3))


GAUSSIAN_PACKET = {**PACKET, "kind": "gaussian", "n": 32, "width": math.pi / 8}
fuzz_packets = _or_broken_file(_mutated(st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("sinc"), "n": st.integers(6, 16).map(lambda h: 2 * h),
        "width": st.sampled_from([2, 4, 6]), "steps": st.integers(1, 1000)}),
    # the one valid Gaussian width at n <= 32; its window is the whole lattice
    st.fixed_dictionaries({
        "kind": st.just("gaussian"), "n": st.just(32),
        "width": st.just(math.pi / 8), "steps": st.integers(1, 40)}),
).flatmap(lambda shape: st.fixed_dictionaries({
    **{key: st.just(value) for key, value in shape.items()},
    "k0": _triples(st.floats(-4.0, 4.0), wide_floats),
    "x0": _triples(st.integers(-40, 40),
                   st.one_of(wide_integers, wide_integers.map(float))),
    "helicity": st.sampled_from([0, 1]),
    "sample_every": st.integers(1, 5),
})), list(PACKET_FIELDS) + ["extra"]), budget._PACKET_FILE_BYTES)


def _recorded_main(argv):
    """main(argv); an exit 2 must come from a WalkError that the command
    raised, not from any other ValueError."""
    raised = []

    def recorded(command):
        def run(args):
            try:
                return command(args)
            except BaseException as exc:
                raised.append(exc)
                raise
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("cmd_surface", "cmd_propagate", "cmd_anisotropy",
                     "cmd_bounds", "cmd_verify"):
            patch.setattr(cli, name, recorded(getattr(cli, name)))
        code = main(argv)
    if code == 2:
        assert len(raised) == 1 and isinstance(raised[0], errors.WalkError), \
            repr(raised)
    return code


def _run_on_file(payload, argv):
    """(exit code, stdout, stderr) of main on `payload` written as JSON,
    or written as it is if it is bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(payload if isinstance(payload, bytes)
                         else json.dumps(payload).encode())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _recorded_main([*argv, path])
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _assert_clean_outcome(code, out, err, fmt):
    # exit 0 with finite numbers only, or a one-line refusal; an exception
    # escaping main fails the test, and exit 1 means a failed verification
    event(f"exit {code}")
    if code != 0:
        assert code in (2, 4) and len(err.strip().splitlines()) == 1
        return
    assert err == ""
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        for row in csv.DictReader(io.StringIO(out, newline="")):
            for column, cell in row.items():
                # the bounds table leaves the numbers of an unsupported record empty
                if column not in ("id", "kind", "normalization") and cell:
                    assert math.isfinite(float(cell)), row


@settings(max_examples=60, deadline=None)
@given(records=fuzz_catalogs, fmt=st.sampled_from(["csv", "json"]),
       compat=st.booleans())
@example(records=[{"id": "a\rb", "kind": "anisotropy", "source": "fuzz",
                   "delta_c_over_c": 1e-18, "wavelength": 1e-6}],
         fmt="csv", compat=True)
def test_property_fuzzed_catalogs_exit_cleanly(records, fmt, compat):
    argv = ["bounds", "--format", fmt,
            "--paper-compat" if compat else "--no-paper-compat", "--experiments"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(budget, "_memory_budget", lambda: CATALOG_BUDGET)
        code, out, err = _run_on_file(records, argv)
    _assert_clean_outcome(code, out, err, fmt)
    if code == 0 and fmt == "csv" and isinstance(records, list):
        # whatever an id holds, each record reads back as one row
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == len(records) + 1


@settings(max_examples=60, deadline=None)
@given(packet=fuzz_packets, fmt=st.sampled_from(["csv", "json"]))
@example(packet={**PACKET, "width": 10**400}, fmt="json")
@example(packet={**PACKET, "k0": [10**400, 0, 0]}, fmt="csv")
@example(packet={**PACKET, "x0": [8, 8, 10**400]}, fmt="json")
@example(packet={**PACKET, "k0": [-1e307, 0, 0]}, fmt="csv")
@example(packet={**GAUSSIAN_PACKET, "k0": [-1e307, 0, 0]}, fmt="json")
@example(packet={**GAUSSIAN_PACKET, "x0": [1.7e308, 0, 0]}, fmt="csv")
@example(packet={**GAUSSIAN_PACKET, "x0": [1.7e308, 0, 0]}, fmt="json")
@example(packet=b"[" * 10**5 + b"]" * 10**5, fmt="csv")
def test_property_fuzzed_packets_exit_cleanly(packet, fmt):
    code, out, err = _run_on_file(
        packet, ["propagate", "--format", fmt, "--packet"])
    _assert_clean_outcome(code, out, err, fmt)


# --n and --steps bypass the packet file's checks: negative, odd, zero, and
# sizes whose per-axis arrays alone would not fit in memory
fuzz_sizes = st.one_of(
    st.integers(-8, 40), st.integers(-2**70, 2**70),
    st.sampled_from([10**400, -10**400, 2**63, 10**9, 10**12, 10**30]))


@settings(max_examples=60, deadline=None)
@given(flag=st.sampled_from(["--n", "--steps"]), value=fuzz_sizes,
       kind=st.sampled_from(["sinc", "gaussian"]),
       fmt=st.sampled_from(["csv", "json"]))
@example(flag="--n", value=10**9, kind="sinc", fmt="csv")
@example(flag="--n", value=10**30, kind="sinc", fmt="csv")
@example(flag="--n", value=10**400, kind="gaussian", fmt="json")
@example(flag="--n", value=4097, kind="sinc", fmt="json")
@example(flag="--n", value=0, kind="gaussian", fmt="csv")
@example(flag="--steps", value=10**400, kind="sinc", fmt="json")
@example(flag="--steps", value=-1, kind="gaussian", fmt="csv")
@example(flag="--steps", value=4000, kind="sinc", fmt="csv")
def test_property_fuzzed_size_overrides_exit_cleanly(flag, value, kind, fmt):
    resource = pytest.importorskip("resource")
    packet = PACKET if kind == "sinc" else GAUSSIAN_PACKET
    # a few MiB of budget; the address-space cap turns an allocation the
    # budget failed to refuse into an error here instead of a full host
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4 << 30 if limits[1] == resource.RLIM_INFINITY else min(4 << 30, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(budget, "_memory_budget", lambda: 4 << 20)
            code, out, err = _run_on_file(
                packet, ["propagate", "--format", fmt, f"{flag}={value}", "--packet"])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code in (0, 2, 3, 4) and len(err.strip().splitlines()) <= 1
    if code != 3:
        _assert_clean_outcome(code, out, err, fmt)


# --out: stdout (None), a new file, and three targets that cannot take it
FULL_DEVICE = "/dev/full" if os.path.exists("/dev/full") else "{tmp}"
OUT_TARGETS = [None, "{tmp}/out", "{tmp}/missing/out", "{tmp}", FULL_DEVICE]
SIZE_FLAGS = {"surface": "--grid", "propagate": "--n", "anisotropy": "--grid",
              "bounds": None, "verify": "--seed"}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(SIZE_FLAGS)), size=fuzz_sizes,
       fmt=st.sampled_from(["csv", "json"]), out=st.sampled_from(OUT_TARGETS),
       stdout_open=st.booleans())
@example(command="surface", size=7, fmt="json", out=None, stdout_open=True)
@example(command="propagate", size=0, fmt="csv", out=None, stdout_open=False)
@example(command="anisotropy", size=-3, fmt="json", out="{tmp}",
         stdout_open=True)
@example(command="verify", size=10**400, fmt="json", out="{tmp}/missing/out",
         stdout_open=False)
@example(command="bounds", size=0, fmt="csv", out=FULL_DEVICE,
         stdout_open=True)
def test_property_fuzzed_command_lines_exit_cleanly(command, size, fmt, out,
                                                     stdout_open):
    # every subcommand in process, under a budget of a few MiB: each run
    # ends in its documented exit code with at most a one-line reason
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(budget, "_memory_budget", lambda: 4 << 20)
        argv = [command, "--format", fmt]
        if SIZE_FLAGS[command]:
            argv.append(f"{SIZE_FLAGS[command]}={size}")
        if command == "propagate":
            argv += ["--packet", write_packet(Path(tmp))]
        if out is not None:
            argv += ["--out", out.format(tmp=tmp)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO() if stdout_open else None), \
                contextlib.redirect_stderr(err):
            code = _recorded_main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4) or code == 1 and command == "verify"
    assert len(err.getvalue().splitlines()) <= (code != 0)
