"""Command-line front end.

Subcommands: surface (dispersion export), propagate (packet drift),
anisotropy (direction map and stats), bounds (constraint catalog), and
verify (invariant suite).  Long-form flags only; CSV numbers carry 17
significant digits; outputs are byte-identical for a given configuration
and seed regardless of thread count.

Exit codes: 0 success, 1 failed verification, 2 bad configuration,
3 I/O failure, 4 numerical failure (degenerate spectrum and similar).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, kernel, lattice, verify
from .anisotropy import anisotropy_map, sphere_stats
from .bounds import (
    BoundResult,
    CatalogOptions,
    PhysicalConstants,
    bundled_catalog_path,
    load_experiments,
    run_catalog,
)
from .errors import (
    ArgumentOutOfRangeError,
    BasisMismatchError,
    CatalogParseError,
    CatalogValidationError,
    DegenerateSpectrumError,
    MissingWavelengthError,
    PacketSpecError,
    SeriesOutOfRangeError,
    UndefinedCentroidError,
    UnsupportedOrderError,
    ZeroMomentumError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_CONFIG_ERRORS = (
    ArgumentOutOfRangeError,
    BasisMismatchError,
    CatalogParseError,
    CatalogValidationError,
    MissingWavelengthError,
    PacketSpecError,
    SeriesOutOfRangeError,
    UnsupportedOrderError,
    ValueError,
)
_NUMERICAL_ERRORS = (
    DegenerateSpectrumError,
    UndefinedCentroidError,
    ZeroMomentumError,
    np.linalg.LinAlgError,
)

PACKET_FIELDS = ("kind", "n", "k0", "x0", "width", "helicity",
                 "steps", "sample_every")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _version_text() -> str:
    c = PhysicalConstants()
    lines = [f"bosonwalk {__version__}", "constants:"]
    for name, value in c.as_dict().items():
        lines.append(f"  {name} = {value!r}")
    return "\n".join(lines)


def _write_output(path, text: str) -> None:
    """Atomically replace `path` with `text`; stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bosonwalk-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ------------------------------------------------------------------ surface

def _surface_slab(axis_vals: np.ndarray, i: int) -> str:
    """CSV rows for the kx = axis_vals[i] slab, lexicographic in (ky, kz)."""
    m = axis_vals.size
    ky, kz = np.meshgrid(axis_vals, axis_vals, indexing="ij")
    ky, kz = ky.ravel(), kz.ravel()
    kx = np.full_like(ky, axis_vals[i])
    phi = kernel.phase_grid(kx, ky, kz)
    vx, vy, vz, speed, degenerate = kernel.velocity_grid(kx, ky, kz)
    rows = []
    for j in range(m * m):
        head = f"{_fmt(kx[j])},{_fmt(ky[j])},{_fmt(kz[j])},{_fmt(phi[j])}"
        if degenerate[j]:
            rows.append(head + ",,,,,1")
        else:
            rows.append(f"{head},{_fmt(vx[j])},{_fmt(vy[j])},{_fmt(vz[j])},"
                        f"{_fmt(speed[j])},0")
    return "\n".join(rows)


def _surface_rows_json(axis_vals: np.ndarray) -> list:
    kx, ky, kz = np.meshgrid(axis_vals, axis_vals, axis_vals, indexing="ij")
    kx, ky, kz = kx.ravel(), ky.ravel(), kz.ravel()
    phi = kernel.phase_grid(kx, ky, kz)
    vx, vy, vz, speed, degenerate = kernel.velocity_grid(kx, ky, kz)
    rows = []
    for j in range(kx.size):
        row = {"kx": float(kx[j]), "ky": float(ky[j]), "kz": float(kz[j]),
               "phase": float(phi[j]), "degenerate": bool(degenerate[j])}
        if degenerate[j]:
            row.update(vx=None, vy=None, vz=None, speed=None)
        else:
            row.update(vx=float(vx[j]), vy=float(vy[j]), vz=float(vz[j]),
                       speed=float(speed[j]))
        rows.append(row)
    return rows


def cmd_surface(args) -> int:
    m = args.grid
    if not 2 <= m <= 512:
        raise ArgumentOutOfRangeError(f"--grid {m} outside [2, 512]")
    axis_vals = np.linspace(-math.pi, math.pi, m)
    if args.format == "csv":
        workers = args.threads if args.threads > 0 else (os.cpu_count() or 1)
        # one slab per kx value; assembly order is fixed, so the byte
        # stream does not depend on the worker count
        if workers == 1:
            slabs = [_surface_slab(axis_vals, i) for i in range(m)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                slabs = list(pool.map(
                    lambda i: _surface_slab(axis_vals, i), range(m)))
        text = "kx,ky,kz,phase,vx,vy,vz,speed,degenerate\n"
        text += "\n".join(slabs) + "\n"
    else:
        text = json.dumps(_surface_rows_json(axis_vals), indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------- propagate

def _load_packet_config(path) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise PacketSpecError(f"packet file {path}: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise PacketSpecError(f"packet file {path}: expected a JSON object")
    missing = [f for f in PACKET_FIELDS if f not in raw]
    unknown = [f for f in raw if f not in PACKET_FIELDS]
    if missing:
        raise PacketSpecError(f"packet file {path}: missing {missing}")
    if unknown:
        raise PacketSpecError(f"packet file {path}: unknown {unknown}")
    return raw


def _packet_number(field: str, value, integral: bool = False):
    """A packet-file number; booleans, NaN, infinities and (when integral)
    fractions are refused rather than coerced."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not (
                math.isfinite(value) and (value.is_integer() or not integral))):
        kind = "an integer" if integral else "a finite number"
        raise PacketSpecError(
            f"packet field {field!r} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _packet_triple(field: str, value, integral: bool = False) -> tuple:
    if not isinstance(value, list) or len(value) != 3:
        raise PacketSpecError(f"packet field {field!r} must be a list of 3")
    return tuple(_packet_number(field, v, integral) for v in value)


def cmd_propagate(args) -> int:
    raw = _load_packet_config(args.packet)
    n = args.n if args.n is not None else _packet_number("n", raw["n"], True)
    steps = (args.steps if args.steps is not None
             else _packet_number("steps", raw["steps"], True))
    sample_every = _packet_number("sample_every", raw["sample_every"], True)
    lat = lattice.Lattice(n)
    spec = lattice.WavePacketSpec(
        kind=raw["kind"],
        k0=_packet_triple("k0", raw["k0"]),
        x0=_packet_triple("x0", raw["x0"], True),
        width=_packet_number("width", raw["width"]),
        helicity=_packet_number("helicity", raw["helicity"], True),
    )
    measured = lattice.measure_group_velocity(
        lat, spec, steps=steps, sample_every=sample_every)
    if args.format == "csv":
        lines = ["step,cx,cy,cz,sx,sy,sz,norm"]
        t = measured.trajectory
        for i, step in enumerate(t.steps):
            cells = [str(int(step))]
            cells += [_fmt(v) for v in t.positions[i]]
            cells += [_fmt(v) for v in t.spreads[i]]
            cells.append(_fmt(t.norms[i]))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        k0 = lattice.snap_to_grid(spec.k0, lat.n)
        analytic = kernel.group_velocity_analytic(k0.as_array())
        predicted = lattice.predicted_packet_velocity(lat, spec)
        summary = {
            "n": lat.n,
            "steps": steps,
            "sample_every": sample_every,
            "kind": spec.kind,
            "helicity": spec.helicity,
            "k0_snapped": [k0.kx, k0.ky, k0.kz],
            "measured_velocity": list(measured.velocity.as_array()),
            "analytic_velocity": list(analytic.as_array()),
            "predicted_packet_velocity": [float(v) for v in predicted],
            "fit_residual": measured.fit_residual,
            "norm_drift": float(np.max(np.abs(
                measured.trajectory.norms - 1.0))),
            "final_spread": list(measured.trajectory.spreads[-1]),
        }
        text = json.dumps(summary, indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


# --------------------------------------------------------------- anisotropy

def cmd_anisotropy(args) -> int:
    m = args.grid
    if args.format == "csv":
        theta, phi, s = anisotropy_map(m, m)
        lines = ["theta,phi,s"]
        lines += [f"{_fmt(t)},{_fmt(p)},{_fmt(v)}"
                  for t, p, v in zip(theta, phi, s)]
        text = "\n".join(lines) + "\n"
    else:
        st = sphere_stats(m, m)
        payload = {
            "mean": st.mean,
            "rms_unit_average": st.rms_unit_average,
            "rms_paper_normalization": st.rms_paper_normalization,
            "min": st.min,
            "max": st.max,
            "argmax": {"theta": st.argmax.theta, "phi": st.argmax.phi},
            "argmin": {"theta": st.argmin.theta, "phi": st.argmin.phi},
            "spread": st.spread,
            "quadrature_error_estimate": st.quadrature_error_estimate,
            "n_theta": st.n_theta,
            "n_phi": st.n_phi,
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


# ------------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    path = args.experiments if args.experiments else bundled_catalog_path()
    records = load_experiments(path)
    options = CatalogOptions(paper_compat=args.paper_compat)
    entries = run_catalog(records, PhysicalConstants(), options)
    if args.format == "csv":
        lines = ["id,kind,delta_x_m,ratio_to_planck,normalization"]
        for e in entries:
            kind = e.inputs_echo["record"]["kind"]
            if isinstance(e, BoundResult):
                lines.append(f"{e.experiment_id},{kind},"
                             f"{_fmt(e.delta_x_upper_bound)},"
                             f"{_fmt(e.ratio_to_planck)},{e.normalization_used}")
            else:
                note = f'"{e.note}"' if "," in e.note else e.note
                lines.append(f"{e.experiment_id},{kind},,,{note}")
        text = "\n".join(lines) + "\n"
    else:
        payload = []
        for e in entries:
            if isinstance(e, BoundResult):
                payload.append({
                    "experiment_id": e.experiment_id,
                    "delta_x_upper_bound": e.delta_x_upper_bound,
                    "ratio_to_planck": e.ratio_to_planck,
                    "normalization_used": e.normalization_used,
                    "alternate_delta_x_upper_bound":
                        e.alternate_delta_x_upper_bound,
                    "note": e.note,
                    "inputs_echo": e.inputs_echo,
                })
            else:
                payload.append({
                    "experiment_id": e.experiment_id,
                    "note": e.note,
                    "inputs_echo": e.inputs_echo,
                })
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    report = verify.run_all_checks(seed=args.seed)
    lines = []
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        line = (f"{mark}  {c.name:40s} residual {c.residual:.3e}"
                f"  tolerance {c.tolerance:.1e}")
        if c.detail:
            line += f"  ({c.detail})"
        lines.append(line)
    n_fail = len(report.failures)
    lines.append(f"{len(report.checks)} checks, {n_fail} failed")
    if n_fail:
        lines.append("failing: " + ", ".join(c.name for c in report.failures))
    text = "\n".join(lines) + "\n"
    if args.out is not None and args.format == "json":
        payload = {
            "seed": report.seed,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "residual": c.residual, "tolerance": c.tolerance,
                        "detail": c.detail} for c in report.checks],
        }
        _write_output(args.out, json.dumps(payload, indent=2) + "\n")
        sys.stdout.write(text)
    else:
        _write_output(args.out, text)
    return EXIT_OK if report.passed else EXIT_VERIFY


# ------------------------------------------------------------------ parsing

def _add_common(sub, *, fmt_default="csv"):
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=fmt_default)
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker cap, 0 = auto (default: 1)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any sampling (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonwalk",
        description="Quantum-walk dispersion surfaces, packet propagation, "
                    "anisotropy maps, and lattice-spacing bounds.")
    parser.add_argument("--version", action="version",
                        version=_version_text())
    subs = parser.add_subparsers(dest="subcommand", required=True)

    surface = subs.add_parser(
        "surface", help="export the dispersion surface over a momentum grid")
    surface.add_argument("--grid", type=int, default=11, metavar="M",
                         help="points per momentum axis (default: 11)")
    _add_common(surface)
    surface.set_defaults(func=cmd_surface)

    propagate = subs.add_parser(
        "propagate", help="evolve a wave packet and fit its drift velocity")
    propagate.add_argument("--packet", required=True, metavar="FILE.json",
                           help="packet description (JSON)")
    propagate.add_argument("--n", type=int, default=None,
                           help="override the lattice size from the packet file")
    propagate.add_argument("--steps", type=int, default=None,
                           help="override the step count from the packet file")
    _add_common(propagate)
    propagate.set_defaults(func=cmd_propagate)

    aniso = subs.add_parser(
        "anisotropy", help="direction-dependence map or sphere statistics")
    aniso.add_argument("--grid", type=int, default=64, metavar="M",
                       help="theta and phi points (default: 64)")
    _add_common(aniso)
    aniso.set_defaults(func=cmd_anisotropy)

    bounds_cmd = subs.add_parser(
        "bounds", help="translate experiment records into spacing bounds")
    bounds_cmd.add_argument("--experiments", default=None, metavar="FILE.json",
                            help="experiment catalog (default: bundled)")
    bounds_cmd.add_argument("--paper-compat", action=argparse.BooleanOptionalAction,
                            default=True,
                            help="published-style resonator normalization "
                                 "(default: on)")
    _add_common(bounds_cmd)
    bounds_cmd.set_defaults(func=cmd_bounds)

    verify_cmd = subs.add_parser(
        "verify", help="run the cross-module invariant suite")
    _add_common(verify_cmd, fmt_default="json")
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"bosonwalk: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _CONFIG_ERRORS as exc:
        print(f"bosonwalk: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"bosonwalk: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
