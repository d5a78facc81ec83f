"""Command-line front end.

Subcommands: surface (dispersion export), propagate (packet drift),
anisotropy (direction map and stats), bounds (constraint catalog), and
verify (invariant suite).  Long-form flags only; CSV numbers carry 17
significant digits; outputs are byte-identical for a given configuration
and seed.  Only verify takes --seed; surface and propagate accept
--threads for compatibility, and it has no effect: every run is one
process with one BLAS thread, unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS is set.  Each command imports what it
runs when it runs: --version loads no package module but errors and
budget, and neither numpy nor dataclasses; bounds loads no numpy; and
every command that does loads it after the BLAS pin below.

Exit codes: 0 success, 1 failed verification, 2 bad configuration,
3 I/O failure, 4 numerical failure (degenerate spectrum and similar).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Each run is one short single-threaded process, so BLAS gets one thread
# unless the user set a count.  OpenBLAS sizes its pool when numpy loads,
# here inside the commands that use it; once numpy is loaded, a variable
# set here would name a pool size not in force.
if "numpy" not in sys.modules:
    for _blas_var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS"):
        os.environ.setdefault(_blas_var, "1")

from . import CONSTANTS, __version__, budget, errors  # noqa: E402

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# checked after _numerical_errors(), so the numerical WalkErrors go there
_CONFIG_ERRORS = (errors.WalkError, ValueError)
_NUMERICAL_ERRORS = (
    errors.DegenerateSpectrumError,
    errors.UndefinedCentroidError,
    errors.ZeroMomentumError,
    OverflowError,  # a finite input whose result leaves the float range
)

PACKET_FIELDS = ("kind", "n", "k0", "x0", "width", "helicity",
                 "steps", "sample_every")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _version_text() -> str:
    lines = [f"bosonwalk {__version__}", "constants:"]
    for name, value in CONSTANTS.items():
        lines.append(f"  {name} = {value!r}")
    return "\n".join(lines)


class _VersionAction(argparse.Action):
    """--version: the version text as argparse lays it out for an
    80-column terminal (78 columns of text), whatever the terminal's
    width; perfbench's reference outputs pin its first line."""

    def __init__(self, option_strings, dest, help=None):
        super().__init__(option_strings, dest=argparse.SUPPRESS,
                         default=argparse.SUPPRESS, nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        formatter = argparse.HelpFormatter(parser.prog, width=78)
        formatter.add_text(_version_text())
        _stdout().write(formatter.format_help())
        parser.exit()


def _stdout():
    """sys.stdout; an OSError when the process started with it closed."""
    if sys.stdout is None:
        raise OSError("standard output is closed")
    return sys.stdout


def _write_output(path, chunks) -> None:
    """Write the text chunks to `path`, or to stdout when it is None.

    A new path or a regular file is replaced atomically (through a symlink,
    the file it names), with an existing file's mode or else 0o666 less
    the umask.  Any other existing file, such as a FIFO or a device, is
    opened and written in place.  An error names `path` alone.
    """
    if path is None:
        _stdout().writelines(chunks)
        return
    import stat
    import tempfile
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            umask = os.umask(0o077)
            os.umask(umask)
            mode = stat.S_IFREG | 0o666 & ~umask
        if not stat.S_ISREG(mode):
            with open(path, "w") as handle:
                handle.writelines(chunks)
            return
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".bosonwalk-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:  # name the user's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None


# ------------------------------------------------------------------ surface

def _surface_chunks(m: int, fmt: str):
    """The surface text in chunks: the head, then the rows of each kx slab.

    Each distinct float is formatted once, the phase and velocity values
    told apart by bit pattern so that 0.0 and -0.0 keep their own text;
    every cell is an index into those strings.
    """
    import numpy as np
    from . import kernel
    values = ("phase", "vx", "vy", "vz", "speed")
    if fmt == "csv":
        keys = ("kx", "ky", "kz", *values, "degenerate")
        number, blank, flags = "{:.17g}".format, "", ["0", "1"]
        head, sep, tail = ",".join(keys) + "\n", "\n", "\n"
        row = ",".join(["%s"] * len(keys))
    else:  # the text of json.dumps(rows, indent=2): floats as float.__repr__
        keys = ("kx", "ky", "kz", "phase", "degenerate", "vx", "vy", "vz",
                "speed")
        number, blank, flags = float.__repr__, "null", ["false", "true"]
        head, sep, tail = "[\n", ",\n", "\n]\n"
        row = "  {\n" + ",\n".join(f'    "{k}": %s' for k in keys) + "\n  }"

    table = kernel.surface_table(m)
    axis, degenerate = table["kz"][:m].copy(), table["degenerate"]
    bits = np.stack([table[k] for k in values]).view(np.int64).ravel()
    del table
    # the distinct bit patterns in sorted order, and each cell's int32 index
    # into the strings below (5 m^3 + m + 3 < 2^31 up to m = 512); the sort's
    # copies go before the strings are made, which hold most of the peak of
    # 137 traced bytes per point at m = 48
    order = np.argsort(bits)
    ordered = bits[order]
    del bits
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[first]
    del ordered
    ranks = np.cumsum(first, dtype=np.int32) + (m - 1)
    inverse = np.empty((len(values), m**3), dtype=np.int32)
    inverse.ravel()[order] = ranks
    del order, first, ranks
    # strings: the axis values, the distinct values, the blank, the flags,
    # formatted in chunks so that no list of every value is held beside them
    numbers = np.concatenate([axis, distinct.view(np.float64)])
    strings = np.empty(numbers.size + 3, dtype=object)
    strings[numbers.size:] = [blank, *flags]
    for start in range(0, numbers.size, 1 << 14):
        chunk = numbers[start:start + (1 << 14)].tolist()
        strings[start:start + len(chunk)] = list(map(number, chunk))
    inverse[1:, degenerate] = numbers.size
    index = dict(zip(("kx", "ky", "kz"),
                     np.indices((m, m, m), dtype=np.int32).reshape(3, -1)))
    index.update(zip(values, inverse))
    index["degenerate"] = degenerate.astype(np.int32) + (numbers.size + 1)
    columns = [index[k] for k in keys]

    yield head
    rows = np.empty((m * m, 2 * len(keys) + 1), dtype=object)
    rows[:, 0::2] = (row + sep).split("%s")  # the text around the cells
    for start in range(0, m**3, m * m):
        rows[:, 1::2] = strings[np.stack(
            [c[start:start + m * m] for c in columns], axis=1)]
        if start + m * m == m**3:
            rows[-1, -1] = row.split("%s")[-1] + tail
        yield "".join(rows.ravel().tolist())


def cmd_surface(args) -> int:
    m = args.grid
    if not 2 <= m <= 512:
        raise errors.ArgumentOutOfRangeError(f"--grid {m} outside [2, 512]")
    budget._refuse_over_budget(m**3 * budget._SURFACE_BYTES_PER_POINT,
                               f"a surface of {m}^3 points")
    _write_output(args.out, _surface_chunks(m, args.format))
    return EXIT_OK


# ---------------------------------------------------------------- propagate

def _load_packet_config(path) -> dict:
    import json
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise errors.PacketSpecError(f"packet file {path}: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise errors.PacketSpecError(f"packet file {path}: expected a JSON object")
    missing = [f for f in PACKET_FIELDS if f not in raw]
    unknown = [f for f in raw if f not in PACKET_FIELDS]
    if missing:
        raise errors.PacketSpecError(f"packet file {path}: missing {missing}")
    if unknown:
        raise errors.PacketSpecError(f"packet file {path}: unknown {unknown}")
    return raw


def _packet_number(field: str, value, integral: bool = False):
    """A packet-file number; booleans, NaN, infinities and (when integral)
    fractions are refused rather than coerced."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not (
                math.isfinite(value) and (value.is_integer() or not integral))):
        kind = "an integer" if integral else "a finite number"
        raise errors.PacketSpecError(
            f"packet field {field!r} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise errors.PacketSpecError(
            f"packet field {field!r} is too large for a float") from None
    return int(value) if integral else number


def _packet_triple(field: str, value, integral: bool = False) -> tuple:
    if not isinstance(value, list) or len(value) != 3:
        raise errors.PacketSpecError(f"packet field {field!r} must be a list of 3")
    return tuple(_packet_number(field, v, integral) for v in value)


def cmd_propagate(args) -> int:
    import numpy as np
    from . import kernel, lattice
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
        import json
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
        text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    _write_output(args.out, [text])
    return EXIT_OK


# --------------------------------------------------------------- anisotropy

def cmd_anisotropy(args) -> int:
    from .anisotropy import anisotropy_map, sphere_stats
    m = args.grid
    budget._refuse_over_budget(m * m * budget._ANISOTROPY_BYTES_PER_POINT,
                               f"an anisotropy grid of {m}^2 points")
    if args.format == "csv":
        theta, phi, s = anisotropy_map(m, m)
        lines = ["theta,phi,s"]
        lines += [f"{_fmt(t)},{_fmt(p)},{_fmt(v)}"
                  for t, p, v in zip(theta, phi, s)]
        text = "\n".join(lines) + "\n"
    else:
        import json
        from dataclasses import asdict
        text = json.dumps(asdict(sphere_stats(m, m)), indent=2,
                          allow_nan=False) + "\n"
    _write_output(args.out, [text])
    return EXIT_OK


# ------------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    from .bounds import (BoundResult, CatalogOptions, PhysicalConstants,
                         bundled_catalog_path, load_experiments, run_catalog)
    path = args.experiments if args.experiments else bundled_catalog_path()
    records = load_experiments(path)
    options = CatalogOptions(paper_compat=args.paper_compat)
    entries = run_catalog(records, PhysicalConstants(), options)
    if args.format == "csv":
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id", "kind", "delta_x_m", "ratio_to_planck",
                         "normalization"])
        for e in entries:
            bound = ([_fmt(e.delta_x_upper_bound), _fmt(e.ratio_to_planck),
                      e.normalization_used] if isinstance(e, BoundResult)
                     else ["", "", e.note])
            writer.writerow([e.experiment_id, e.inputs_echo["record"]["kind"],
                             *bound])
        text = buffer.getvalue()
    else:
        import json
        payload = [e.as_dict() for e in entries]
        for item in payload:  # the echo goes last
            item["inputs_echo"] = item.pop("inputs_echo")
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _write_output(args.out, [text])
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from . import verify
    if args.seed < 0:
        raise errors.ArgumentOutOfRangeError(f"--seed {args.seed} is negative")
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
        import json
        payload = {
            "seed": report.seed,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "residual":
                        c.residual if math.isfinite(c.residual) else None,
                        "tolerance": c.tolerance, "detail": c.detail}
                       for c in report.checks],
        }
        text_json = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        _write_output(args.out, [text_json])
        _stdout().write(text)
    else:
        _write_output(args.out, [text])
    return EXIT_OK if report.passed else EXIT_VERIFY


# ------------------------------------------------------------------ parsing

def _add_common(sub, *, fmt_default="csv"):
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=fmt_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonwalk",
        description="Quantum-walk dispersion surfaces, packet propagation, "
                    "anisotropy maps, and lattice-spacing bounds.")
    parser.add_argument("--version", action=_VersionAction,
                        help="show program's version number and exit")
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
    for sub in (surface, propagate):
        sub.add_argument("--threads", type=int, default=1, metavar="N",
                         help="accepted for compatibility; no effect "
                              "(one BLAS thread)")

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
    verify_cmd.add_argument("--seed", type=int, default=0,
                            help="seed for the random momenta (default: 0)")
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def _numerical_errors() -> tuple:
    # numpy's LinAlgError subclasses ValueError, a configuration error, so it
    # is named here; while numpy is not loaded, none can have been raised
    numpy = sys.modules.get("numpy")
    return _NUMERICAL_ERRORS + ((numpy.linalg.LinAlgError,) if numpy else ())


def main(argv=None) -> int:
    parser = build_parser()
    try:  # --version writes while the arguments are parsed
        args = parser.parse_args(argv)
        return args.func(args)
    except _numerical_errors() as exc:
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
