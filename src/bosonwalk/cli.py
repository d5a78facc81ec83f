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


_NUMBER = "{:.17g}"  # a CSV number


def _csv_text(rows) -> str:
    """The rows as newline-ended CSV lines: float cells (numpy float64 too) as
    _NUMBER; csv quotes a cell holding a comma, quote or line break."""
    import csv
    import io
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [_NUMBER.format(c) if isinstance(c, float) else c for c in row]
        for row in rows)
    return buffer.getvalue()


def _json_text(value) -> str:
    import json
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


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
    told apart by bit pattern so that 0.0 and -0.0 keep their own text; a
    negative value whose magnitude also occurs is "-" and that text.  Each
    row is joined from pieces that carry the text between its cells: the kx
    text, one string per (ky, kz) pair, the five values and the flag, and in
    json the keys of vy, vz and speed and the row end.
    """
    import numpy as np
    from . import kernel
    values = ("phase", "vx", "vy", "vz", "speed")
    # a row's pieces: the kx and (ky, kz) pieces, 0-4 the values, 5 the flag
    if fmt == "csv":  # the values carry their comma, the flag its newline
        number, blank, flags = (_NUMBER + ",").format, ",", ["0\n", "1\n"]
        head = ",".join(("kx", "ky", "kz", *values, "degenerate")) + "\n"
        slab, pair, last = "{}".format, "{}{}".format, None
        row = [None, None, 0, 1, 2, 3, 4, 5]
    else:  # the text of json.dumps(rows, indent=2): floats as float.__repr__
        number, blank, head, last = float.__repr__, "null", "[\n", "\n  }\n]\n"
        flags = [f',\n    "degenerate": {f},\n    "vx": ' for f in ("false", "true")]
        slab = '  {{\n    "kx": {},\n    "ky": '.format
        pair = '{},\n    "kz": {},\n    "phase": '.format
        row = [None, None, 0, 5, 1, ',\n    "vy": ', 2, ',\n    "vz": ', 3,
               ',\n    "speed": ', 4, "\n  },\n"]

    table = kernel.surface_table(m)
    axis = list(map(number, table["axis"].tolist()))
    degenerate = table["degenerate"].reshape(m, -1)
    bits = np.stack([table[k] for k in values]).view(np.int64).ravel()
    del table
    # the distinct bit patterns in sorted order, and each cell's int32 index
    # into the strings below (5 m^3 + 1 < 2^31 up to m = 512); the sort's
    # copies go before the strings are made, which hold most of the peak of
    # 121 traced bytes per point at m = 48
    order = np.argsort(bits)
    ordered = bits[order]
    del bits
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[first]
    del ordered
    ranks = np.cumsum(first, dtype=np.int32)  # from 1: the blank is string 0
    inverse = np.empty((len(values), m, m * m), dtype=np.int32)  # kx slabs
    inverse.ravel()[order] = ranks
    del order, first, ranks
    inverse[1:, degenerate] = 0
    # negative bits sort first, by rising magnitude and the NaNs last; a
    # negative value whose magnitude occurs is "-" and that text (a NaN's repr
    # has no sign), so only the others are formatted
    magnitude = distinct[:np.searchsorted(distinct, 0)] & np.int64(2**63 - 1)
    magnitude = magnitude[:np.searchsorted(magnitude, np.int64(0x7FF << 52), "right")]
    at = np.searchsorted(distinct, magnitude).clip(max=distinct.size - 1)
    found = distinct[at] == magnitude
    derived = np.zeros(distinct.size, dtype=bool)
    derived[:found.size] = found
    strings = np.empty(distinct.size + 1, dtype=object)
    strings[0], texts = blank, strings[1:]
    # formatted in chunks, so that no list of every value is held beside them
    for start in range(0, distinct.size, 1 << 14):
        own = start + np.flatnonzero(~derived[start:start + (1 << 14)])
        texts[own] = list(map(number, distinct[own].view(np.float64).tolist()))
    texts[derived] = "-" + texts[at[found]]
    del distinct, derived, at, found, magnitude
    yield head
    flags = np.array(flags, dtype=object)
    rows = np.empty((m * m, len(row)), dtype=object)  # one kx slab's pieces
    rows[:] = row
    rows[:, 1] = [pair(y, z) for y in axis for z in axis]
    cols = [row.index(i) for i in range(len(values) + 1)]
    for kx in range(m):
        rows[:, 0] = slab(axis[kx])
        rows[:, cols[:-1]] = strings[inverse[:, kx]].T
        rows[:, cols[-1]] = flags[degenerate[kx].view(np.int8)]
        if kx == m - 1 and last:
            rows[-1, -1] = last
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
        raw = json.loads(budget._read_text(path, budget._PACKET_FILE_BYTES,
                                           errors.PacketSpecError,
                                           f"packet file {path}"))
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
    # the file's n and steps are checked even where a flag overrides them
    n, steps = (_packet_number(f, raw[f], True) for f in ("n", "steps"))
    n = n if args.n is None else args.n
    steps = steps if args.steps is None else args.steps
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
        t = measured.trajectory
        text = _csv_text([("step", "cx", "cy", "cz", "sx", "sy", "sz", "norm"),
                          *([int(step), *c, *s, norm] for step, c, s, norm
                            in zip(t.steps, t.positions, t.spreads, t.norms))])
    else:
        k0 = lattice.snap_to_grid(spec.k0, lat.n)
        analytic = kernel.group_velocity_analytic(k0.as_array())
        summary = {
            "n": lat.n,
            "steps": steps,
            "sample_every": sample_every,
            "kind": spec.kind,
            "helicity": spec.helicity,
            "k0_snapped": [k0.kx, k0.ky, k0.kz],
            "measured_velocity": list(measured.velocity.as_array()),
            "analytic_velocity": list(analytic.as_array()),
            "predicted_packet_velocity": [float(v) for v in measured.predicted],
            "fit_residual": measured.fit_residual,
            "norm_drift": float(np.max(np.abs(
                measured.trajectory.norms - 1.0))),
            "final_spread": list(measured.trajectory.spreads[-1]),
        }
        text = _json_text(summary)
    _write_output(args.out, [text])
    return EXIT_OK


# --------------------------------------------------------------- anisotropy

def cmd_anisotropy(args) -> int:
    from .anisotropy import anisotropy_map, sphere_stats
    m = args.grid
    budget._refuse_over_budget(m * m * budget._ANISOTROPY_BYTES_PER_POINT,
                               f"an anisotropy grid of {m}^2 points")
    if args.format == "csv":
        text = _csv_text([("theta", "phi", "s"), *zip(*anisotropy_map(m, m))])
    else:
        from dataclasses import asdict
        text = _json_text(asdict(sphere_stats(m, m)))
    _write_output(args.out, [text])
    return EXIT_OK


# ------------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    from .bounds import (BoundResult, PhysicalConstants, bundled_catalog_path,
                         load_experiments, run_catalog)
    path = args.experiments if args.experiments else bundled_catalog_path()
    records = load_experiments(path)
    entries = run_catalog(records, PhysicalConstants(),
                          paper_compat=args.paper_compat)
    if args.format == "csv":
        rows = [("id", "kind", "delta_x_m", "ratio_to_planck", "normalization")]
        for e in entries:
            bound = ([e.delta_x_upper_bound, e.ratio_to_planck,
                      e.normalization_used] if isinstance(e, BoundResult)
                     else ["", "", e.note])
            rows.append([e.experiment_id, e.inputs_echo["record"]["kind"], *bound])
        text = _csv_text(rows)
    else:
        from dataclasses import asdict
        text = _json_text([asdict(e) for e in entries])
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
        from dataclasses import asdict, replace
        payload = {"seed": report.seed, "passed": report.passed, "checks": [
            asdict(c if math.isfinite(c.residual) else replace(c, residual=None))
            for c in report.checks]}
        _write_output(args.out, [_json_text(payload)])
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
