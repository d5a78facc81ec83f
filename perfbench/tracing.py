"""Layer tracing from outside the package, and the per-layer metrics.

Run as a script, this module performs one bosonwalk CLI invocation in
process with every public function of the package wrapped in a span:

    python3 perfbench/tracing.py time|peak SPANS.json ARG...

The CLI output goes to stdout unchanged; the spans go to SPANS.json when
the invocation ends.  In `time` mode the spans are only timed.  In `peak`
mode tracemalloc also runs inside the PEAK_SPANS, which slows every
allocation there, so only the peak_mb figures of a `peak` run are used.
A wrapper is installed under every name a caller looks the function up
by (`lattice.kernel_grid`, `cli.sphere_stats`, `kernel.phase` as `verify`
reaches it), so nothing under `src/` changes.

Imported, it turns the span files of one traced workload run into the
per-layer metrics.  Only the standard library is imported here, so the
package import the script times is the first to load numpy.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
import types

LAYERS = ("algebra", "anisotropy", "bounds", "kernel", "lattice", "verify",
          "cli")

# spans whose peak traced allocation is recorded
PEAK_SPANS = frozenset({
    "lattice.measure_group_velocity",
    "kernel.kernel_grid",
    "kernel.branch_projector_grids",
})

# metric group -> the span names it covers
GROUPS = {
    "lattice.fft": ("lattice.to_position", "lattice.to_momentum"),
    "lattice.measure_group_velocity": ("lattice.measure_group_velocity",),
    "lattice.make_wavepacket": ("lattice.make_wavepacket",),
    "lattice.predicted_state_velocity": ("lattice.predicted_state_velocity",),
    "lattice.evolve": ("lattice.evolve_spectral", "lattice.evolve_direct"),
    "kernel.kernel_grid": ("kernel.kernel_grid",),
    "kernel.branch_projector_grids": ("kernel.branch_projector_grids",),
    "kernel.phase_grid": ("kernel.phase_grid",),
    "kernel.velocity_grid": ("kernel.velocity_grid",),
    "kernel.scalar": tuple(f"kernel.{f}" for f in (
        "phase", "mirror_phase", "kernel_closed_form", "branch_decomposition",
        "positive_energy_vector", "group_velocity_analytic",
        "group_velocity_numeric", "phase_expansion_check")),
    "cli.cmd": tuple(f"cli.cmd_{c}" for c in (
        "surface", "propagate", "anisotropy", "bounds", "verify")),
    "anisotropy.sphere_stats": ("anisotropy.sphere_stats",),
    "bounds.run_catalog": ("bounds.run_catalog",),
    "verify.run_all_checks": ("verify.run_all_checks",),
    "algebra": "algebra.",  # every public algebra function
}

# (metric name, unit): the per-layer metrics a traced run reports
METRICS = (
    ("lattice.fft.s", "s"),
    ("lattice.fft.calls", "count"),
    ("lattice.measure_group_velocity.self_s", "s"),
    ("lattice.measure_group_velocity.peak_mb", "MB"),
    ("lattice.make_wavepacket.s", "s"),
    ("lattice.predicted_state_velocity.self_s", "s"),
    ("lattice.evolve.s", "s"),
    ("lattice.evolve.calls", "count"),
    ("kernel.kernel_grid.s", "s"),
    ("kernel.kernel_grid.calls", "count"),
    ("kernel.kernel_grid.peak_mb", "MB"),
    ("kernel.branch_projector_grids.s", "s"),
    ("kernel.branch_projector_grids.calls", "count"),
    ("kernel.branch_projector_grids.peak_mb", "MB"),
    ("kernel.phase_grid.s", "s"),
    ("kernel.phase_grid.calls", "count"),
    ("kernel.velocity_grid.s", "s"),
    ("kernel.velocity_grid.calls", "count"),
    ("kernel.scalar.s", "s"),
    ("kernel.scalar.calls", "count"),
    ("cli.cmd.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("anisotropy.sphere_stats.s", "s"),
    ("bounds.run_catalog.s", "s"),
    ("verify.run_all_checks.self_s", "s"),
    ("algebra.s", "s"),
    ("algebra.calls", "count"),
    ("import.s", "s"),
    ("trace_overhead_s", "s"),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, peak bytes]."""

    def __init__(self, peaks: bool):
        self.peaks = peaks  # record peak allocations in PEAK_SPANS
        self.spans = []
        self._open = []    # indices of the spans now running
        self._peaks = []   # [bytes traced at entry, peak carried over]

    def wrap(self, name, fn):
        track_peak = self.peaks and name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self._open.append(index)
            if track_peak:
                self._enter_peak()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if track_peak:
                    span[4] = self._exit_peak()
                self._open.pop()

        return traced

    def _enter_peak(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            # the reset below would lose the enclosing span's peak so far
            outer = self._peaks[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_peak(self) -> int:
        entry, carried = self._peaks.pop()
        peak = max(carried, tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - entry


def install(tracer: Tracer) -> None:
    """Wrap each public package function under every module-level name."""
    modules = [importlib.import_module(f"bosonwalk.{m}") for m in LAYERS]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _group_of(name: str):
    for group, members in GROUPS.items():
        if (name.startswith(members) if isinstance(members, str)
                else name in members):
            return group
    return None


def layer_metrics(runs: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run, but trace_overhead_s.

    runs holds the span files of its invocations.  A group's `s` sums the
    spans not nested in another span of the group and `calls` counts them;
    `self_s` sums span durations minus the time their child spans cover;
    `peak_mb` is the largest traced allocation above the level at entry,
    0 unless the runs were made in `peak` mode.
    """
    stats = {g: {"s": 0.0, "calls": 0, "self_s": 0.0, "peak_mb": 0.0}
             for g in GROUPS}
    for run in runs:
        spans = run["spans"]
        groups = [_group_of(span[0]) for span in spans]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (_, start, end, parent, peak) in enumerate(spans):
            group = groups[i]
            if group is None:
                continue
            st = stats[group]
            st["self_s"] += end - start - child_time[i]
            if peak is not None:
                st["peak_mb"] = max(st["peak_mb"], peak / 2**20)
            outer = parent
            while outer >= 0 and groups[outer] != group:
                outer = spans[outer][3]
            if outer < 0:
                st["s"] += end - start
                st["calls"] += 1
    values = {"cli.out_bytes": out_bytes,
              "import.s": statistics.median(
                  [run["import_s"] for run in runs] or [0.0])}
    for name, _ in METRICS:
        if name not in values and name != "trace_overhead_s":
            group, stat = name.rsplit(".", 1)
            values[name] = stats[group][stat]
    return values


def main(argv: list[str]) -> int:
    mode, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    if mode not in ("time", "peak"):
        raise SystemExit(f"mode must be time or peak, not {mode!r}")
    start = time.perf_counter()
    from bosonwalk import cli
    import_s = time.perf_counter() - start
    tracer = Tracer(peaks=mode == "peak")
    install(tracer)
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_path, "w") as handle:
        json.dump({"import_s": import_s, "module": cli.__file__,
                   "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
