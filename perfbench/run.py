"""bosonwalk benchmark: CLI workloads timed end to end, layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

The package is taken from `src/` of the checkout this file sits in.
Each run launches fresh `python -m bosonwalk ...` processes one at a time
and repeats the workload until S seconds are measured.  Every output goes
through the gate (gate.py), whose self-test runs once per run.

--trace 0 reports the end-to-end metrics.  A shared host's speed can
drift by tens of percent within minutes, so a fresh process of a fixed
reference job that does the workload's kind of work (calibrate.py) runs
before the first repetition of the workload and after every one.
run_rel is the median wall time of a repetition (process start to exit
of each invocation, summed) divided by the median wall time of the
reference job, and cpu_rel the same for user + sys time from wait4.  peak_rss_mb is the
largest child peak RSS (wait4) and setup_s the median of fresh
`python -m bosonwalk --version` runs, in seconds.  The raw medians are
printed for people.

--trace 1 alternates untraced runs with runs under tracing.py, then
makes one more traced run with allocation tracing for the peak_mb
figures, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it are for people: each metric with its unit,
median and sample count, the gate's findings and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE, WORKLOADS, invocations  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COUNTS_REF = HERE / "ref" / "counts.json"
COUNTS_SEEN = WORK / "counts.json"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_RUNS = 11
INVOCATION_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"run_rel": "ref", "cpu_rel": "ref", "peak_rss_mb": "MB",
             "setup_s": "s"}
SAMPLE_UNITS = {"peak_rss_mb": "MB"}  # every other sample is in seconds


@dataclass
class Result:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    out_bytes: int


def launch(argv: list[str], out: Path):
    """Run one child to its end: (exit code, wall seconds, rusage)."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"),
                                         "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                env=CHILD_ENV, cwd=WORK)
        timer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


class Runner:
    """Launches the CLI children of one benchmark run and gates them."""

    def __init__(self, refs: dict | None):
        self.refs = refs  # None records outputs without gating them
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, label: str, argv: list[str], out: Path,
              spans: Path | None = None) -> Result:
        """Run one child; `spans` is the span file a traced child writes."""
        err = out.with_suffix(".err")
        returncode, wall, usage = launch(argv, out)
        failure = (None if self.refs is None and returncode == 0
                   else gate.check(label, returncode, out, self.refs))
        no_spans = spans is not None and not spans.exists()
        if no_spans:
            failure = ((failure + "; " if failure else f"{label}: ")
                       + f"traced invocation wrote no span file {spans}, "
                       "so its layers read 0")
        if failure and (returncode != 0 or no_spans):
            failure += (f"; stderr in {err}: "
                        + err.read_text(errors="replace")[-400:].strip())
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        return Result(label, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, out, out.stat().st_size)

    def cli(self, label: str, args, out: Path) -> Result:
        return self.spawn(label, [sys.executable, "-m", "bosonwalk", *args],
                          out)


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """Machine, interpreter, numpy and BLAS build, thread settings."""
    probe = ("import json, numpy; print(json.dumps({'numpy': "
             "numpy.__version__, 'config': numpy.show_config(mode='dicts')},"
             " default=str))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=CHILD_ENV, cwd=WORK, timeout=60)
    numpy_info = json.loads(done.stdout) if done.returncode == 0 else {}
    blas = numpy_info.get("config", {}).get("Build Dependencies", {})
    cpu, l3 = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": l3,
        "python": sys.version.split()[0],
        "numpy": numpy_info.get("numpy"),
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def reference_job(workload: str) -> Result:
    """One fresh process of the workload's reference job; it uses no
    package code."""
    out = WORK / "reference.out"
    returncode, wall, usage = launch(
        [sys.executable, str(HERE / "calibrate.py"), REFERENCE[workload]],
        out)
    if returncode != 0:
        raise SystemExit(f"the reference job exited {returncode}: "
                         + out.with_suffix(".err").read_text()[-400:])
    return Result("reference", wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, out, 0)


def time_setup(runner: Runner) -> float:
    return runner.cli("version", ["--version"], WORK / "version.out").wall_s


def run_once(runner: Runner, workload: str, seed: int) -> list[Result]:
    return [runner.cli(inv.label, inv.argv, WORK / f"{inv.label}-{i}.out")
            for i, inv in enumerate(invocations(workload, seed, WORK))]


def run_traced(runner: Runner, workload: str, seed: int, mode: str = "time"):
    """One traced run in tracing.py's `mode`: its results and the spans
    of each invocation that wrote them."""
    results, spans = [], []
    for i, inv in enumerate(invocations(workload, seed, WORK)):
        span_path = WORK / f"spans-{i}.json"
        span_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracing.py"), mode,
                str(span_path), *inv.argv]
        results.append(runner.spawn(inv.label, argv,
                                    WORK / f"{mode}-{inv.label}-{i}.out",
                                    spans=span_path))
        if not span_path.exists():
            continue  # spawn has recorded the failure
        spans.append(json.loads(span_path.read_text()))
        if not Path(spans[-1]["module"]).is_relative_to(SRC):
            raise SystemExit(f"traced run imported {spans[-1]['module']}, "
                             f"not the package under {SRC}")
    return results, spans


def exact_counts(layer: dict) -> dict:
    """The per-layer values that must repeat exactly for one source tree."""
    return {k: v for k, v in layer.items()
            if k.endswith(".calls") or k == "cli.out_bytes"}


def counts_key(workload: str, seed: int) -> str:
    # counts follow the seed: verify samples momenta by rejection, and the
    # digits of packet positions depend on x0
    return f"{workload}/{seed}"


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_counts(workload: str, seed: int, layer: dict, runner: Runner):
    """Flag call counts or output bytes that differ from an earlier traced
    run of the same source tree (committed ref, or this checkout's runs)."""
    exact = exact_counts(layer)
    key = counts_key(workload, seed)
    digest = src_digest()
    seen = _load(COUNTS_SEEN)
    for source, store in (("recorded", _load(COUNTS_REF)), ("earlier", seen)):
        before = store.get(digest, {}).get(key)
        if before is not None and before != exact:
            diff = sorted(k for k in exact if exact[k] != before.get(k))
            runner.failures.append(
                f"counts differ from the {source} traced run of this "
                f"source tree: {diff}")
    seen.setdefault(digest, {})[key] = exact
    COUNTS_SEEN.write_text(json.dumps(seen, indent=1, sort_keys=True))


def _spread(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    return f"min {min(xs):.4f} max {max(xs):.4f} n={len(xs)}"


def bench(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run of one workload: (attempted, failures, metrics).

    Runs of the workload (with trace, each followed by a traced run)
    repeat while one more would keep the measured time within `seconds`;
    untraced, at least two, with a reference job before the first and
    after each.  With trace, a last traced run in `peak` mode gives the
    peak_mb figures.
    """
    runner = Runner(gate.load_refs())
    time_setup(runner)  # fills the bytecode and page caches
    reps: list[list[Result]] = []
    traced: list[tuple[float, dict]] = []  # (wall time, per-layer metrics)
    setup: list[float] = []
    refs: list[Result] = []
    measured = 0.0
    min_reps = 1 if trace else 2
    if not trace:
        reference_job(workload)  # fills the caches for the reference job
        refs.append(reference_job(workload))
        measured += refs[0].wall_s
    while (len(reps) < min_reps
           or measured * (len(reps) + 1) / len(reps) <= seconds):
        reps.append(run_once(runner, workload, seed))
        measured += sum(r.wall_s for r in reps[-1])
        if not trace:
            refs.append(reference_job(workload))
            measured += refs[-1].wall_s
        if len(reps) == 1:
            for r in reps[0]:
                problem = gate.self_test(r.label, r.out, runner.refs, WORK)
                if problem:
                    runner.failures.append(problem)
        if trace:
            results, spans = run_traced(runner, workload, seed)
            wall = sum(r.wall_s for r in results)
            measured += wall
            traced.append((wall, tracing.layer_metrics(
                spans, sum(r.out_bytes for r in results))))
        else:
            setup.append(time_setup(runner))
    while not trace and len(setup) < SETUP_RUNS:
        setup.append(time_setup(runner))

    print(f"workload {workload}, seed {seed}: {len(reps)} runs of "
          f"{len(reps[0])} invocations"
          + (" and as many traced, plus one peak run" * trace))
    nbytes = {sum(r.out_bytes for r in rep) for rep in reps}
    samples = {
        "run_s": [sum(r.wall_s for r in rep) for rep in reps],
        "cpu_s": [sum(r.cpu_s for r in rep) for rep in reps],
        "peak_rss_mb": [max(r.rss_mb for rep in reps for r in rep)],
        "setup_s": setup,
        "ref_s": [r.wall_s for r in refs],
        "ref_cpu_s": [r.cpu_s for r in refs],
    }
    if trace:
        samples = {"run_s": samples["run_s"],
                   "traced_run_s": [wall for wall, _ in traced]}
        layers = [layer for _, layer in traced]
        for layer in layers:
            nbytes.add(layer["cli.out_bytes"])
            if exact_counts(layer) != exact_counts(layers[0]):
                runner.failures.append("counts differ between traced runs")
        # counts are equal across traced runs; times take the median
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name, _ in tracing.METRICS
                  if name != "trace_overhead_s"}
        values.update(exact_counts(layers[0]))
        values["trace_overhead_s"] = (statistics.median(samples["traced_run_s"])
                                      - statistics.median(samples["run_s"]))
        # peak_mb comes from one more traced run with allocation tracing,
        # which would slow the timed spans
        results, spans = run_traced(runner, workload, seed, mode="peak")
        peaks = tracing.layer_metrics(spans,
                                      sum(r.out_bytes for r in results))
        if exact_counts(peaks) != exact_counts(layers[0]):
            runner.failures.append("counts differ between the timed and "
                                   "the peak traced runs")
        values.update({name: peaks[name] for name in values
                       if name.endswith(".peak_mb")})
        check_counts(workload, seed, layers[0], runner)
        units = dict(tracing.METRICS)
    else:
        values = {k: statistics.median(v) for k, v in samples.items()}
        # medians of both, so that one slow reference job moves nothing
        values["run_rel"] = values["run_s"] / values["ref_s"]
        values["cpu_rel"] = values["cpu_s"] / values["ref_cpu_s"]
        units = E2E_UNITS
    for name, xs in samples.items():
        print(f"  {name:14s} {statistics.median(xs):12.6f} "
              f"{SAMPLE_UNITS.get(name, 's'):3s} median, {_spread(xs)}")
    for name, unit in units.items():
        if name not in samples:
            print(f"  {name:40s} {values[name]:16.6f} {unit}")
    if len(nbytes) > 1:
        runner.failures.append(f"output bytes differ between runs: {nbytes}")
    print(f"  gate: {runner.attempted} invocations, "
          f"{len(runner.failures)} failed, error_rate "
          f"{len(runner.failures) / runner.attempted:g}")
    for failure in runner.failures:
        print(f"  FAILED: {failure}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return runner.attempted, runner.failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run stops its child first (see launch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "bosonwalk" / "__init__.py").is_file():
        print(f"no bosonwalk package under {SRC}; perfbench/ must sit in a "
              "bosonwalk checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("env: " + json.dumps(environment()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    for name in names:
        a, f, m = bench(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failures += f
        if args.workload == "all":
            m = {f"{name}/{k}": v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
