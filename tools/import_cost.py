"""Time the package imports each CLI command pays, in two source trees.

    python tools/import_cost.py PARENT_SRC CHANGE_SRC

Each SRC argument is a `src` directory holding the `bosonwalk` package.
For each command below, one child interpreter per tree first runs the
command through `bosonwalk.cli.main` and records the package modules it
loaded besides the CLI's own: the command's module set.  Then RUNS fresh
children per tree, the trees taking turns and each pair led by the other
tree, import `bosonwalk.cli` (which pins BLAS to one thread before numpy
loads) and numpy, and time the import of the module set alone.  Per
command and tree it prints the quartiles of that time in milliseconds, and
the module set.

The children start without the BLAS thread variables and with bytecode
writing on, and keep their bytecode under a temporary directory per tree
(PYTHONPYCACHEPREFIX), which the first child fills, so the timed imports
read cached bytecode, as an installed package does, and nothing is written
into either tree.  Nothing here touches the network.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = 21  # timed children per command and tree
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_MODULES = {"bosonwalk", "bosonwalk.budget", "bosonwalk.cli", "bosonwalk.errors"}
PACKET = {"kind": "sinc", "n": 16, "k0": [0.4, 0, 0], "x0": [8, 8, 8],
          "width": 2, "helicity": 0, "steps": 2, "sample_every": 1}
COMMANDS = {
    "surface": ["surface", "--grid", "4", "--format", "json"],
    "propagate": ["propagate", "--packet", "packet.json"],
    "anisotropy": ["anisotropy", "--grid", "16", "--format", "json"],
    "bounds": ["bounds", "--format", "csv"],
    "verify": ["verify", "--seed", "0"],
}

# runs argv (filled in for %r) with stdout discarded; prints the package's
# modules
LOADED = """
import contextlib, io, json, sys
from bosonwalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("bosonwalk"))]))
"""

# imports the modules listed in %r after the CLI and numpy; prints the
# nanoseconds that took
TIMED = """
import importlib, json, time
import bosonwalk.cli
import numpy
start = time.perf_counter_ns()
for name in %r:
    importlib.import_module(name)
print(json.dumps(time.perf_counter_ns() - start))
"""


def _child(code: str, src: Path, cache: str, work: str):
    env = {k: v for k, v in os.environ.items()
           if k not in (*BLAS_VARIABLES, "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=work,
                          capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"child failed in {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def module_set(argv: list[str], src: Path, cache: str, work: str) -> list[str]:
    """The package modules the command loads besides the CLI's own."""
    code, loaded = _child(LOADED % (argv,), src, cache, work)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code} in {src}")
    return [m for m in loaded if m not in CLI_MODULES]


def quartiles(times_ns: list[int]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, in milliseconds."""
    q1, median, q3 = statistics.quantiles(times_ns, n=4, method="inclusive")
    return q1 / 1e6, median / 1e6, q3 / 1e6


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0].startswith("-"):
        print("usage: python tools/import_cost.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "bosonwalk" / "__init__.py").is_file():
            print(f"{src}: no bosonwalk package here", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "packet.json").write_text(json.dumps(PACKET))
        caches = [tempfile.mkdtemp(dir=work) for _ in srcs]
        print(f"{'command':<11}{'tree':<8}{'q1 ms':>8}{'median':>8}{'q3 ms':>8}"
              "  modules")
        for command, cli_argv in COMMANDS.items():
            sets = [module_set(cli_argv, src, cache, work)
                    for src, cache in zip(srcs, caches)]
            times = [[], []]
            for run in range(RUNS):  # each pair starts with the other tree
                for side in (0, 1) if run % 2 == 0 else (1, 0):
                    times[side].append(_child(TIMED % (sets[side],), srcs[side],
                                              caches[side], work))
            for tree, names, side_times in zip(("parent", "change"), sets, times):
                q1, median, q3 = quartiles(side_times)
                shown = " ".join(n.removeprefix("bosonwalk.") for n in names) or "-"
                print(f"{command:<11}{tree:<8}{q1:8.2f}{median:8.2f}{q3:8.2f}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
