"""Run a fixed list of bosonwalk invocations and compare their outputs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC
    python tools/compare_outputs.py --record MANIFEST

Each SRC argument is a `src` directory holding the `bosonwalk` package.
Both forms run the list in process, through `bosonwalk.cli.main`, in one
child interpreter per package started without the BLAS thread variables,
so that the CLI pins one thread before numpy loads, as it does in its own
process.  Each invocation yields its exit code and the sha256 of its
stdout, stderr and `--out` bytes, with the Python and numpy versions, the
CPU features numpy dispatches to and the platform: a manifest.

The first form compares the manifests of two packages, prints each
invocation and field that differ, and exits with status 1 if any
invocation differs, else 0.  The second writes the manifest of the `src`
beside this directory as JSON in MANIFEST; `tests/test_manifest.py`
compares the package with the committed manifest.  Nothing here touches
the network.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

N = 64  # the benchmark's packet lattice
FIELDS = ("exit code", "stdout", "stderr", "--out bytes")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def _packets() -> dict[str, dict]:
    """Packet files by name: both benchmark packets at three start sites, a
    helicity-1 packet and the refusal packets."""
    packets = {}
    for seed in range(3):
        rng = random.Random(seed)
        x0 = [rng.randrange(N) for _ in range(3)]
        k = 0.4 / math.sqrt(3.0)
        packets[f"dense-{seed}"] = {
            "kind": "gaussian", "n": N, "k0": [k, k, k], "x0": x0,
            "width": math.pi / 16, "helicity": 0, "steps": 16, "sample_every": 1}
        packets[f"sparse-{seed}"] = {
            "kind": "sinc", "n": N, "k0": [0.4, 0.0, 0.0], "x0": x0,
            "width": 2, "helicity": 0, "steps": 60, "sample_every": 20}
    packets["helicity-1"] = {
        "kind": "gaussian", "n": 32, "k0": [0.3, -0.2, 0.5], "x0": [5, 9, 20],
        "width": math.pi / 8, "helicity": 1, "steps": 12, "sample_every": 3}
    refusal = {"kind": "gaussian", "n": 32, "x0": [3, 4, 5],
               "width": math.pi / 8, "helicity": 0, "steps": 8, "sample_every": 1}
    packets["k0-nan"] = {**refusal, "k0": [math.nan, 0.0, 0.0]}
    packets["k0-inf"] = {**refusal, "k0": [math.inf, 0.0, 0.0]}
    # json evaluates the analytic velocity at the snapped k0, the zone centre
    packets["k0-snaps-to-centre"] = {**refusal, "k0": [0.01, 0.0, 0.0]}
    packets["k0-two-components"] = {**refusal, "k0": [0.1, 0.2]}
    # the order of the missing fields, and n's check before k0's
    packets["missing-kind-n-k0"] = {
        key: value for key, value in refusal.items() if key not in ("kind", "n")}
    packets["n-odd-k0-nan"] = {**refusal, "n": 33, "k0": [math.nan, 0.0, 0.0]}
    # degenerate k0: the arccos phase at the zone centre, and the block
    # angle of exactly pi that the arccos form misses by 2e-8, per branch
    packets["sinc-k0-centre"] = {
        **refusal, "kind": "sinc", "k0": [0.01, 0.0, 0.0], "width": 2}
    for helicity in (0, 1):
        packets[f"block-angle-pi-{helicity}"] = {
            **refusal, "k0": [math.pi, 0.0, math.pi - 0.05], "helicity": helicity}
    return packets


# a second catalog: a linear record whose bound is a JSON integer, a
# quadratic record, a resonator whose two readings differ, a comma in an id
CATALOG = [
    {"id": "linear, integer bound", "kind": "dispersion", "source": "test",
     "e_qg_lower_bound": 10**19, "liv_order": 1, "sign": -1},
    {"id": "quadratic", "kind": "dispersion", "source": "test",
     "e_qg_lower_bound": 3.5e11, "liv_order": 2, "sign": 1},
    {"id": "resonator", "kind": "anisotropy", "source": "test",
     "delta_c_over_c": 2.5e-17, "wavelength": 1.55e-6},
]


def invocations() -> list[tuple[str, ...]]:
    runs = [("--version",)]
    for seed in range(10):
        runs.append(("verify", "--seed", str(seed)))
        runs.append(("verify", "--seed", str(seed), "--format", "json",
                     "--out", f"verify-{seed}.json"))
    for fmt in ("csv", "json"):
        for compat in ("--paper-compat", "--no-paper-compat"):
            runs.append(("bounds", "--format", fmt, compat))
            runs.append(("bounds", "--experiments", "catalog.json",
                         "--format", fmt, compat))
        for grid in ("16", "64"):
            runs.append(("anisotropy", "--grid", grid, "--format", fmt))
        # 2: all zone corners; 7: odd, with signed zeros and degenerate
        # rows; 48: the benchmark's surface-export grid; 64: the user-facing
        for grid in ("2", "7", "17", "48", "64"):
            runs.append(("surface", "--grid", grid, "--format", fmt))
        runs.append(("surface", "--grid", "17", "--format", fmt,
                     "--out", f"surface.{fmt}"))
        for name in _packets():
            runs.append(("propagate", "--packet", f"{name}.json", "--format", fmt))
    return runs


def _work_directory(path: Path) -> Path:
    path.mkdir(exist_ok=True)
    for name, packet in _packets().items():
        (path / f"{name}.json").write_text(json.dumps(packet))
    (path / "catalog.json").write_text(json.dumps(CATALOG))
    return path


def _take_out(argv: tuple[str, ...], work: Path):
    """The bytes of the invocation's --out file, removed, or None."""
    if "--out" not in argv:
        return None
    target = work / argv[argv.index("--out") + 1]
    out = target.read_bytes() if target.exists() else None
    target.unlink(missing_ok=True)
    return out


def run_in_process(work: str) -> dict:
    """Every invocation through `bosonwalk.cli.main` in this interpreter,
    from the directory `work` that holds the packet and catalog files: the
    manifest."""
    from bosonwalk import cli  # before numpy, so that it pins BLAS
    os.chdir(work)
    records = []
    for argv in invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # --version leaves through argparse
                code = exc.code
        result = (code, stdout.getvalue().encode(), stderr.getvalue().encode(),
                  _take_out(argv, Path(work)))
        records.append({"argv": list(argv), FIELDS[0]: code, **{
            field: None if data is None else hashlib.sha256(data).hexdigest()
            for field, data in zip(FIELDS[1:], result[1:])}})
    import numpy
    from numpy._core._multiarray_umath import __cpu_features__
    return {"environment": {"python": platform.python_version(),
                            "numpy": numpy.__version__,
                            "cpu features": sorted(
                                name for name, on in __cpu_features__.items() if on),
                            "platform": platform.platform()},
            "invocations": records}


def manifest(src: Path = SRC) -> dict:
    """run_in_process for the package in `src`, in a child interpreter
    started without the BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = str(Path(src).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                "import compare_outputs; "
                f"print(json.dumps(compare_outputs.run_in_process({tmp!r})))")
        _work_directory(Path(tmp))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp,
                              capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"recording failed:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(recorded: dict, current: dict) -> list[str]:
    """One line per invocation that differs between two manifests, naming
    the fields; empty when every result is the same."""
    lines = []
    runs = {tuple(r["argv"]): r for r in current["invocations"]}
    for old in recorded["invocations"]:
        argv = tuple(old["argv"])
        new = runs.pop(argv, None)
        if new is None:
            lines.append(f"{' '.join(argv)}: not run")
            continue
        fields = [field for field in FIELDS if old[field] != new[field]]
        if fields:
            lines.append(f"{' '.join(argv)}: {', '.join(fields)}")
    lines += [f"{' '.join(argv)}: not recorded" for argv in runs]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--record":
        Path(argv[1]).write_text(json.dumps(manifest(), indent=1) + "\n")
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC\n"
              "       python tools/compare_outputs.py --record MANIFEST",
              file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "bosonwalk" / "__init__.py").is_file():
            print(f"{src}: no bosonwalk package here", file=sys.stderr)
            return 2
    lines = differences(*map(manifest, srcs))
    for line in lines:
        print(f"DIFFER {line}")
    print(f"{len(invocations())} invocations, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
