"""Run a fixed list of bosonwalk invocations on two source trees and compare.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a `src` directory holding the `bosonwalk` package.  Every
invocation runs as `python -m bosonwalk ...` with that directory on
PYTHONPATH, in a fresh working directory per tree, so the relative paths of
packet files and `--out` targets read the same in both.  Stdout, stderr,
the exit code and the bytes of any `--out` file are compared; each
difference is printed with its invocation, and the exit status is 1 if
any invocation differs, else 0.  Nothing here touches the network.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

N = 64  # the benchmark's packet lattice


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
    return packets


def invocations() -> list[tuple[str, ...]]:
    runs = [("--version",)]
    for seed in range(10):
        runs.append(("verify", "--seed", str(seed)))
        runs.append(("verify", "--seed", str(seed), "--format", "json",
                     "--out", f"verify-{seed}.json"))
    for fmt in ("csv", "json"):
        for compat in ("--paper-compat", "--no-paper-compat"):
            runs.append(("bounds", "--format", fmt, compat))
        for grid in ("16", "64"):
            runs.append(("anisotropy", "--grid", grid, "--format", fmt))
        runs.append(("surface", "--grid", "17", "--format", fmt))
        runs.append(("surface", "--grid", "17", "--format", fmt,
                     "--out", f"surface.{fmt}"))
        for name in _packets():
            runs.append(("propagate", "--packet", f"{name}.json", "--format", fmt))
    return runs


def _run(src: Path, argv: tuple[str, ...], work: Path) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None) of one invocation."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "bosonwalk", *argv], cwd=work,
                          env=env, capture_output=True, timeout=600)
    out = None
    if "--out" in argv:
        target = work / argv[argv.index("--out") + 1]
        out = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
    return done.returncode, done.stdout, done.stderr, out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "bosonwalk" / "__init__.py").is_file():
            print(f"{src}: no bosonwalk package here", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        for work in works:
            work.mkdir()
            for name, packet in _packets().items():
                (work / f"{name}.json").write_text(json.dumps(packet))
        runs = invocations()
        differ = 0
        for args in runs:
            results = [_run(src, args, work) for src, work in zip(srcs, works)]
            fields = [field for field, a, b in zip(
                ("exit code", "stdout", "stderr", "--out bytes"), *results) if a != b]
            if fields:
                differ += 1
                print(f"DIFFER {' '.join(args)}: {', '.join(fields)}")
    print(f"{len(runs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
