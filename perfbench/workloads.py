"""The benchmark's workloads: the bosonwalk CLI invocations each one runs.

The benchmark seed picks the packet start x0 and the verify seeds; every
other input is fixed.  The packet files are written here, so the program
sees only generated inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

N = 64            # packet lattice size
SURFACE_GRID = 48


@dataclass(frozen=True)
class Invocation:
    label: str   # names the reference output and the gate check
    argv: tuple  # arguments after `python -m bosonwalk`


# why each workload was chosen is in BENCHMARK.json and perfbench/README.md
WORKLOADS = ("propagate-dense", "propagate-sparse", "surface-export",
             "verify-small")

# the reference job (calibrate.py) that does each workload's kind of work
REFERENCE = {"propagate-dense": "lattice", "propagate-sparse": "lattice",
             "surface-export": "text", "verify-small": "scalar"}


def _write_packet(path: Path, packet: dict) -> str:
    path.write_text(json.dumps(packet, indent=2) + "\n")
    return str(path)


def invocations(name: str, seed: int, work: Path) -> list[Invocation]:
    """The invocations of one run of workload `name` under `seed`."""
    rng = random.Random(seed)
    x0 = [rng.randrange(N) for _ in range(3)]
    if name == "propagate-dense":
        k = 0.4 * (1 / math.sqrt(3.0))
        packet = _write_packet(work / "packet-dense.json", {
            "kind": "gaussian", "n": N, "k0": [k, k, k], "x0": x0,
            "width": math.pi / 16, "helicity": 0, "steps": 16,
            "sample_every": 1})
        return [Invocation("propagate-dense",
                           ("propagate", "--packet", packet,
                            "--format", "json"))]
    if name == "propagate-sparse":
        packet = _write_packet(work / "packet-sparse.json", {
            "kind": "sinc", "n": N, "k0": [0.4, 0.0, 0.0], "x0": x0,
            "width": 2, "helicity": 0, "steps": 60, "sample_every": 20})
        return [Invocation("propagate-sparse",
                           ("propagate", "--packet", packet,
                            "--format", "csv"))]
    if name == "surface-export":
        return [Invocation(f"surface-{fmt}",
                           ("surface", "--grid", str(SURFACE_GRID),
                            "--format", fmt))
                for fmt in ("csv", "json")]
    if name == "verify-small":
        first = 5 * seed
        runs = [Invocation("verify", ("verify", "--seed", str(s)))
                for s in range(first, first + 5)]
        return runs + [
            Invocation("bounds-json", ("bounds", "--format", "json")),
            Invocation("anisotropy-json", ("anisotropy", "--format", "json")),
        ]
    raise KeyError(name)
