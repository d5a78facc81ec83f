"""Reference jobs: fixed work that uses none of the package.

    python3 perfbench/calibrate.py lattice|text|scalar

run.py runs one as a fresh process before the first repetition of a
workload and after every one, and reports the workload's times as
multiples of its times, so that a change of speed of the machine cancels
out.  The speed of a shared host does not change alike for every kind of
work, so each workload has the job that does its kind of work
(workloads.REFERENCE):

- lattice: a 6x6 matrix product per site, complex FFTs and a 6x6 apply
  per site on a 64^3 lattice, the array sizes of the packet workloads;
- text: float formatting and JSON serialisation of many rows, as the
  surface export does;
- scalar: many numpy calls on scalars and 3-vectors, as the verify,
  bounds and anisotropy runs make.

Every job starts the interpreter and imports numpy, as every CLI run
does.  Nothing here may change once a baseline is recorded, or the
ratios stop comparing.
"""

import json
import sys

import numpy as np

N = 64


def lattice() -> bool:
    step = np.broadcast_to(np.eye(6) * 0.9 + 0.01j, (N, N, N, 6, 6))
    step = step @ step
    amp = (np.arange(N ** 3 * 6, dtype=np.float64).reshape(N, N, N, 6)
           % 7.0) + 0.5j
    amp = np.fft.ifftn(np.fft.fftn(amp, axes=(0, 1, 2)), axes=(0, 1, 2))
    amp = np.einsum("xyzab,xyzb->xyza", step, amp)
    return bool(np.isfinite(amp).all())


def text() -> bool:
    rows = [f"{i},{i * 0.1:.17g},{i / 7:.17g},{i % 13:.6e}"
            for i in range(80000)]
    out = "\n".join(rows) + json.dumps([[i * 0.5, i / 3.0, i / 7.0]
                                        for i in range(50000)])
    return len(out) > 0


def scalar() -> bool:
    total = 0.0
    for i in range(100000):
        total += float(np.cos(i * 0.01) * np.sqrt(i + 1.0))
    v = np.zeros(3)
    for i in range(40000):
        v = v + np.array([i, 1.0, 2.0]) * 1e-3
        total += float(np.linalg.norm(v))
    return np.isfinite(total)


JOBS = {"lattice": lattice, "text": text, "scalar": scalar}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in JOBS:
        raise SystemExit(f"usage: calibrate.py {'|'.join(JOBS)}")
    if not JOBS[sys.argv[1]]():
        raise SystemExit("the reference job went wrong")
