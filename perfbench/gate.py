"""Output gate: every invocation's output is checked against references.

The references in ref/outputs.json were recorded from the seed commit by
record.py.  Byte outputs (surface, bounds and anisotropy) must hash
exactly, as the CLI keeps its bytes identical.  Packet runs must match in
velocity, fit residual, spreads, norms and positions relative to the
first sample within a tolerance near rounding; moving x0 changes these by
at most about 2e-14 (positions up to 58 sites), while a 1e-6 velocity
shift must fail.  verify must pass all of its checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

REF_PATH = Path(__file__).resolve().parent / "ref" / "outputs.json"

HASHED = ("surface-csv", "surface-json", "bounds-json", "anisotropy-json")
ATOL = 1e-10
RTOL = 1e-9
NORM_DRIFT_MAX = 1e-12
VERIFY_SUMMARY = "28 checks, 0 failed"


def load_refs() -> dict:
    return json.loads(REF_PATH.read_text())


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _dense_summary(path: Path) -> dict:
    out = json.loads(Path(path).read_text())
    keep = ("n", "steps", "sample_every", "kind", "helicity", "k0_snapped",
            "measured_velocity", "analytic_velocity",
            "predicted_packet_velocity", "fit_residual", "final_spread")
    if out["norm_drift"] > NORM_DRIFT_MAX:
        raise ValueError(f"norm_drift {out['norm_drift']!r} > {NORM_DRIFT_MAX}")
    return {key: out[key] for key in keep} | {"keys": sorted(out)}


def _sparse_summary(path: Path) -> dict:
    lines = Path(path).read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    first = rows[0][1:4]
    norms = [r[7] for r in rows]
    drift = max(abs(v - 1.0) for v in norms)
    if drift > NORM_DRIFT_MAX:
        raise ValueError(f"norm drift {drift!r} > {NORM_DRIFT_MAX}")
    return {
        "header": lines[0],
        "steps": [int(r[0]) for r in rows],
        "relative_positions": [[c - f for c, f in zip(r[1:4], first)]
                               for r in rows],
        "spreads": [r[4:7] for r in rows],
        "norms": norms,
    }


def summarize(label: str, path: Path):
    """The part of an output the gate compares, as stored in the refs."""
    if label in HASHED:
        return {"sha256": sha256_file(path), "bytes": Path(path).stat().st_size}
    if label == "propagate-dense":
        return _dense_summary(path)
    if label == "propagate-sparse":
        return _sparse_summary(path)
    if label == "verify":
        lines = Path(path).read_text().splitlines()
        return {"summary": lines[-1] if lines else ""}
    if label == "version":
        return {"head": Path(path).read_text().split("\n", 1)[0]}
    raise KeyError(label)


def _mismatch(got, want, where: str = ""):
    """First difference between two summaries, or None."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return f"{where}: {got!r} != {want!r}"
        if not (math.isfinite(got)
                and abs(got - want) <= ATOL + RTOL * abs(want)):
            return f"{where}: {got!r} differs from {want!r}"
        return None
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = _mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


def check(label: str, returncode: int, path: Path, refs: dict):
    """Why the output at `path` fails the gate, or None when it passes."""
    if returncode != 0:
        return f"{label}: exit code {returncode}"
    try:
        got = summarize(label, path)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return f"{label}: unreadable output ({exc})"
    if label == "verify":
        want = {"summary": VERIFY_SUMMARY}
    elif label == "version":
        want = {"head": refs["version"]["head"]}
    else:
        want = refs[label]
    return _mismatch(got, want, label)


def _altered_copy(label: str, path: Path, dest: Path) -> None:
    """Write `path` to `dest` with the alteration the gate must catch."""
    if label in HASHED:
        # one byte flipped in the middle of the output
        shutil.copyfile(path, dest)
        with open(dest, "r+b") as handle:
            handle.seek(dest.stat().st_size // 2)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 1]))
    elif label == "verify":
        text = Path(path).read_text()
        dest.write_text(text.replace(VERIFY_SUMMARY, "28 checks, 1 failed"))
    elif label == "propagate-dense":
        out = json.loads(Path(path).read_text())
        out["measured_velocity"][0] += 1e-6
        dest.write_text(json.dumps(out, indent=2) + "\n")
    elif label == "propagate-sparse":
        # the centroid drifts 1e-6 sites per step faster along x
        lines = Path(path).read_text().splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[1] = _fmt(float(cells[1]) + 1e-6 * int(cells[0]))
            lines[i] = ",".join(cells)
        dest.write_text("\n".join(lines) + "\n")
    else:
        raise KeyError(label)


def self_test(label: str, path: Path, refs: dict, work: Path):
    """Why the gate failed its self-test on this output, or None.

    The output must pass as it is, and an altered copy must fail.
    """
    found = check(label, 0, path, refs)
    if found:
        return f"self-test: the unaltered output fails ({found})"
    dest = work / f"altered-{label}"
    _altered_copy(label, path, dest)
    try:
        if check(label, 0, dest, refs) is None:
            return f"self-test: an altered {label} output passes the gate"
    finally:
        dest.unlink()
    return None
