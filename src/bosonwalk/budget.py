"""The memory budget: refuse a run before it allocates what it cannot have.

Only the standard library is imported here, so a command can refuse an
oversized run without loading numpy.
"""

import math
import os

try:
    import resource
except ImportError:  # no resource limits on this platform
    resource = None

from .errors import MemoryBudgetError

# tracemalloc peaks with about twofold margin, in bytes per
_SURFACE_BYTES_PER_POINT = 320     # surface point: 121 at m = 48, 125 at 64
_ANISOTROPY_BYTES_PER_POINT = 512  # anisotropy point: text or doubled grid
_MAP_BYTES_PER_POINT = 96          # anisotropy map point: 46 at 16^2, 32 at 512^2
_SPHERE_BYTES_PER_POINT = 64       # doubled sphere pass: grid 24, companion 16
_BYTES_PER_AXIS_MODE = 128         # lattice axis mode: 41 in per-axis arrays
_BYTES_PER_WINDOW_MODE = 512       # packet mode: measure 235, build 144
_BYTES_PER_SAMPLE = 1024           # trajectory sample
_CATALOG_BYTES_PER_FILE_BYTE = 64  # catalog file byte: 28 parsed, 6 as text
_PACKET_FILE_BYTES = 1 << 20       # the whole packet file (under 1 kB)


def _memory_budget() -> float:
    """Bytes a run may allocate: the smaller of the address-space soft limit
    and the physical memory available."""
    budget = math.inf
    if "SC_AVPHYS_PAGES" in os.sysconf_names:
        budget = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            budget = min(budget, soft)
    return budget


def _read_text(path, limit: int, error: type, label: str) -> str:
    """The file at `path` decoded as open(path, encoding="utf-8").read()
    decodes it, but read no further than one byte past `limit`: a longer
    file, or an endless one such as /dev/zero, raises `error` naming
    `label` before anything is decoded or parsed."""
    import io
    data = bytearray()
    with open(path, "rb") as handle:  # in blocks: read(n) reserves n bytes
        while len(data) <= limit:
            block = handle.read(min(limit + 1 - len(data), 1 << 20))
            if not block:
                break
            data += block
    if len(data) > limit:
        raise error(f"{label}: larger than {limit} bytes")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _gib(nbytes: float) -> str:
    try:
        return f"{nbytes / 2**30:.3g}"
    except OverflowError:  # an integer estimate past the float range
        from decimal import Decimal
        return f"{Decimal(nbytes) / 2**30:.3g}"


def _refuse_over_budget(estimate: float, what: str) -> None:
    budget = _memory_budget()
    if estimate > budget:
        raise MemoryBudgetError(
            f"{what} would need about {_gib(estimate)} GiB, over the "
            f"{_gib(budget)} GiB memory budget")
