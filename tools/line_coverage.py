"""Run a pytest selection in process and list the package lines it never ran.

    python tools/line_coverage.py [PYTEST_ARGS...]

With no arguments the selection is the whole suite under `tests/`.  A
`sys.settrace` line tracer, limited to the files of `src/bosonwalk`, is
installed before pytest starts, so module-level lines run at import count
too.  The executable lines of each file are the line numbers its compiled
code objects carry.  Each one that never ran is printed as
`path:line: source`, then a summary line; the exit status is pytest's.

Only this interpreter is traced: code run in a child process, such as
`python -m bosonwalk` started by a test, is not counted, though `src` is
put on the PYTHONPATH the children inherit, as the tier-1 command does.
No coverage package is needed.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bosonwalk"


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled code objects of `path` carry."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran; {missed} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
