"""The narrative scripts under demos/ and the README quick start run end
to end against src/."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "dispersion_scan.py", "packet_transport.py", "spacing_bounds.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(script, tmp_path):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs():
    # the block alone: doctest would read its closing fence as output
    readme = (ROOT / "README.md").read_text()
    [block] = re.finditer(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        block[1], {}, "quick start", "README.md",
        readme.count("\n", 0, block.start(1)))
    assert doctest.DocTestRunner().run(test) == (0, 8)
