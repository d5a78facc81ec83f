"""The CLI byte contract: every invocation of tools/compare_outputs.py
against the manifest committed beside this file.

The manifest holds, per invocation, the exit code and the sha256 of
stdout, stderr and the --out bytes.  An approved byte change re-records it
with `python tools/compare_outputs.py --record tests/cli_manifest.json`
and lists each changed invocation in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import bosonwalk

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("cli_manifest.json")


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_committed_manifest():
    tool = _compare_outputs()
    recorded = json.loads(MANIFEST.read_text())
    current = tool.manifest(Path(bosonwalk.__file__).parent.parent)
    differences = tool.differences(recorded, current)
    assert not differences, "\n".join(
        [*differences, f"recorded in {recorded['environment']}",
         f"run in {current['environment']}"])
