"""Package import behaviour: the lazy __init__, the CLI's BLAS thread pin,
and that every submodule imports cleanly on its own."""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import bosonwalk

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh(code, *flags, **env):
    """Run `code` in a new interpreter without the BLAS variables (plus
    `env`) and return the JSON it prints."""
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True,
                          env={**environ, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the BLAS variables after `import bosonwalk.cli`, and the thread count
PIN_PROBE = """
import json, os
import bosonwalk.cli
try:
    with open("/proc/self/status") as status:
        threads = int(status.read().split("Threads:")[1].split()[0])
except OSError:
    threads = None
print(json.dumps([[os.environ.get(k) for k in %r], threads]))
""" % (BLAS_VARS,)


def test_bare_import_loads_no_numpy_and_sets_nothing():
    seen = fresh("import json, os, sys\n"
                 "before = dict(os.environ)\n"
                 "import bosonwalk\n"
                 "print(json.dumps(['numpy' in sys.modules,"
                 " dict(os.environ) == before]))")
    assert seen == [False, True]


def test_cli_import_pins_blas_to_one_thread():
    blas, threads = fresh(PIN_PROBE)
    assert blas == ["1", "1", "1"]
    if threads is None:
        pytest.skip("no /proc/self/status to count threads")
    assert threads == 1


def test_a_thread_count_the_user_set_wins():
    blas, _ = fresh(PIN_PROBE, OPENBLAS_NUM_THREADS="2")
    assert blas == ["2", "1", "1"]


def test_cli_sets_nothing_once_numpy_is_loaded():
    blas, _ = fresh("import numpy" + PIN_PROBE)
    assert blas == [None, None, None]


def test_submodules_load_on_first_access():
    seen = fresh("import json\nimport bosonwalk\n"
                 "table = bosonwalk.kernel.surface_table(2)\n"
                 "print(json.dumps([bosonwalk.kernel.__name__,"
                 " int(table['kx'].size)]))")
    assert seen == ["bosonwalk.kernel", 8]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        bosonwalk.nonexistent


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bosonwalk.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_alone_without_warnings(name):
    assert fresh(f"import bosonwalk.{name}\nprint('true')", "-W", "error")


def test_star_import_binds_every_public_name():
    missing = fresh("import json\nnames = {}\n"
                    "exec('from bosonwalk import *', names)\n"
                    "import bosonwalk\n"
                    "print(json.dumps([n for n in bosonwalk.__all__"
                    " if n not in names]))")
    assert missing == []
