"""Package import behaviour: the lazy __init__, the CLI's BLAS thread pin,
and that every submodule imports cleanly on its own."""

import hashlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import asdict

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


# main on the argv filled in for %r, stdout discarded; prints the exit
# code, whether numpy loaded, the thread count and the package's modules
RUN_PROBE = """
import contextlib, io, json, sys
from bosonwalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(%r)
    except SystemExit as exc:  # --version leaves through argparse
        code = exc.code
try:
    with open("/proc/self/status") as status:
        threads = int(status.read().split("Threads:")[1].split()[0])
except OSError:
    threads = None
print(json.dumps([code, "numpy" in sys.modules, threads,
                  sorted(m for m in sys.modules if m.startswith("bosonwalk"))]))
"""


@pytest.mark.parametrize("name", ["bounds", "cli"])
def test_import_loads_no_numpy(name):
    assert fresh(f"import json, sys\nimport bosonwalk.{name}\n"
                 "print(json.dumps('numpy' in sys.modules))") is False


@pytest.mark.parametrize("argv", [
    ["--version"], ["bounds", "--format", "json"], ["bounds", "--format", "csv"]])
def test_version_and_bounds_run_without_numpy(argv):
    code, numpy_loaded, *_ = fresh(RUN_PROBE % (argv,))
    assert (code, numpy_loaded) == (0, False)


# what every command loads: the package, its errors, the budget and the CLI
CLI_MODULES = ["bosonwalk", "bosonwalk.budget", "bosonwalk.cli",
               "bosonwalk.errors"]


@pytest.mark.parametrize("argv, modules", [
    (["--version"], []),
    (["bounds", "--format", "csv"], ["bounds"]),
    (["anisotropy", "--grid", "16", "--format", "json"], ["anisotropy"]),
    (["surface", "--grid", "4", "--format", "json"], ["kernel"]),
    (["propagate", "--packet", "{packet}"], ["kernel", "lattice"]),
    (["verify", "--seed", "0"],
     ["algebra", "anisotropy", "bounds", "kernel", "lattice", "verify"]),
], ids=["version", "bounds", "anisotropy", "surface", "propagate", "verify"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    packet = tmp_path / "packet.json"
    packet.write_text(json.dumps({
        "kind": "sinc", "n": 16, "k0": [0.4, 0, 0], "x0": [8, 8, 8],
        "width": 2, "helicity": 0, "steps": 2, "sample_every": 1}))
    argv = [a.format(packet=packet) for a in argv]
    code, _, _, loaded = fresh(RUN_PROBE % (argv,))
    assert code == 0
    assert loaded == sorted(CLI_MODULES + [f"bosonwalk.{m}" for m in modules])


# the two oracle routes, which alone outside verify read the algebra
ORACLES = {
    "kernel_exponential": "kernel.kernel_exponential([0.3, -1.2, 2.5])",
    "evolve_direct": "lattice.evolve_direct(lattice.to_momentum(lattice.random_state("
                     "lattice.Lattice(4), np.random.default_rng(1))), 3).amplitudes",
}


@pytest.mark.parametrize("call", ORACLES.values(), ids=ORACLES.keys())
def test_an_oracle_loads_the_algebra_when_it_runs(call):
    from bosonwalk import kernel, lattice
    import numpy as np
    before, after, digest = fresh(
        "import hashlib, json, sys\nimport numpy as np\n"
        "from bosonwalk import kernel, lattice\n"
        "before = 'bosonwalk.algebra' in sys.modules\n"
        f"out = {call}\n"
        "print(json.dumps([before, 'bosonwalk.algebra' in sys.modules,"
        " hashlib.sha256(out.tobytes()).hexdigest()]))")
    expected = eval(call, {"kernel": kernel, "lattice": lattice, "np": np})
    assert (before, after) == (False, True)
    assert digest == hashlib.sha256(expected.tobytes()).hexdigest()


def test_constants_have_one_home():
    from bosonwalk import anisotropy, bounds
    assert list(asdict(bounds.PhysicalConstants()).items()) == list(
        bosonwalk.CONSTANTS.items())
    for name in ("RMS_UNIT_AVERAGE", "RMS_SOLID_ANGLE", "SPREAD_MAX"):
        assert getattr(anisotropy, name) is getattr(bosonwalk, name)
    for name in ("RMS_SOLID_ANGLE", "SPREAD_MAX"):  # the two bounds uses
        assert getattr(bounds, name) is getattr(bosonwalk, name)


def test_a_command_that_loads_numpy_runs_one_thread():
    argv = ["anisotropy", "--grid", "16", "--format", "json"]
    code, numpy_loaded, threads, _ = fresh(RUN_PROBE % (argv,))
    assert (code, numpy_loaded) == (0, True)
    if threads is None:
        pytest.skip("no /proc/self/status to count threads")
    assert threads == 1


def test_submodules_load_on_first_access():
    seen = fresh("import json\nimport bosonwalk\n"
                 "table = bosonwalk.kernel.surface_table(2)\n"
                 "print(json.dumps([bosonwalk.kernel.__name__,"
                 " int(table['axis'].size), int(table['phase'].size)]))")
    assert seen == ["bosonwalk.kernel", 2, 8]
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


def test_every_error_class_is_exported():
    from bosonwalk import errors
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.WalkError)]
    assert errors.InvalidArgumentError in classes
    for cls in classes:
        assert cls.__name__ in bosonwalk.__all__
        assert getattr(bosonwalk, cls.__name__) is cls
