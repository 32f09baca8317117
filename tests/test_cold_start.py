"""The closed-form path loads without numpy, and the package imports lazily.

Every check runs in a fresh interpreter: pytest and the other test modules
have loaded numpy and the whole package into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: runs ``cloneforge ARGS`` in the child, then reports on its sys.modules
RUN_CLI = """
import json, sys
from cloneforge import cli
code = 0
try:
    cli.main(args=sys.argv[1:], prog_name="cloneforge")
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "loaded": sorted(m for m in sys.modules if m.startswith("cloneforge.")),
}), file=sys.stderr)
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_cli(*args):
    """``(exit code, numpy loaded, cloneforge submodules loaded)`` of one command."""
    report = json.loads(run_python(RUN_CLI, *args).stderr.splitlines()[-1])
    return report["code"], report["numpy"], report["loaded"]


def test_import_loads_no_submodule():
    proc = run_python(
        "import sys, cloneforge; "
        "print(sorted(m for m in sys.modules if m.startswith('cloneforge.')), 'numpy' in sys.modules)"
    )
    assert proc.stdout.split() == ["[]", "False"]


@pytest.mark.parametrize(
    "args",
    [
        ("bounds", "--theta", "0.3", "-m", "1", "-n", "2"),
        ("bounds", "--theta", "0.3", "-m", "2", "-n", "5", "--p-s", "0.8"),
        ("bounds", "--overlap", "0.5", "--eta-plus", "0.7"),
        ("bounds", "--theta", "0.3", "--p-s", "0.9", "--format", "csv"),
        ("--help",),
        ("bounds", "--help"),
        ("simulate", "--help"),
    ],
    ids=" ".join,
)
def test_bounds_and_help_run_without_numpy(args):
    code, numpy_loaded, loaded = run_cli(*args)
    assert code == 0
    assert not numpy_loaded
    assert loaded == ["cloneforge.bounds", "cloneforge.cli"]


def test_rejected_bounds_request_runs_without_numpy():
    code, numpy_loaded, _ = run_cli("bounds", "--theta", "0.3", "-m", "2", "-n", "2")
    assert code == 2
    assert not numpy_loaded


def test_simulate_imports_the_simulation_when_it_runs():
    code, numpy_loaded, loaded = run_cli("simulate", "--theta", "0.3", "--mode", "exact")
    assert code == 0
    assert numpy_loaded
    assert {"cloneforge.gates", "cloneforge.linalg", "cloneforge.networks"} <= set(loaded)


def test_unknown_attribute_is_an_attribute_error():
    import cloneforge

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cloneforge.no_such_name


def test_verify_under_dash_m_compiles_the_cli_once():
    """``python -m cloneforge.cli verify`` reuses its running module.

    The determinism suite imports ``cloneforge.cli``; under ``-m`` the file
    runs as ``__main__``, and without the binding it would be compiled and
    executed a second time, which ``-X importtime`` lists as an import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cloneforge.cli", "verify"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "10/10 suites passed"
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "cloneforge.verify" in imported
    assert "cloneforge.cli" not in imported
