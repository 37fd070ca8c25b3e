"""The package imports lazily, the command owns the BLAS thread default, and
no check of the library is an assert statement."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koszulres

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str, openblas_threads=None):
    """The JSON that ``code`` prints last, run in a new interpreter on the
    source tree with OPENBLAS_NUM_THREADS unset or set to the given value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import json, sys, koszulres\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "      if m == 'numpy' or m.startswith('koszulres.'))))")
    assert loaded == []


THREADS = """\
import json, os, sys
import koszulres.cli
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(json.dumps({"numpy": "numpy" in sys.modules, "threads": threads,
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def test_cli_defaults_to_one_blas_thread():
    got = _fresh(THREADS)
    assert got["numpy"]  # the default is in place by the time numpy has loaded
    assert got["env"] == "1"
    if sys.platform.startswith("linux"):
        assert got["threads"] == 1


def test_cli_keeps_the_callers_blas_threads():
    assert _fresh(THREADS, openblas_threads="2")["env"] == "2"


def test_every_public_name_resolves():
    for name in koszulres.__all__:
        module = importlib.import_module(f"koszulres.{koszulres._SUBMODULE[name]}")
        assert getattr(koszulres, name) is getattr(module, name), name
    assert set(koszulres.__all__) <= set(dir(koszulres))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        koszulres.no_such_name  # noqa: B018
    assert not hasattr(koszulres, "no_such_name")


def test_no_assert_statement_in_src():
    # python -O strips assert statements, and with them every check made so
    for path in sorted((SRC / "koszulres").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
