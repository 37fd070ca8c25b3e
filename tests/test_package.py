"""The package imports lazily, the command owns the BLAS thread default, no
check of the library is an assert statement, and every library function is
reached by a command or a demo."""

import ast
import importlib
import json
import os
import runpy
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


# -- every library function serves a command or a demo -----------------------

ROOT = SRC.parent
# the functions of src/ that no command and no demo enters, with the reason
# each one stays
UNREACHED = {
    "__init__.__dir__": "dir(koszulres) lists the lazily loaded public names",
}


def _functions(package: Path) -> dict:
    """{(file, first line of its code object): module.qualified.name} of every
    def in the package; a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), line)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def test_every_function_is_reached_by_a_command_or_a_demo(tmp_path, monkeypatch):
    from koszulres.cli import main

    classt = SRC / "koszulres" / "data" / "classT_example.ring"
    ci3 = SRC / "koszulres" / "data" / "ci3_example.ring"
    badbasis = tmp_path / "badbasis.ring"  # z1_4 copies z1_1: its certificate fails
    badbasis.write_text(classt.read_text().replace("z1_4 = y*z*e[1]", "z1_4 = x*e[1]"))
    commands = [
        (["verify", "--ring", str(classt), "--max-degree", "4"], 0),
        (["resolve", "--ring", str(classt), "--emit-matrices", "--max-degree", "4"], 0),
        (["verify", "--ring", str(ci3), "--max-degree", "4", "--oracle"], 0),
        (["verify", "--ring", str(classt), "--max-degree", "4", "--sign-flip"], 4),
        (["verify", "--ring", str(badbasis), "--max-degree", "4"], 3),
        (["betti", "--class-t", "4,6,3"], 0),
        (["betti", "--ci", "3"], 0),
        (["betti", "--ring", str(classt)], 0),
        (["demo-classt", "--max-degree", "4"], 0),
    ]
    # start from no earlier test's state: empty the memo caches, and let the
    # package look its public names up again
    for name, module in list(sys.modules.items()):
        if name.startswith("koszulres."):
            for value in list(vars(module).values()):
                getattr(value, "cache_clear", lambda: None)()
    for name in koszulres.__all__:
        monkeypatch.delitem(vars(koszulres), name, raising=False)

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes, previous = [], sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in commands:
            codes.append(main(argv + ["--no-timestamp"]))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in commands]
    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    functions = _functions(Path(koszulres.__file__).parent)
    assert sorted(name for key, name in functions.items() if key not in reached) == \
        sorted(UNREACHED)
