"""Smoke test: every demo script and the benchmark self-test run to
completion against the source tree, and each demo prints the same stdout on
every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # no wall-clock time, so that a demo's stdout is the same on every run
    assert not re.search(r"\d\.\d+s\b", proc.stdout), proc.stdout


def test_perfbench_selftest():
    # the traced run reads H.flat_diff and the oracle's differentials
    proc = _run(ROOT / "perfbench" / "selftest.py")
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
