"""Smoke test: demos 01 to 06 run to completion against the package API.

Demo 07 (about 9 s) is left out: it only drives `run_experiment`, which
test_harness.py covers.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import pvdmimo

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("0[1-6]_*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the same pvdmimo as this process, however pytest found it
    src = os.path.dirname(os.path.dirname(pvdmimo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
