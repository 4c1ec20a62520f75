"""Each walkthrough in demos/ runs to completion in a fresh interpreter.

conftest.py puts the checkout's ``src`` on ``PYTHONPATH``, so the demos
import the package under test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
