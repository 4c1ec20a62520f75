"""Shared test set-up.

Hypothesis runs with no per-example deadline, because example times on a
loaded machine vary far more than the default 200 ms allows.

``pythonpath = ["src"]`` in pyproject.toml lets the tests import the
checkout's package without installing it; the same directory is put on
``PYTHONPATH`` here so that the CLI processes the tests start import it
too.
"""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("stieltjes", deadline=None)
settings.load_profile("stieltjes")
