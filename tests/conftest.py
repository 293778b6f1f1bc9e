"""Setup shared by every test module.

``pyproject.toml`` puts ``src/`` on pytest's own path; the tests that run
``python -m qhc.cli`` in a child process need it on ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
