"""Make `src/` importable in the Python subprocesses some tests start.

`pythonpath = ["src"]` in pyproject.toml serves the test process itself;
a child interpreter (`python -m extgevrey.cli ...`) reads PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
