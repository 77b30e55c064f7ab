"""The tests import bispinor from src/ (pytest's pythonpath setting); child
processes they start (python -m bispinor) get the same src/ on PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
