"""The tests import bispinor from an explicit PYTHONPATH where one holds it, else from
this checkout's src/, ahead of any installed copy; the pytest header names the bispinor
imported, and child processes the tests start (python -m bispinor) get the same one
first on PYTHONPATH."""

import importlib.machinery
import os
import sys
from pathlib import Path

_PYTHONPATH = [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
if importlib.machinery.PathFinder.find_spec("bispinor", _PYTHONPATH) is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bispinor  # noqa: E402  (imported from the path chosen above)

_HOME = Path(bispinor.__file__).resolve().parent
os.environ["PYTHONPATH"] = os.pathsep.join([str(_HOME.parent), *_PYTHONPATH])


def pytest_report_header(config):
    return f"bispinor {bispinor.__version__} from {_HOME}"
