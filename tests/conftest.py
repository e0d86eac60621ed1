"""Child processes started by the tests import qhelab from this checkout,
as the tests themselves do through pyproject's pytest `pythonpath`."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
