"""Child processes of the tests import hvlab from this checkout's src/.

pytest puts src/ on its own import path (``pythonpath`` in
pyproject.toml); the same directory goes first on PYTHONPATH here, so a
``python -m hvlab`` child runs the code under test, not an installed copy.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
