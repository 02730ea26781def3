"""Golden outputs: every subcommand's stdout and exit code, byte for byte.

``tests/golden/cases.json`` maps each golden file to the arguments of
``python -m hvlab`` that produced it and the exit code it gave.  An argument
that names a file under ``tests/golden/`` (the gate files in ``gates/``) is
passed as that file's path.  A change that alters any byte of the output,
or any exit code, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    case = CASES[name]
    argv = [str(GOLDEN / arg) if (GOLDEN / arg).is_file() else arg for arg in case["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert proc.stderr == b""
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / name).read_bytes()
