"""Importing the library must not load scipy.

scipy is a test-only dependency (the reference solver in
``tests/assignment``).  If the library picked it up opportunistically, a
host that happens to have scipy installed would run different production
code from one that does not, so a fresh interpreter pins the import
graph.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_import_repro_leaves_scipy_unloaded():
    code = (
        "import sys, repro, repro.spatial.pairstore; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "[]"
