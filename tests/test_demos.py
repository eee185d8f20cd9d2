"""The demos' standard output, pinned byte for byte.

Each demo runs in a fresh working directory (demo 02 writes its figures
there) and its stdout must hash to the recorded sha256.  A change that moves
any printed number has to update the hash on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defectcost

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_worked_example.py": "bce001c430deec302db9f73f29624ae8ecc12c7c6c0d8f523a2af5acdd5f68c3",
    "02_boundary_trends.py": "ff76dcd3ecd39797f7f267089e6d9e83b93930d9b1d4ce2ff71478f42dd7f131",
    "03_incidence_views.py": "896c2dffd88b7ffeb252c5e2b5cceb6c6813abf5195c42be61450ce508cdfd97",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout(demo, tmp_path):
    package_root = str(Path(defectcost.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=300,
        check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo]
