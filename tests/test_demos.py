"""The demos' standard output, pinned byte for byte.

Each demo runs in a fresh working directory (demo 02 writes its figures
and records there) and its stdout, and every file it writes, must hash to
the recorded sha256.  A change that moves any printed or written number has
to update the hash on purpose.
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
    "01_worked_example.py": "167e72c54022bbee562181299ad40e7c42efb64af26941877c579ed760cd3ede",
    "02_boundary_trends.py": "ff76dcd3ecd39797f7f267089e6d9e83b93930d9b1d4ce2ff71478f42dd7f131",
    "03_incidence_views.py": "896c2dffd88b7ffeb252c5e2b5cceb6c6813abf5195c42be61450ce508cdfd97",
}
# The files each demo writes into its working directory; demo 02 passes a
# list of records to trend and render_scatter, which read them back.
FILES_SHA256 = {
    "02_boundary_trends.py": {
        "records.csv": "ab2b943e0068ad924983243fcfa66529305b85550250eadd522ebcc3a2a4676e",
        "trend_precision.svg": "dc483bdf0357c089ed1e2d0e18759bc8f72e57503ab131253436789b01b0341d",
        "trend_recall.svg": "de854b779aab13d15287e5cc2f9ea738564b175a8d2042f28533cb002a3325aa",
    },
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
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert written == FILES_SHA256.get(demo, {})
