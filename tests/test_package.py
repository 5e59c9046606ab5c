"""Properties of the installed package as a whole."""

import subprocess
import sys
from pathlib import Path

import beliefgraph


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency; importing the package
    pulls in no scipy module, which would also cost set-up time."""
    source = str(Path(beliefgraph.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import beliefgraph; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, source],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
