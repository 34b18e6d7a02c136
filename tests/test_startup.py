import os
import subprocess
import sys
from pathlib import Path

import ringseg


def test_import_leaves_scipy_out():
    # a fresh interpreter, so modules that other tests imported do not count
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ringseg, ringseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
