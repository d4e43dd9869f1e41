"""Importing the library and every module of it loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import importlib, pkgutil, sys
import metafn
for m in pkgutil.iter_modules(metafn.__path__):
    importlib.import_module("metafn." + m.name)
print("\\n".join(name for name in sorted(sys.modules) if name.startswith("scipy")))
"""


def test_importing_metafn_loads_no_scipy_module():
    # a fresh interpreter: other tests import scipy into this one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []
