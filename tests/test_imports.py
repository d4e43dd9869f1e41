"""Importing the library loads no scipy subpackage but ``scipy.special``."""

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
for name, mod in sorted(sys.modules.items()):
    if name.startswith("scipy."):
        print(name, hasattr(mod, "__path__"))
"""


def test_importing_metafn_loads_only_scipy_special():
    # a fresh interpreter: other tests import scipy.stats into this one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = dict(line.split() for line in proc.stdout.splitlines())
    assert not [n for n in loaded if n == "scipy.stats" or n.startswith("scipy.stats.")]
    public = {n.split(".")[1] for n, is_package in loaded.items()
              if is_package == "True" and not n.split(".")[1].startswith("_")}
    assert public == {"special"}
