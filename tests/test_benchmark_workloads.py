"""One unit of every benchmark workload, run through the library API it drives.

The benchmark in ``perfbench/`` calls the library by name and signature; this
keeps a change to that API from breaking it unnoticed.
"""

import sys
from pathlib import Path

import pytest

from metafn import training as TR

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Patcher  # noqa: E402
from workloads import WORKLOADS, FreezeCheck  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_unit_passes_its_checks(name, tmp_path):
    wl = WORKLOADS[name]()
    state = wl.setup(7, tmp_path)
    calibrate = TR.calibrate
    patcher = Patcher()
    state["freeze"] = FreezeCheck()
    state["freeze"].install(patcher)
    try:
        out = wl.work(state, 0)
    finally:
        patcher.restore()
    assert TR.calibrate is calibrate
    result = wl.check(state, 0, out, 1.0)
    assert result.failed == 0
    assert result.problems == []
