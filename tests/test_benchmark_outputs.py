"""The benchmark's fixture workloads reproduce their recorded outputs.

One untimed pass of ``query_mix`` and of ``derived_ops`` (``perfbench/``),
each op checked by the workload's own ``check_all`` against its oracle and
``perfbench/golden/``.  The corpus report is checked the same way in
``perfbench/test_tracer.py``.  Together they take about 3 s.
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["query_mix", "derived_ops"])
def test_workload_outputs_match_golden(name):
    w = WORKLOADS[name]()
    w.setup(seed=0)
    results = w.run(time.monotonic)
    assert len(results) == len(w.ops)
    assert w.check_all(results) == []
