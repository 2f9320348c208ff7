"""Tests of the outside-in tracer.

    python3 -m pytest -q perfbench/test_tracer.py

The traced corpus run takes about 20 s.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402

worker.import_sphq()

import pytest  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import Corpus, load_golden  # noqa: E402


def _sphq_bindings():
    """Every (owner, attribute) -> value of the sphq modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "sphq" or name.startswith("sphq.")) or mod is None:
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


@pytest.fixture(scope="module")
def traced_corpus():
    w = Corpus()
    w.setup(seed=0)
    tracer = Tracer()
    before = _sphq_bindings()
    tracer.install()
    try:
        originals = [orig for _, _, orig in tracer.patched()]
        missed = [k for k, v in _sphq_bindings().items()
                  if any(v is orig for orig in originals)]
        start = time.monotonic()
        results = w.run(time.monotonic)
        wall = time.monotonic() - start
    finally:
        tracer.uninstall()
    return w, tracer, before, missed, results, wall


def test_traced_corpus_report_is_byte_identical(traced_corpus):
    w, _, _, _, results, _ = traced_corpus
    assert w.code == 0
    assert w.stdout == load_golden("corpus")["report"]
    assert w.check_all(results) == []


def test_every_alias_is_rebound_and_restored(traced_corpus):
    _, tracer, before, missed, _, _ = traced_corpus
    assert missed == []
    assert tracer.patched() == []
    after = _sphq_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_times_sum_to_at_most_the_wall_time(traced_corpus):
    _, tracer, _, _, _, wall = traced_corpus
    _, selfs = tracer.self_times()
    assert min(selfs) >= 0
    assert sum(selfs) <= wall
    stats = tracer.layer_stats()
    assert sum(s.get("self_s", 0.0) for s in stats.values()) <= wall
