"""Acceptance suite: each criterion prints one pass/fail line."""

import json
import pathlib

import pytest

from sphq.corpus import CRITERIA, run_criterion

IDS = ["%02d-%s" % (num, name) for num, name, _ in CRITERIA]


@pytest.mark.parametrize("num,name,check", CRITERIA, ids=IDS)
def test_criterion(num, name, check):
    ok, detail = check()
    print("criterion %02d %-24s %s | %s" % (
        num, name, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criteria_in_reverse_order_match_the_recorded_report():
    """Fixtures are loaded once per process, so criteria share each
    algebra's memos; running them from 12 down to 1 must still give the
    recorded report of every criterion."""
    golden = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "golden" / "corpus.json"
    report = json.loads(json.loads(golden.read_text())["report"])
    expected = {r["criterion"]: r for r in report["results"]}
    for num in sorted(expected, reverse=True):
        assert run_criterion(num) == expected[num]
