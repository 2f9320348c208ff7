"""Spherelike posets: signatures, witnesses, family builders, statistics."""

import pytest

from sphq import poset as poset_module
from sphq.constructions import cb
from sphq.errors import IncompatibleKinds, WitnessFailed
from sphq.poset import (SubcatSignature, build_poset, compare, hasse_dot,
                        stats, verify_edges)


def vs(*verts):
    return SubcatSignature("vertex_supported", vertices=verts)


def test_compare_vertex_supported():
    assert compare(vs("1", "2"), vs("1", "2")) == "="
    assert compare(vs("1"), vs("1", "2")) == "<"
    assert compare(vs("1", "2"), vs("2")) == ">"
    assert compare(vs("1"), vs("2")) == "incomparable"


def test_compare_whole_category_is_maximum():
    whole = SubcatSignature("whole_category")
    assert compare(whole, vs("1")) == ">"
    assert compare(vs("1"), whole) == "<"
    assert compare(whole, whole) == "="


def test_compare_mixed_kinds_raises():
    classified = SubcatSignature("classified", components=("A_1",))
    with pytest.raises(IncompatibleKinds):
        compare(classified, vs("1"))


def test_compare_classified_by_components():
    c1 = SubcatSignature("classified", components=("A_1", "X"))
    c2 = SubcatSignature("classified", components=("A_1", "X"))
    c3 = SubcatSignature("classified", components=("A_2",))
    assert compare(c1, c2) == "="
    assert compare(c1, c3) == "incomparable"


@pytest.mark.parametrize("family,expected", [
    (("dda", 1, 2, 0), {"cardinality": 1, "height": 1, "width": 1}),
    (("dda", 2, 3, 0), {"cardinality": 3, "height": 2, "width": 2}),
    (("dda", 2, 3, 1), {"cardinality": 4, "height": 2, "width": 3}),
    (("dda", 1, 3, 0), {"cardinality": 3, "height": 2, "width": 2}),
    (("dda", 2, 4, 1), {"cardinality": 5, "height": 1, "width": 5}),
])
def test_dda_poset_stats(family, expected):
    poset = build_poset(family)
    assert stats(poset) == expected
    result = verify_edges(poset)
    assert result["checked"] == result["passed"]


def test_canonical_poset():
    poset = build_poset(("canonical", (2, 2, 2), (1,)))
    assert stats(poset) == {"cardinality": 4, "height": 2, "width": 3}
    tubes = [n for n in poset.order if n != "D"]
    assert all(poset.less(t, "D") for t in tubes)
    verify_edges(poset)


def test_synthesized_chain_of_three():
    poset = build_poset(("synthesized", ["1", "2", "3"],
                         [("1", "2"), ("2", "3")]))
    assert stats(poset) == {"cardinality": 3, "height": 3, "width": 1}
    assert poset.less("1", "3")
    verify_edges(poset)


def test_synthesized_cycle_poset():
    less = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]
    poset = build_poset(("synthesized", ["1", "2", "3", "4"], less))
    assert stats(poset) == {"cardinality": 4, "height": 3, "width": 2}
    assert poset.relation == {("1", "2"), ("1", "3"), ("1", "4"),
                              ("2", "4"), ("3", "4")}
    verify_edges(poset)


def test_corrupted_witness_detected():
    poset = build_poset(("dda", 2, 3, 0))
    assert poset.witnesses
    w = poset.witnesses[0]
    w.must_hit, w.must_miss = w.must_miss, w.must_hit
    with pytest.raises(WitnessFailed):
        verify_edges(poset)


def test_hasse_dot_deterministic():
    poset = build_poset(("dda", 2, 3, 0))
    d1 = hasse_dot(poset)
    d2 = hasse_dot(build_poset(("dda", 2, 3, 0)))
    assert d1 == d2
    assert d1.startswith("digraph hasse {")
    for cover in poset.covers():
        assert '"%s" -> "%s"' % cover in d1


def test_poset_json_shape():
    poset = build_poset(("dda", 1, 2, 0))
    data = poset.to_json()
    assert data["family"] == ["dda", 1, 2, 0]
    assert len(data["nodes"]) == 1
    assert data["nodes"][0]["signature"]["kind"] == "whole_category"


def test_engine_fault_is_not_swallowed(monkeypatch):
    """Only SphqError marks a candidate as unusable; other faults surface."""
    def broken(*args, **kwargs):
        raise AssertionError("engine fault")

    monkeypatch.setattr(poset_module, "classify_spherelike", broken)
    with pytest.raises(AssertionError, match="engine fault"):
        poset_module._find_y_corner(cb(2))
