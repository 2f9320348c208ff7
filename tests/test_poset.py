"""Spherelike posets: signatures, witnesses, family builders, statistics."""

import itertools
import random
from collections import Counter

import pytest

from sphq import derived, spherelike
from sphq import poset as poset_module
from sphq.constructions import cb
from sphq.errors import (EngineInvariantViolation, IncompatibleKinds,
                         SphqError, WitnessFailed)
from sphq.ktheory import euler_matrix, euler_pairing, k_class
from sphq.poset import (PosetNode, SpherelikePoset, SubcatSignature,
                        build_poset, compare, hasse_dot, stats, verify_edges)
from sphq.reps import simple_module
from sphq.spherelike import (asphericality, classify_spherelike,
                             in_spherical_subcat)


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


def test_dda_2_9_6_poset_builds_and_verifies():
    poset = build_poset(("dda", 2, 9, 6))
    assert stats(poset) == {"cardinality": 15, "height": 1, "width": 15}
    assert verify_edges(poset) == {"checked": 210, "passed": 210}


def test_build_resolves_each_simple_once_and_tests_each_pair_once(
        monkeypatch):
    resolved, tested = Counter(), Counter()
    real_resolution = poset_module.minimal_projective_resolution
    real_member = poset_module.in_spherical_subcat

    def resolution(M):
        resolved[tuple(sorted(M.dims.items()))] += 1
        return real_resolution(M)

    def member(W, Q):
        tested[W, Q] += 1
        return real_member(W, Q)

    monkeypatch.setattr(poset_module, "minimal_projective_resolution",
                        resolution)
    monkeypatch.setattr(poset_module, "in_spherical_subcat", member)
    poset = build_poset(("dda", 2, 4, 1))
    assert poset.witnesses and resolved and tested
    assert max(resolved.values()) == 1
    assert max(tested.values()) == 1


def test_build_maps_each_d_nonzero_object_to_its_serre_dual_once(
        monkeypatch):
    """Classifying an object with d != 0 builds Hom(F, nu F[-d]) once, and
    its node reads Q_F off the report: no chain map space is built outside
    classification."""
    spaces, per_object = [], []
    real_space = derived.chain_map_space
    real_classify = poset_module.classify_spherelike

    def space(F, G, s):
        spaces.append(s)
        return real_space(F, G, s)

    def classify(obj, desc):
        before = len(spaces)
        rep = real_classify(obj, desc)
        per_object.append((rep.d, len(spaces) - before))
        return rep

    monkeypatch.setattr(derived, "chain_map_space", space)
    monkeypatch.setattr(spherelike, "chain_map_space", space)
    monkeypatch.setattr(poset_module, "classify_spherelike", classify)
    build_poset(("dda", 2, 9, 6))
    d_nonzero = [n for d, n in per_object if d not in (None, 0)]
    assert len(d_nonzero) == 18
    assert set(d_nonzero) == {1}
    assert len(spaces) == sum(n for _, n in per_object)


def test_find_spherelike_skips_the_length_one_intervals(monkeypatch):
    """interval:v,1 is P(v)/rad P(v) = S(v), already tried as S:v."""
    tried = []
    real_classify = poset_module.classify_spherelike

    def classify(obj, desc):
        tried.append(desc)
        return real_classify(obj, desc)

    monkeypatch.setattr(poset_module, "classify_spherelike", classify)
    build_poset(("dda", 2, 4, 1))
    assert any(d.startswith("interval:") for d in tried)
    assert not [d for d in tried
                if d.startswith("interval:") and d.endswith(",1")]


def _reference_stats(n, less):
    """Closure by fixpoint, covers by definition, height and width by
    enumerating every subset: the brute force that stats replaces."""
    closed = set(less)
    changed = True
    while changed:
        new = {(a, d) for (a, b) in closed for (c, d) in closed if b == c}
        changed = not new <= closed
        closed |= new
    covers = sorted((a, b) for (a, b) in closed
                    if not any((a, c) in closed and (c, b) in closed
                               for c in range(n)))
    height = width = 0
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            pairs = [(a, b) in closed or (b, a) in closed
                     for a, b in itertools.combinations(combo, 2)]
            if all(pairs):
                height = k
            if not any(pairs):
                width = k
    return closed, covers, {"cardinality": n, "height": height, "width": width}


def _random_less(rng, n):
    p = rng.random()
    return {(a, b) for a, b in itertools.combinations(range(n), 2)
            if rng.random() < p}


def test_order_algorithms_match_brute_force():
    """The empty poset, then 200 seeded random posets of at most 9
    elements, labelled in a shuffled order."""
    for seed in range(201):
        rng = random.Random(seed)
        n = 0 if seed == 0 else rng.randint(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        less = {(perm[a], perm[b]) for a, b in _random_less(rng, n)}
        poset = SpherelikePoset(None, "random")
        for i in range(n):
            poset.add_node(PosetNode(i, str(i), None, None, None))
        for a, b in less:
            poset.add_less(a, b)
        poset.close_transitively()
        closed, covers, expected = _reference_stats(n, less)
        assert poset.relation == closed, seed
        assert poset.covers() == covers, seed
        assert stats(poset) == expected, seed


@pytest.mark.parametrize("less", [[(0, 0)], [(0, 1), (1, 0)]],
                         ids=["loop", "2-cycle"])
def test_cyclic_relation_is_an_engine_fault(less):
    poset = SpherelikePoset(None, "cyclic")
    for i in range(3):
        poset.add_node(PosetNode(i, str(i), None, None, None))
    for a, b in less:
        poset.add_less(a, b)
    with pytest.raises(EngineInvariantViolation):
        poset.covers()
    with pytest.raises(EngineInvariantViolation):
        poset.close_transitively()


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
        poset_module._find_spherelike(cb(2))


# criterion 10's five families, then two longer ones
PREFILTER_FAMILIES = [(1, 2, 0), (2, 3, 0), (2, 3, 1), (1, 3, 0), (2, 4, 1),
                      (2, 5, 2), (2, 8, 6)]


def test_euler_prefilter_drops_no_spherelike_candidate(monkeypatch):
    """Every search of the family builds classifies exactly the candidates
    up to its hit whose chi(F, F) is 1 + (-1)^d (0 or 2 when a spherical
    simple is sought), and builds an interval quotient only for a
    candidate it classifies; each candidate it drops, classified here, is
    not what the search looks for; the class the search reads off the
    radical spans is the candidate's k_class; and chi(F, F) = [F]^T E [F]
    is the alternating sum of Hom^*(F, F) on every candidate."""
    searches, inside, quotients = [], [], []
    real_find = poset_module._find_spherelike
    real_classify = poset_module.classify_spherelike
    real_interval = spherelike._interval

    def find(alg, d_target=None):
        inside.append([])
        found = real_find(alg, d_target)
        searches.append((alg, d_target, inside.pop(), found[0]))
        return found

    def classify(obj, desc):
        if inside:
            inside[-1].append((desc, obj))
        return real_classify(obj, desc)

    def interval(P, span):
        quotients.append(real_interval(P, span))
        return quotients[-1]

    monkeypatch.setattr(poset_module, "_find_spherelike", find)
    monkeypatch.setattr(poset_module, "classify_spherelike", classify)
    monkeypatch.setattr(spherelike, "_interval", interval)
    for family in PREFILTER_FAMILIES:
        build_poset(("dda",) + family)
    monkeypatch.undo()
    assert len(searches) >= len(PREFILTER_FAMILIES)
    classified_objects = [obj for _, _, classified, _ in searches
                          for _, obj in classified]
    assert quotients
    for M in quotients:
        assert any(M is obj for obj in classified_objects)
    dropped = 0
    for alg, d_target, classified, hit in searches:
        E = euler_matrix(alg)
        values = {0, 2} if d_target is None else {1 + (-1) ** d_target}
        passed = []
        for desc, c, build in poset_module._search_candidates(alg, d_target):
            obj = build()
            assert c == k_class(obj), desc
            chi = euler_pairing(E, c, c)
            try:
                rep = classify_spherelike(obj, desc)
            except SphqError:
                rep = None
            if rep is not None:
                assert chi == sum((-1) ** (i % 2) * d
                                  for i, d in rep.profile.items()), desc
            if chi in values:
                passed.append(desc)
            else:
                dropped += 1
                assert rep is None or not (
                    rep.is_spherical() if d_target is None
                    else rep.is_spherelike() and rep.d == d_target), desc
            if desc == hit:
                break
        assert [desc for desc, _ in classified] == passed
    assert dropped > 0


# (objects, nonzero dim Hom^i(A, B) over all pairs and degrees) for the
# node objects and resolved interval modules of criterion 10's families.
DDA_HOM_COUNTS = {(1, 2, 0): (6, 35), (2, 3, 0): (10, 82), (2, 3, 1): (15, 167),
                  (1, 3, 0): (12, 123), (2, 4, 1): (21, 293)}


@pytest.mark.parametrize("family", sorted(DDA_HOM_COUNTS),
                         ids=lambda f: "dda_%d_%d_%d" % f)
def test_hom_dimensions_of_dda_objects_are_bounded(family):
    """Broomhead-Pauksztello-Ploog ("Discrete derived categories I", Math.
    Z. 2017, arXiv 1312.5203) bound the Hom spaces between indecomposables
    of D^b(Lambda(r, n, m)): as recalled here, and not checked against the
    paper's hypotheses, every dim Hom^i(A, B) is at most 2, and at most 1
    when r > 1.  The objects are criterion 10's poset nodes and the
    interval modules, which are local and so indecomposable, resolved.
    For r = 1 the value 2 is reached only at Hom^0 of the d = 0 node with
    itself, whose End is k[x]/x^2; that node is an interval module, which
    so appears twice."""
    r = family[0]
    poset = build_poset(("dda",) + family)
    objects = [(x, poset.nodes[x].obj) for x in poset.order]
    objects += [(desc, derived.minimal_projective_resolution(M))
                for desc, M in spherelike.interval_modules(poset.alg)]
    dims = {(a, b, i): dim for a, A in objects for b, B in objects
            for i, dim in derived.hom_profile(A, B).items()}
    assert (len(objects), len(dims)) == DDA_HOM_COUNTS[family]
    twos = {key for key, dim in dims.items() if dim > 1}
    if r > 1:
        assert not twos
    else:
        (node,) = [poset.nodes[x] for x in poset.order if poset.nodes[x].d == 0]
        copies = (node.name, node.desc)
        assert twos == {(a, b, 0) for a in copies for b in copies}
        assert max(dims.values()) == 2


# Criterion 10's families, each with the number of (W, F) pairs compared
# across D: the simples and node objects W against each node F with a Q_F.
DUALITY_PAIRS = {(1, 2, 0): 0, (2, 3, 0): 12, (2, 3, 1): 24, (1, 3, 0): 12,
                 (2, 4, 1): 50}


@pytest.mark.parametrize("family", sorted(DUALITY_PAIRS),
                         ids=lambda f: "dda_%d_%d_%d" % f)
def test_posets_agree_across_the_duality(family):
    """The vector-space dual D = Hom_k(-, k) is a contravariant
    equivalence D^b(Lambda) -> D^b(Lambda^op), so being spherelike, the
    degree d, being spherical and the spherical subcategory D_F carry
    across it.  For each node F of criterion 10's poset, DF =
    dual_rep_complex(as_rep_complex(F), Lambda^op) classifies with F's d
    and verdict, and for every simple and node object W,
    in_spherical_subcat(W, Q_F) == in_spherical_subcat(DW, Q_DF).  The
    dual side runs the whole stack again through ``opposite()``,
    ``dual_rep_complex``, ``perfectify`` and Lambda^op's Nakayama
    functor."""
    poset = build_poset(("dda",) + family)
    alg = poset.alg
    op = alg.opposite()
    objects = [simple_module(alg, v) for v in alg.quiver.vertices]
    objects += [poset.nodes[x].obj for x in poset.order]
    duals = [derived.dual_rep_complex(derived.as_rep_complex(W), op)
             for W in objects]
    nodes = [poset.nodes[x] for x in poset.order]
    pairs = 0
    for node, DF in zip(nodes, duals[-len(nodes):]):
        report = classify_spherelike(DF)
        assert (report.d, report.verdict) == (node.d, node.verdict)
        if node.Q is None:
            assert report.is_spherical()
            continue
        Q_dual = asphericality(report.complex, report)
        for W, DW in zip(objects, duals):
            assert in_spherical_subcat(W, node.Q) == \
                in_spherical_subcat(DW, Q_dual)
            pairs += 1
    assert pairs == DUALITY_PAIRS[family]
