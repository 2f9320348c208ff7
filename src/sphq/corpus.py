"""Golden-example corpus: fixture algebras, their designated objects, and
the acceptance-check runner shared by the CLI and the test suite."""

import json
import os
import random

import networkx as nx

from .algebra import (Arrow, Element, Quiver, algebra_from_json,
                      algebra_to_json, build_algebra)
from .constructions import (canonical, cb, circular, dda, insert_An,
                            kronecker, kronecker_quasi_simple,
                            quiver_isomorphic, synthesize_poset_algebra, tack,
                            tensor_algebra, induce, Embedding)
from .derived import (chain_map_space, cone, hom_profile, iso_up_to_shift,
                      minimal_projective_resolution, nakayama, perfectify,
                      resolve, stalk_complex, complex_direct_sum, tau_inverse)
from .ktheory import (euler_matrix, euler_pairing, k_class, perp_lattice,
                      same_lattice)
from .linalg import QQ, Matrix
from .poset import build_poset, stats, verify_edges
from .reps import Representation, simple_module, standard_module
from .spherelike import (asphericality, classify_spherelike,
                         fractional_cy_check, scan)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


# ----------------------------------------------------------------------
# fixture algebras


def _auslander_x3():
    q = Quiver(["1", "2", "3"],
               [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                Arrow("c", "2", "1"), Arrow("d", "3", "2")])
    one = QQ.one()
    rels = [
        Element({q.path(["a", "c"]): one}, QQ),
        Element({q.path(["c", "a"]): one, q.path(["b", "d"]): -one}, QQ),
    ]
    return build_algebra(q, rels, cap=8, field=QQ, name="auslander_x3")


def _preprojective_a3_cluster():
    q = Quiver(["1", "2", "3", "4", "5", "6"],
               [Arrow("a", "3", "4"), Arrow("b", "4", "1"),
                Arrow("c", "1", "3"), Arrow("d", "4", "5"),
                Arrow("e", "5", "3"), Arrow("f", "3", "2"),
                Arrow("g", "2", "6"), Arrow("h", "6", "5")])
    one = QQ.one()
    rels = [
        Element({q.path(["a", "d"]): one,
                 q.path(["f", "g", "h"]): -one}, QQ),
        Element({q.path(["d", "e"]): one,
                 q.path(["b", "c"]): -one}, QQ),
        Element({q.path(["c", "a"]): one}, QQ),
        Element({q.path(["a", "b"]): one}, QQ),
        Element({q.path(["h", "e", "f"]): one}, QQ),
        Element({q.path(["g", "h", "e"]): one}, QQ),
    ]
    return build_algebra(q, rels, cap=10, field=QQ, name="preprojective_a3_cluster")


def _ncc():
    q = Quiver(["1", "2", "3"],
               [Arrow("a1", "1", "2"), Arrow("b1", "1", "2"),
                Arrow("a2", "2", "3"), Arrow("b2", "2", "3")])
    one = QQ.one()
    rels = [Element({q.path(["a1", "a2"]): one}, QQ),
            Element({q.path(["b1", "b2"]): one}, QQ)]
    return build_algebra(q, rels, cap=6, field=QQ, name="ncc")


def fixture_builders():
    builders = {
        "cb2": lambda: cb(2),
        "cb3": lambda: cb(3),
        "cb4": lambda: cb(4),
        "cb5": lambda: cb(5),
        "auslander_x3": _auslander_x3,
        "preprojective_a3_cluster": _preprojective_a3_cluster,
        "circular_7_5": lambda: circular(7, [5]),
        "canonical_222": lambda: canonical((2, 2, 2), [1]),
        "ncc": _ncc,
        "tensor_kronecker": lambda: tensor_algebra(kronecker(2).quiver,
                                                   kronecker(2).quiver),
        "poset_cycle": lambda: synthesize_poset_algebra(
            ["1", "2", "3", "4"],
            [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])[0],
    }
    for (r, n, m) in [(1, 2, 0), (2, 3, 0), (2, 3, 1), (1, 3, 0), (2, 4, 1)]:
        builders["dda_%d_%d_%d" % (r, n, m)] = \
            (lambda r=r, n=n, m=m: dda(r, n, m)[0])
    return builders


def write_fixtures(directory=FIXTURE_DIR):
    os.makedirs(directory, exist_ok=True)
    for name, build in sorted(fixture_builders().items()):
        alg = build()
        data = algebra_to_json(alg)
        data["name"] = name
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_fixture(name):
    path = os.path.join(FIXTURE_DIR, name + ".json")
    with open(path) as fh:
        return algebra_from_json(json.load(fh), name=name)


# ----------------------------------------------------------------------
# acceptance criteria


def _crit_cb_sphericality():
    details = []
    ok = True
    for t in (2, 3, 4, 5):
        alg = load_fixture("cb%d" % t)
        R = minimal_projective_resolution(simple_module(alg, "1"))
        prof = hom_profile(R, simple_module(alg, "1"))
        good_prof = prof == {0: 1, t: 1}
        good_iso = iso_up_to_shift(R, nakayama(R).to_rep(), t) is True
        ok = ok and good_prof and good_iso
        details.append("t=%d profile=%s serre_iso=%s" % (t, prof, good_iso))
    return ok, "; ".join(details)


def _crit_auslander():
    alg = load_fixture("auslander_x3")
    out = []
    ok = True
    for v, want in [("1", ("d_spherical", 2)), ("2", ("d_spherical", 2)),
                    ("3", ("not_spherelike", None))]:
        rep = classify_spherelike(simple_module(alg, v), "S:%s" % v)
        got = (rep.verdict, rep.d)
        ok = ok and got == want
        out.append("S(%s)=%s" % (v, rep.verdict +
                                 ("" if rep.d is None else "(%d)" % rep.d)))
    return ok, "; ".join(out)


def _crit_cluster():
    alg = load_fixture("preprojective_a3_cluster")
    ok = True
    out = []
    for v in ("1", "2", "3"):
        rep = classify_spherelike(simple_module(alg, v), "S:%s" % v)
        ok = ok and rep.verdict == "d_spherical" and rep.d == 3
        out.append("S(%s)=%s(%s)" % (v, rep.verdict, rep.d))
    return ok, "; ".join(out)


def _crit_circular():
    small = cb(2)
    big, emb = circular(7, [5], with_embedding=True)
    R = minimal_projective_resolution(simple_module(small, "1"))
    G = induce(emb, R)
    labels = {n: G.labels(n) for n in G.degrees()}
    shape_ok = labels == {-2: ["5"], -1: ["7"], 0: ["5"]}
    rep = classify_spherelike(G, "induced:S:1")
    class_ok = rep.verdict == "properly_d_spherelike" and rep.d == 2
    Q = asphericality(G, rep)
    member = {}
    for v in big.quiver.vertices:
        Rv = minimal_projective_resolution(simple_module(big, v))
        member[v] = hom_profile(Rv, Q) == {}
    table_ok = all(member[v] for v in ("1", "2", "3")) and \
        not member["4"] and not member["6"]
    ok = shape_ok and class_ok and table_ok
    return ok, "labels=%s verdict=%s(%s) membership=%s" % (
        labels, rep.verdict, rep.d,
        {v: member[v] for v in sorted(member)})


def _crit_insertion():
    small = cb(2)
    big, emb = insert_An(small, "1", 1)
    R = minimal_projective_resolution(simple_module(small, "1"))
    rep1 = classify_spherelike(induce(emb, R), "induced:S:1")
    part1 = rep1.verdict == "properly_d_spherelike" and rep1.d == 2

    q = Quiver(["1", "2", "z"], [Arrow("a1", "1", "2"), Arrow("a2", "1", "2")])
    free = build_algebra(q, [], cap=3, field=QQ, name="kron+point")
    M = kronecker_quasi_simple(free, 1)
    big2, emb2 = insert_An(free, "z", 1)
    rep2 = classify_spherelike(induce(emb2, resolve(M)), "induced:quasi")
    part2 = rep2.verdict == "d_spherical" and rep2.d == 1
    return part1 and part2, "on-support=%s(%s); off-support=%s(%s)" % (
        rep1.verdict, rep1.d, rep2.verdict, rep2.d)


def _crit_tacking():
    base = kronecker(2)
    M = kronecker_quasi_simple(base, 1)
    T = Quiver(["t"], [])
    big_on, emb_on = tack(base, T, "t", {"2": 1})
    rep_on = classify_spherelike(induce(emb_on, resolve(M)), "tacked:quasi")
    part1 = rep_on.verdict == "properly_d_spherelike" and rep_on.d == 1
    big_off, emb_off = tack(base, T, "t", {})
    rep_off = classify_spherelike(induce(emb_off, resolve(M)), "tacked:quasi")
    part2 = rep_off.verdict == "d_spherical" and rep_off.d == 1
    return part1 and part2, "on-support=%s(%s); off-support=%s(%s)" % (
        rep_on.verdict, rep_on.d, rep_off.verdict, rep_off.d)


def _ncc_E(alg):
    one = Matrix(1, 1, [[QQ.one()]], QQ)
    zero = Matrix(1, 1, [[QQ.zero()]], QQ)
    return Representation(alg, {"1": 1, "2": 1, "3": 1},
                          {"a1": zero, "b1": one, "a2": one, "b2": zero})


def _crit_ncc():
    alg = load_fixture("ncc")
    E = _ncc_E(alg)
    RE = minimal_projective_resolution(E)
    checks = {}
    checks["end_profile"] = hom_profile(RE, E) == {0: 1}
    checks["fractional_cy_2_4"] = fractional_cy_check(RE, 2, 4)
    TiE = perfectify(tau_inverse(RE).to_rep())
    dim, cands = chain_map_space(TiE, stalk_complex(E), 1)
    checks["unique_triangle_map"] = dim == 1
    F = perfectify(cone(cands[0]).shift(-1))
    repF = classify_spherelike(F, "F")
    checks["F_3_spherelike"] = repF.is_spherelike() and repF.d == 3
    Q = asphericality(F, repF)
    D = complex_direct_sum([stalk_complex(E).shift(1),
                            stalk_complex(E).shift(-2)])
    checks["QF_hom_match"] = hom_profile(RE, Q) == hom_profile(RE, D)
    checks["QF_splits"] = iso_up_to_shift(perfectify(Q), D, 0) is True
    Emat = euler_matrix(alg)
    checks["euler_matrix"] = Emat == [[1, -2, 2], [0, 1, -2], [0, 0, 1]]
    basis, gram, anti = perp_lattice(Emat, [k_class(E)])
    checks["perp_gram"] = gram == [[0, 1], [-1, 0]] and anti and \
        same_lattice(basis, [[1, 1, 0], [0, 1, 1]])
    return all(checks.values()), "; ".join(
        "%s=%s" % kv for kv in sorted(checks.items()))


def _crit_tensor():
    alg = load_fixture("tensor_kronecker")
    small = kronecker(2)
    emb = Embedding(small, alg, {"1": "1|1", "2": "2|1"},
                    {"a1": ["a1|1"], "a2": ["a2|1"]})
    lams = ["0", "1", "-1"]
    jF = {}
    for x in lams:
        Fx = kronecker_quasi_simple(small, x)
        jF[x] = induce(emb, resolve(Fx))
    table = {}
    for y in lams:
        G = Representation(alg, {"1|2": 1, "2|2": 1},
                           {"a1|2": Matrix(1, 1, [[QQ.one()]], QQ),
                            "a2|2": Matrix(1, 1, [[QQ.parse(y)]], QQ)})
        RG = minimal_projective_resolution(G)
        for x in lams:
            table[(x, y)] = hom_profile(RG, jF[x].to_rep()) == {}
    ok = all(table[(x, y)] == (x != y) for x in lams for y in lams)
    return ok, "membership=%s" % {"%s,%s" % k: v for k, v in sorted(table.items())}


def _crit_canonical():
    poset = build_poset(("canonical", (2, 2, 2), (1,)))
    checks = {}
    tubes = [poset.nodes[n] for n in poset.order if n != "D"]
    checks["three_tubes"] = len(tubes) == 3
    checks["properly_1_spherelike"] = all(
        n.verdict == "properly_d_spherelike" and n.d == 1 for n in tubes)
    checks["pairwise_incomparable"] = all(
        not poset.less(a.name, b.name) and not poset.less(b.name, a.name)
        for a in tubes for b in tubes if a.name != b.name)
    directed = {(w.must_hit, w.must_miss) for w in poset.witnesses}
    checks["cross_tests"] = all(
        (a.name, b.name) in directed
        for a in tubes for b in tubes if a.name != b.name)
    verify_edges(poset)
    checks["witnesses"] = True
    rep = classify_spherelike(kronecker_quasi_simple(kronecker(2), 1), "quasi")
    checks["kronecker_quasi_1_spherical"] = \
        rep.verdict == "d_spherical" and rep.d == 1
    return all(checks.values()), "; ".join(
        "%s=%s" % kv for kv in sorted(checks.items()))


def _crit_dda_posets():
    want = {
        (1, 2, 0): {"cardinality": 1, "height": 1, "width": 1},
        (2, 3, 0): {"cardinality": 3, "height": 2, "width": 2},
        (2, 3, 1): {"cardinality": 4, "height": 2, "width": 3},
        (1, 3, 0): {"cardinality": 3, "height": 2, "width": 2},
        (2, 4, 1): {"cardinality": 5, "height": 1, "width": 5},
    }
    out = []
    ok = True
    for (r, n, m), expect in sorted(want.items()):
        poset = build_poset(("dda", r, n, m))
        got = stats(poset)
        verify_edges(poset)
        top = [x for x in poset.order if poset.nodes[x].is_whole()]
        if (r, n, m) == (1, 2, 0):
            shaped = len(poset.order) == 1
        elif r == n - 1 and m + r > 1:
            shaped = len(top) == 1 and all(
                poset.less(c, top[0]) for c in poset.order if c != top[0])
        elif r == 1 and m == 0:
            shaped = len(top) == 1 and all(
                poset.less(c, top[0]) for c in poset.order if c != top[0])
        else:
            shaped = not poset.relation and not top
        ok = ok and got == expect and shaped
        out.append("%s stats=%s" % ((r, n, m), got))
    alg = load_fixture("dda_1_2_0")
    reports = scan(alg, "all_interval_modules")
    found0 = any(r.verdict == "d_spherical" and r.d == 0 for r in reports)
    ok = ok and found0
    out.append("interval scan finds 0-spherical=%s" % found0)
    return ok, "; ".join(out)


def _lambda2_quiver():
    return Quiver(
        ["1s", "1t", "2s", "2t", "u1", "u2"],
        [Arrow("k1a", "1s", "1t"), Arrow("k1b", "1s", "1t"),
         Arrow("k2a", "2s", "2t"), Arrow("k2b", "2s", "2t"),
         Arrow("n1", "u2", "2t")])


def _poset_cycle_quiver():
    vs = []
    arrows = []
    for i in "1234":
        vs += [i + "s", i + "t"]
        arrows += [Arrow("k%sa" % i, i + "s", i + "t"),
                   Arrow("k%sb" % i, i + "s", i + "t")]
    vs += ["u1", "u2", "u3", "u4"]
    for (u, t) in [("u2", "1t"), ("u2", "3t"), ("u3", "1t"), ("u3", "2t"),
                   ("u4", "1t"), ("u4", "2t"), ("u4", "3t")]:
        arrows.append(Arrow("n_%s_%s" % (u, t), u, t))
    return Quiver(vs, arrows)


def _crit_synthesis():
    chain_alg, _, _ = synthesize_poset_algebra(["1", "2"], [("1", "2")])
    checks = {}
    checks["chain_quiver"] = quiver_isomorphic(chain_alg.quiver,
                                               _lambda2_quiver())
    cyc_alg = load_fixture("poset_cycle")
    checks["cycle_quiver"] = quiver_isomorphic(cyc_alg.quiver,
                                               _poset_cycle_quiver())
    less = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]
    poset = build_poset(("synthesized", ["1", "2", "3", "4"], less))
    verify_edges(poset)
    checks["witnesses"] = True
    hasse = nx.DiGraph(poset.covers())
    hasse.add_nodes_from(poset.order)
    target = nx.DiGraph(less)
    checks["hasse_isomorphic"] = nx.is_isomorphic(hasse, target)
    return all(checks.values()), "; ".join(
        "%s=%s" % kv for kv in sorted(checks.items()))


_PROPERTY_ALGS = ["cb2", "cb3", "cb4", "cb5", "auslander_x3",
                  "preprojective_a3_cluster", "circular_7_5", "canonical_222",
                  "ncc", "tensor_kronecker", "poset_cycle",
                  "dda_1_2_0", "dda_2_3_0", "dda_2_3_1", "dda_1_3_0",
                  "dda_2_4_1"]


def _random_standard_pairs(alg, count, seed):
    rng = random.Random(seed)
    kinds = ["simple", "projective", "injective"]
    vs = list(alg.quiver.vertices)
    return [((rng.choice(kinds), rng.choice(vs)),
             (rng.choice(kinds), rng.choice(vs))) for _ in range(count)]


def _crit_properties():
    checks = {}
    # Serre duality: Hom^i(X, Y) = Hom^{-i}(Y, nu X)^* as dimension profiles
    serre_ok = True
    for name in _PROPERTY_ALGS:
        alg = load_fixture(name)
        res_cache = {}

        def res_of(kind, v, alg=alg, cache=res_cache):
            if (kind, v) not in cache:
                cache[(kind, v)] = minimal_projective_resolution(
                    standard_module(alg, kind, v))
            return cache[(kind, v)]

        for (kx, vx), (ky, vy) in _random_standard_pairs(alg, 50, seed=93):
            RX = res_of(kx, vx)
            RY = res_of(ky, vy)
            lhs = hom_profile(RX, standard_module(alg, ky, vy))
            nuX = nakayama(RX).to_rep()
            rhs = hom_profile(RY, nuX)
            if lhs != {-i: d for i, d in rhs.items()}:
                serre_ok = False
                break
        if not serre_ok:
            break
    checks["serre_duality_50_pairs"] = serre_ok

    # Euler pairing agrees with alternating Hom dimensions
    euler_ok = True
    for name in ["cb3", "auslander_x3", "ncc", "canonical_222"]:
        alg = load_fixture(name)
        E = euler_matrix(alg)
        rng = random.Random(57)
        kinds = ["simple", "projective", "injective"]
        vs = list(alg.quiver.vertices)
        for _ in range(10):
            M = standard_module(alg, rng.choice(kinds), rng.choice(vs))
            N = standard_module(alg, rng.choice(kinds), rng.choice(vs))
            prof = hom_profile(minimal_projective_resolution(M), N)
            chi = sum(((-1) ** (i % 2)) * d for i, d in prof.items())
            if chi != euler_pairing(E, k_class(M), k_class(N)):
                euler_ok = False
                break
        # chi([A],[A]) = dim A on the regular representation class
        reg = [0] * len(vs)
        for v in vs:
            pv = k_class(standard_module(alg, "projective", v))
            reg = [a + b for a, b in zip(reg, pv)]
        if euler_pairing(E, reg, reg) != alg.total_dim:
            euler_ok = False
        if not euler_ok:
            break
    checks["euler_hom_consistency"] = euler_ok

    # spherical verdicts never have negative d
    neg_ok = True
    for name in ["cb2", "cb3", "auslander_x3", "dda_2_3_0", "poset_cycle"]:
        alg = load_fixture(name)
        for r in scan(alg, "all_simples") + scan(alg, "all_interval_modules"):
            if r.verdict == "d_spherical" and r.d < 0:
                neg_ok = False
    checks["no_negative_spherical"] = neg_ok

    # resolutions are minimal: differential entries lie in the radical
    min_ok = True
    for name in ["cb3", "auslander_x3", "ncc", "canonical_222"]:
        alg = load_fixture(name)
        for v in alg.quiver.vertices:
            R = minimal_projective_resolution(simple_module(alg, v))
            for n in R.diffs:
                for row in R.diffs[n]:
                    for e in row:
                        if any(not p.arrows for p in e.terms):
                            min_ok = False
    checks["resolution_minimality"] = min_ok

    # scan output is deterministic
    alg = load_fixture("cb3")
    s1 = [r.to_json() for r in scan(alg, "all_interval_modules")]
    s2 = [r.to_json() for r in scan(alg, "all_interval_modules")]
    checks["scan_determinism"] = s1 == s2

    return all(checks.values()), "; ".join(
        "%s=%s" % kv for kv in sorted(checks.items()))


CRITERIA = [
    (1, "cb-sphericality", _crit_cb_sphericality),
    (2, "auslander-x3", _crit_auslander),
    (3, "preprojective-cluster", _crit_cluster),
    (4, "circular-7-5", _crit_circular),
    (5, "insertion-dichotomy", _crit_insertion),
    (6, "tacking-criterion", _crit_tacking),
    (7, "non-commutative-curve", _crit_ncc),
    (8, "tensor-orthogonality", _crit_tensor),
    (9, "canonical-222", _crit_canonical),
    (10, "dda-poset-shapes", _crit_dda_posets),
    (11, "poset-synthesis", _crit_synthesis),
    (12, "property-suites", _crit_properties),
]


def run_criterion(number):
    for num, name, fn in CRITERIA:
        if num == number:
            ok, detail = fn()
            return {"criterion": num, "name": name,
                    "pass": bool(ok), "detail": detail}
    raise KeyError(number)


def run_corpus():
    results = [run_criterion(num) for num, _, _ in CRITERIA]
    return {"results": results,
            "pass": all(r["pass"] for r in results)}
