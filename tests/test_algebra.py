"""Path-basis computation checked against an independent brute-force oracle.

The oracle enumerates all paths of the quiver up to a length limit with
plain tuples, spans the two-sided ideal generated by the relations inside
that truncation with sympy, and counts dimensions by rank.  It shares no
code with the engine.

``dense_basis`` is the reference for the engine's block-sparse build: one
dense row per ideal-slice product, as wide as all enumerated paths, reduced
by the Gauss-Jordan ``dense_rref``.  The two must agree exactly, dict order
included.
"""

import ast
import json
import os
import pathlib
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sphq
from sphq import algebra as algebra_module
from sphq.algebra import (Arrow, Element, Path, Quiver, algebra_from_json,
                          algebra_to_json, build_algebra, field_from_json,
                          memoised)
from sphq.constructions import (canonical, cb, ci, circular, insert_An,
                                kronecker, tensor_algebra)
from sphq.corpus import FIXTURE_DIR, write_fixtures
from sphq.errors import CapInsufficient, NotAdmissible, SchemaError
from sphq.linalg import QQ, Matrix, PrimeField

from reference import dense_rref


def oracle_dim(vertices, arrows, relations, maxlen):
    """arrows: (name, source, target); relations: list of {path-tuple: coeff}
    with paths as arrow-name tuples in traversal order."""
    src = {n: s for n, s, _ in arrows}
    tgt = {n: t for n, _, t in arrows}
    out_of = {v: [n for n, s, _ in arrows if s == v] for v in vertices}

    paths = [((), v, v) for v in vertices]  # (names, source, target)
    frontier = list(paths)
    for _ in range(maxlen):
        nxt = []
        for names, s, t in frontier:
            for a in out_of[t]:
                nxt.append((names + (a,), s, tgt[a]))
        paths += nxt
        frontier = nxt
    index = {p[0] if p[0] else ("e", p[1]): i for i, p in enumerate(paths)}

    def key(names, source):
        return names if names else ("e", source)

    spanning = []
    for rel in relations:
        # extend u . rel . w over all composable prefixes and suffixes
        some_path = next(iter(rel))
        rsrc, rtgt = src[some_path[0]], tgt[some_path[-1]]
        prefixes = [(n, s) for n, s, t in paths if t == rsrc]
        suffixes = [(n, t) for n, s, t in paths if s == rtgt]
        for pn, ps in prefixes:
            for sn, _ in suffixes:
                row = [0] * len(paths)
                skip = False
                for names, c in rel.items():
                    full = pn + names + sn
                    if len(full) > maxlen:
                        skip = True
                        break
                    row[index[key(full, ps)]] += c
                if not skip and any(row):
                    spanning.append(row)
    r = sympy.Matrix(spanning).rank() if spanning else 0
    # certify the truncation: every path of maximal length must be in the span
    long_paths = [p for p in paths if len(p[0]) == maxlen]
    if long_paths:
        M = sympy.Matrix(spanning)
        for names, s, t in long_paths:
            row = [0] * len(paths)
            row[index[key(names, s)]] = 1
            assert sympy.Matrix(list(M) and M.tolist() + [row]).rank() == r, \
                "truncation too short for the oracle"
    return len(paths) - r


def quiver_data(alg):
    vs = list(alg.quiver.vertices)
    ars = [(a.name, a.source, a.target) for a in alg.quiver.arrows]
    rels = [{p.arrows: Fraction(c) for p, c in rel.terms.items()}
            for rel in alg.relations]
    return vs, ars, rels


@pytest.mark.parametrize("make,maxlen,expected", [
    (lambda: cb(2), 6, 5),
    (lambda: cb(3), 6, 7),
    (lambda: ci(2), 6, 4),
    (lambda: circular(7, [5]), 9, 42),
    (lambda: insert_An(cb(2), "1", 1)[0], 7, 9),
    (lambda: canonical((2, 2, 2), [1]), 6, 13),
    (lambda: tensor_algebra(kronecker(2).quiver, kronecker(2).quiver), 5, 16),
])
def test_dimension_against_oracle(make, maxlen, expected):
    alg = make()
    vs, ars, rels = quiver_data(alg)
    assert oracle_dim(vs, ars, rels, maxlen) == expected
    assert alg.total_dim == expected


def test_two_vertex_chain():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    alg = build_algebra(q, [], field=QQ)
    assert alg.total_dim == 3
    assert oracle_dim(*quiver_data(alg), maxlen=3) == 3


def test_multiplication_convention():
    # multiply(a, b) composes "first b, then a"
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    alg = build_algebra(q, [], field=QQ)
    ab = alg.multiply(q.path(["b"]), q.path(["a"]))
    (p, c), = ab.terms.items()
    assert p.arrows == ("a", "b")
    assert (p.source, p.target) == ("1", "3")
    assert alg.multiply(q.path(["a"]), q.path(["b"])).is_zero()


def test_slice_basis_direction():
    # slice_basis(x, y) = e_x A e_y: paths from y to x
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    alg = build_algebra(q, [], field=QQ)
    assert [p.arrows for p in alg.slice_basis("2", "1")] == [("a",)]
    assert alg.slice_basis("1", "2") == []


def test_reduce_path_applies_relations():
    alg = cb(2)
    q = alg.quiver
    assert alg.reduce_path(q.path(["a1", "a2"])).is_zero()
    assert not alg.reduce_path(q.path(["a2", "a1"])).is_zero()


def test_opposite_reverses():
    alg = cb(3)
    op = alg.opposite()
    assert op.total_dim == alg.total_dim
    a = op.quiver.arrow_by_name["a1"]
    assert (a.source, a.target) == ("2", "1")
    assert alg.opposite() is op


def test_only_memoised_reads_the_memo():
    """``_memo`` is read only inside ``algebra.memoised`` and assigned only
    as ``self._memo = {}`` in the ``__init__`` of the five owner classes;
    no other name, function or attribute of a sphq module is ``_memo``."""
    allowed, owners, stray = set(), set(), []
    for path in sorted(pathlib.Path(sphq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.name == "algebra.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "memoised":
                allowed.update(id(n) for n in ast.walk(node))
            if isinstance(node, ast.ClassDef):
                for init in node.body:
                    if not (isinstance(init, ast.FunctionDef)
                            and init.name == "__init__"):
                        continue
                    for stmt in init.body:
                        if isinstance(stmt, ast.Assign) \
                                and ast.unparse(stmt) == "self._memo = {}":
                            allowed.add(id(stmt.targets[0]))
                            owners.add(node.name)
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    getattr(node, "name", None))
            if name == "_memo" and id(node) not in allowed:
                stray.append("%s:%d" % (path.name, node.lineno))
    assert stray == []
    assert owners == {"BoundQuiverAlgebra", "Representation",
                      "BoundedComplex", "LabeledComplex", "SpherelikePoset"}


class _Owner:
    def __init__(self):
        self._memo = {}
        self.builds = 0

    @memoised
    def square(self, x):
        self.builds += 1
        if x < 0:
            raise ValueError("negative")
        return [x * x]


def test_memoised_shares_results_and_stores_no_failure():
    owner = _Owner()
    assert owner.square(3) is owner.square(3) == [9]
    assert owner.builds == 1
    for builds in (2, 3):
        with pytest.raises(ValueError) as info:
            owner.square(-1)
        assert info.value.__context__ is None
        assert owner.builds == builds
    assert _Owner().square(3) is not owner.square(3)


def test_relation_of_length_one_rejected():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    one = QQ.one()
    with pytest.raises(NotAdmissible):
        build_algebra(q, [Element({q.path(["a"]): one}, QQ)], field=QQ)


def test_cap_insufficient_for_cycle():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    with pytest.raises(CapInsufficient):
        build_algebra(q, [], cap=3, field=QQ)


def test_json_roundtrip():
    for alg in (cb(3), ci(2), canonical((2, 2, 2), [1])):
        again = algebra_from_json(algebra_to_json(alg), name=alg.name)
        assert again.total_dim == alg.total_dim
        assert [p.label() for p in again.basis] == [p.label() for p in alg.basis]


def test_malformed_json_rejected():
    with pytest.raises(SchemaError):
        algebra_from_json({"quiver": {"vertices": ["1"]}})
    data = algebra_to_json(cb(2))
    data["relations"] = [[{"coeff": "1", "path": ["nope"]}]]
    with pytest.raises(Exception):
        algebra_from_json(data)


def test_fixture_builders_match_shipped_json(tmp_path):
    write_fixtures(str(tmp_path))
    shipped = sorted(f for f in os.listdir(FIXTURE_DIR) if f.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == shipped
    assert len(shipped) == 16
    for name in shipped:
        with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name


# -- block-sparse build against the dense reference ----------------------


def dense_basis(quiver, relations, cap, field):
    """(reduction, basis, basis_by_st) by one dense rref over all paths."""
    for rel in relations:
        if rel.is_zero() or rel.endpoints() is None:
            raise NotAdmissible("relation")
        for p in rel.terms:
            if len(p) < 2:
                raise NotAdmissible("short path")
            if len(p) > cap:
                raise CapInsufficient("relation beyond cap")
    by_len = [[quiver.trivial_path(v) for v in quiver.vertices]]
    for _ in range(cap):
        by_len.append([Path(p.source, a.target, p.arrows + (a.name,))
                       for p in by_len[-1] for a in quiver.arrows_out[p.target]])
    paths = sorted((p for lst in by_len for p in lst),
                   key=quiver.path_sort_key, reverse=True)
    col_of = {p: i for i, p in enumerate(paths)}
    rows = []
    for rel in relations:
        s, t = rel.endpoints()
        rel_len = max(len(p) for p in rel.terms)
        for right in paths:
            if right.target != s or len(right) + rel_len > cap:
                continue
            for left in paths:
                if left.source != t or len(right) + rel_len + len(left) > cap:
                    continue
                row = [field.zero()] * len(paths)
                for p, c in rel.terms.items():
                    fp = Path(right.source, left.target,
                              right.arrows + p.arrows + left.arrows)
                    row[col_of[fp]] = row[col_of[fp]] + c
                rows.append(row)
    R, pivots = (dense_rref(Matrix(len(rows), len(paths), rows, field))
                 if rows else (None, []))
    pivot_set = set(pivots)
    reduction = {}
    for r, pc in enumerate(pivots):
        reduction[paths[pc]] = {paths[j]: -R.entries[r][j]
                                for j in range(pc + 1, len(paths))
                                if j not in pivot_set and R.entries[r][j] != field.zero()}
    basis = [p for j, p in enumerate(paths) if j not in pivot_set]
    if any(len(p) >= cap for p in basis):
        raise CapInsufficient("basis path at cap")
    basis.sort(key=quiver.path_sort_key)
    by_st = {}
    for p in basis:
        by_st.setdefault((p.source, p.target), []).append(p)
    return reduction, basis, by_st


def ordered(d):
    """A dict of dicts as nested item lists, so == also checks key order."""
    return [(k, list(v.items()) if isinstance(v, dict) else v) for k, v in d.items()]


def assert_matches_dense(alg):
    reduction, basis, by_st = dense_basis(alg.quiver, alg.relations,
                                          alg.length_cap, alg.field)
    assert ordered(alg._reduction) == ordered(reduction)
    assert alg.basis == basis
    assert ordered(alg.basis_by_st) == ordered(by_st)


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(FIXTURE_DIR)))
def test_fixture_basis_matches_dense(name):
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        data = json.load(fh)
    for field in ({"kind": "rational"}, {"kind": "prime", "p": 3}):
        data["field"] = field
        alg = algebra_from_json(data)
        assert_matches_dense(alg)
        assert_matches_dense(alg.opposite())


FIXTURE_NAMES = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
FIELDS = {"QQ": {"kind": "rational"}, "GF3": {"kind": "prime", "p": 3},
          "GF101": {"kind": "prime", "p": 101}}


def fixture_algebra(name, field):
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        data = json.load(fh)
    return algebra_from_json(dict(data, field=FIELDS[field]))


@dataclass(frozen=True)
class DataclassPath:
    """``Path`` as a frozen dataclass, hashing its field tuple on every
    lookup: the reference for the slots class."""

    source: str
    target: str
    arrows: tuple


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_path_hashes_compares_and_prints_as_the_dataclass(name):
    """On every basis path: the hash is hash((source, target, arrows)),
    equality, repr and set order are the dataclass's, and the path can
    be neither changed nor broken by pickling."""
    basis = fixture_algebra(name, "QQ").basis
    ref = {p: DataclassPath(p.source, p.target, p.arrows) for p in basis}
    for p, r in ref.items():
        assert hash(p) == hash((p.source, p.target, p.arrows)) == hash(r)
        assert repr(p) == repr(r).replace("DataclassPath", "Path", 1)
        twin = Path(p.source, p.target, p.arrows)
        assert twin is not p and twin == p and not twin != p
        assert pickle.loads(pickle.dumps(p)) == p
        assert p != (p.source, p.target, p.arrows) and p != r
        with pytest.raises(AttributeError):
            p.arrows = ()
    for p in basis:
        for q in basis:
            assert (p == q) == (ref[p] == ref[q])
    assert [ref[p] for p in set(basis)] == list(set(ref.values()))


def termwise_multiply(alg, a, b):
    """``multiply`` as it was: one scaled Element per term pair, added to
    the running sum one at a time.  Also returns how many terms cancelled
    to zero on the way."""
    out, cancelled = alg.zero_element(), 0
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            step = alg.mult_paths(p, q).scale(cp * cq)
            nxt = out + step
            cancelled += sum(1 for r in step.terms
                             if r in out.terms and r not in nxt.terms)
            out = nxt
    return out, cancelled


def random_parallel_element(alg, rng, ends):
    paths = alg.basis_by_st[ends]
    return Element({p: alg.field.from_int(rng.choice([-2, -1, 1, 2]))
                    for p in rng.sample(paths, rng.randint(1, len(paths)))},
                   alg.field)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_multiply_matches_the_termwise_product(field):
    """multiply sums every term product into one dict: the same terms, in
    the same order, as adding the products one at a time, and no zero
    coefficient kept, on random composable and non-parallel elements of
    every fixture, with products that cancel."""
    rng = random.Random(22)
    cancelled = 0
    for name in FIXTURE_NAMES:
        alg = fixture_algebra(name, field)
        slices = sorted(alg.basis_by_st)
        for _ in range(30):
            u, v = rng.choice(slices)
            right = random_parallel_element(alg, rng, (u, v))
            left = random_parallel_element(alg, rng, rng.choice(
                [ends for ends in slices if ends[0] == v]))
            other = random_parallel_element(alg, rng, rng.choice(slices))
            pairs = [(left, right), (left + other, right + other),
                     (next(iter(left.terms)), right)]
            for a, b in pairs:
                got = alg.multiply(a, b)
                if isinstance(a, Path):
                    a = Element({a: alg.field.one()}, alg.field)
                want, c = termwise_multiply(alg, a, b)
                cancelled += c
                assert list(got.terms.items()) == list(want.terms.items())
                assert all(got.terms.values())
    assert cancelled



def typed_terms(e):
    """The terms of e with their coefficients' scalar types."""
    return {p: (type(c), c) for p, c in e.terms.items()}


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_reduce_path_lookup_equals_the_stepwise_walk(field):
    """reduce_path answers a path of length <= cap from ``basis_index`` and
    ``_reduction``: on every enumerated path of every fixture it gives the
    terms and coefficients, scalar types included, of the stepwise walk.
    A product of two basis paths beyond the cap misses the tables and is
    walked: over a 3-cycle whose paths of length 4 vanish, built with cap
    5, the products of two paths of length 3.  Arrows that do not compose
    are still a SchemaError."""
    for name in FIXTURE_NAMES:
        alg = fixture_algebra(name, field)
        for p in alg._enumerate_paths():
            assert typed_terms(alg.reduce_path(p)) == \
                typed_terms(alg._reduce_stepwise(p))
    k = field_from_json(FIELDS[field])
    q = Quiver(["1", "2", "3"], [Arrow("a1", "1", "2"), Arrow("a2", "2", "3"),
                                 Arrow("a3", "3", "1")])
    run = ["a1", "a2", "a3", "a1", "a2", "a3"]
    alg = build_algebra(q, [Element({q.path(run[i:i + 4]): k.one()}, k)
                            for i in range(3)], cap=5, field=k)
    beyond = [(p, r) for p in alg.basis for r in alg.basis
              if r.target == p.source and len(p) + len(r) > alg.length_cap]
    assert len(beyond) == 3
    for p, r in beyond:
        pr = Path(r.source, p.target, r.arrows + p.arrows)
        assert pr not in alg.basis_index and pr not in alg._reduction
        assert typed_terms(alg.mult_paths(p, r)) == \
            typed_terms(alg._reduce_stepwise(pr)) == {}
    with pytest.raises(SchemaError):
        alg.reduce_path(Path("1", "1", ("a1", "a3")))

def build_outcome(quiver, relations, cap, field):
    """The error type the build raises, or None; the dense reference agrees."""
    try:
        alg = build_algebra(quiver, relations, cap=cap, field=field)
    except (CapInsufficient, NotAdmissible) as e:
        with pytest.raises(type(e)):
            dense_basis(quiver, relations, cap, field)
        return type(e)
    assert_matches_dense(alg)
    return None


@pytest.mark.parametrize("arrows,relations,cap,expected", [
    # loop x with x^2 = 0
    ([("x", "1", "1")], [{("x", "x"): 1}], 3, None),
    # loop with no relation: the cap cannot certify finite dimension
    ([("x", "1", "1")], [], 3, CapInsufficient),
    # mixed-length relation a*b = c*d*e through a loop d with d^2 = 0
    ([("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "3"),
      ("e", "3", "4")], [{("a", "b"): 1, ("c", "d", "e"): -1}, {("d", "d"): 1}], 5, None),
    # terms with different endpoints
    ([("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "2")],
     [{("a", "b"): 1, ("c", "d"): 1}], 4, NotAdmissible),
    # mixed lengths 2 and 1
    ([("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")],
     [{("a", "b"): 1, ("c",): 1}], 4, NotAdmissible),
    # a*b*e = c*d*e with b*e = 0: the term a*b*e contains the one-term
    # relation, so the row, and its products with f, become one term and
    # add c*d*e and c*d*e*f to the zero paths
    ([("a", "1", "2"), ("b", "2", "3"), ("c", "1", "5"), ("d", "5", "3"),
      ("e", "3", "4"), ("f", "4", "6")],
     [{("a", "b", "e"): 1, ("c", "d", "e"): -1}, {("b", "e"): 1}], 5, None),
    # two one-term relations that overlap in b: a*b*c contains both
    ([("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
     [{("a", "b"): 1}, {("b", "c"): 1}], 4, None),
    # overlapping one-term relations on two loops: every word of length 2
    ([("x", "1", "1"), ("y", "1", "1")],
     [{("x", "y"): 1}, {("y", "x"): 1}, {("x", "x"): 1}, {("y", "y"): 1}],
     3, None),
    # a one-term relation that is also a term of a multi-term relation:
    # a*b = 0 and a*b = c*d make c*d a zero path through the row
    ([("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4"),
      ("e", "4", "5")],
     [{("a", "b"): 1, ("c", "d"): 2}, {("a", "b"): 1}], 4, None),
])
def test_edge_cases_match_dense(arrows, relations, cap, expected):
    q = Quiver(sorted({v for _, s, t in arrows for v in (s, t)}), arrows)
    rels = [Element({q.path(list(p)): QQ.from_int(c) for p, c in rel.items()}, QQ)
            for rel in relations]
    assert build_outcome(q, rels, cap, QQ) is expected


def contains(arrows, rel):
    """True when the arrow tuple ``rel`` occurs in ``arrows`` as a run."""
    k = len(rel)
    return any(arrows[i:i + k] == rel for i in range(len(arrows) - k + 1))


def test_one_term_relations_never_reach_the_row_reduction(monkeypatch):
    """The 16 fixture builds hand ``sparse_rref`` only products of
    multi-term relations, on columns outside the zero set: no column of a
    reduced row is a path containing a one-term relation, and every path
    that contains one reduces to 0.  Counted over the 16 builds: 309 rows
    in 32 calls, where writing a row for every product of every relation
    handed it 2 961 rows in 205 calls."""
    real = algebra_module.sparse_rref
    calls = []

    def record(rows, field):
        calls.append(rows)
        return real(rows, field)

    monkeypatch.setattr(algebra_module, "sparse_rref", record)
    total_calls = total_rows = 0
    for name in FIXTURE_NAMES:
        with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
            alg = algebra_from_json(json.load(fh))
        q = alg.quiver
        paths = sorted(alg._enumerate_paths(), key=q.path_sort_key,
                       reverse=True)
        monomial = [next(iter(rel.terms)).arrows for rel in alg.relations
                    if len(rel.terms) == 1]
        zero = {p for p in paths
                if any(contains(p.arrows, m) for m in monomial)}
        for rows in calls:
            for row in rows:
                assert row and not zero.intersection(paths[j] for j in row)
        for p in zero:
            assert alg._reduction[p] == {}
        total_calls += len(calls)
        total_rows += sum(len(rows) for rows in calls)
        calls.clear()
    assert (total_calls, total_rows) == (32, 309)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_bound_quiver_matches_dense(data):
    """Loops, parallel arrows, non-monomial and mixed-length relations."""
    n = data.draw(st.integers(1, 3), label="vertices")
    vertices = [str(i) for i in range(1, n + 1)]
    ends = data.draw(st.lists(st.tuples(st.sampled_from(vertices),
                                        st.sampled_from(vertices)),
                              min_size=1, max_size=3), label="arrows")
    q = Quiver(vertices, [Arrow("a%d" % i, s, t) for i, (s, t) in enumerate(ends)])
    field = data.draw(st.sampled_from([QQ, PrimeField(3)]), label="field")
    cap = data.draw(st.integers(3, 5), label="cap")
    paths = [q.path([a.name]) for a in q.arrows]
    frontier = paths
    for _ in range(2):
        frontier = [Path(p.source, a.target, p.arrows + (a.name,))
                    for p in frontier for a in q.arrows_out[p.target]]
        paths = paths + frontier
    long_paths = [p for p in paths if len(p) >= 2]
    relations = []
    for _ in range(data.draw(st.integers(0, 3), label="relations") if long_paths else 0):
        lead = data.draw(st.sampled_from(long_paths))
        # mostly parallel terms; any path may join, which tests rejection
        pool = [p for p in long_paths if (p.source, p.target) == (lead.source, lead.target)]
        others = data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        if data.draw(st.integers(0, 9)) == 0:
            others.append(data.draw(st.sampled_from(paths)))
        terms = {}
        for p in [lead] + others:
            terms[p] = field.from_int(data.draw(st.sampled_from([1, -1, 2])))
        relations.append(Element(terms, field))
    build_outcome(q, relations, cap, field)
