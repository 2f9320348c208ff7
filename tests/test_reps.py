"""Module-category layer: Hom spaces, kernels, radicals, standard modules."""

import ast
import os
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import sphq
from sphq import derived, reps
from sphq.algebra import Path
from sphq.constructions import cb, kronecker, kronecker_quasi_simple
from sphq.corpus import FIXTURE_DIR, load_fixture
from sphq.derived import (HomComplexData, LabeledComplex,
                          minimal_projective_resolution)
from sphq.errors import EngineInvariantViolation, SchemaError, UnknownVertex
from sphq.linalg import QQ, Matrix, PrimeField, hstack
from sphq.reps import (ModuleMorphism, Representation, _quotient_data,
                       _subrep_from_inclusions, direct_sum, generator_column,
                       hom_basis, injective_module, kernel_cokernel, projective_module, rep_from_json,
                       rep_to_json, simple_module, standard_basis,
                       standard_module, standard_sum, top_and_radical,
                       zero_rep)
from sphq.spherelike import interval_module

from reference import (check_morphism, cohomology_dims, dense_apply,
                       dense_col, dense_from_generators, dense_rank,
                       dense_rref, matrix_columns)


def test_projective_dims_cb3():
    alg = cb(3)
    # P(x) has basis the paths with source x
    for v in alg.quiver.vertices:
        P = projective_module(alg, v)
        expect = sum(1 for p in alg.basis if p.source == v)
        assert P.total_dim() == expect


def test_hom_from_projective_is_fiber():
    # Hom(P(x), M) has dimension dim M_x
    alg = load_fixture("auslander_x3")
    for v in alg.quiver.vertices:
        P = projective_module(alg, v)
        for w in alg.quiver.vertices:
            for kind in ("simple", "projective", "injective"):
                M = standard_module(alg, kind, w)
                assert len(hom_basis(P, M)) == M.dims[v]


def test_hom_into_injective_is_fiber():
    # Hom(M, I(x)) has dimension dim M_x
    alg = cb(3)
    for v in alg.quiver.vertices:
        I = injective_module(alg, v)
        for w in alg.quiver.vertices:
            M = projective_module(alg, w)
            assert len(hom_basis(M, I)) == M.dims[v]


def test_hom_between_simples():
    alg = cb(3)
    S1, S2 = simple_module(alg, "1"), simple_module(alg, "2")
    assert len(hom_basis(S1, S1)) == 1
    assert len(hom_basis(S1, S2)) == 0


def test_kernel_cokernel_rank_nullity():
    alg = cb(3)
    P1 = projective_module(alg, "1")
    S1 = simple_module(alg, "1")
    (f,) = hom_basis(P1, S1)
    ker, coker, kincl, cproj = kernel_cokernel(f)
    assert ker.total_dim() == P1.total_dim() - 1
    assert coker.total_dim() == 0
    # inclusion followed by f vanishes
    assert f.compose(kincl).is_zero()


def test_top_and_radical():
    alg = cb(3)
    P1 = projective_module(alg, "1")
    tr = top_and_radical(P1)
    assert tr.rad.total_dim() == P1.total_dim() - 1
    # the radical of P(1) over cb3 is generated in vertex 2
    assert tr.rad.dims["2"] == 1


def test_direct_sum_dims():
    alg = cb(2)
    M = direct_sum([projective_module(alg, "1"), simple_module(alg, "2")])
    assert M.total_dim() == projective_module(alg, "1").total_dim() + 1


def test_quasi_simple_action():
    alg = kronecker(2)
    M = kronecker_quasi_simple(alg, 5)
    assert M.dims == {"1": 1, "2": 1}
    assert M.maps["a2"].entries[0][0] == QQ.parse("5")


def test_unknown_vertex():
    alg = cb(2)
    with pytest.raises(UnknownVertex):
        simple_module(alg, "9")


def test_rep_json_roundtrip():
    alg = kronecker(2)
    M = kronecker_quasi_simple(alg, "2/3")
    again = rep_from_json(alg, rep_to_json(M))
    assert again.dims == M.dims
    for a in alg.quiver.arrows:
        assert again.maps[a.name] == M.maps[a.name]


RELATION_CASES = [
    # the path a1 a2 acts as 1, not 0
    (lambda: cb(2), (1, 1), {"a1": [[1]], "a2": [[1]]}, False),
    (lambda: load_fixture("cb3"), (1, 1, 1),
     {"a1": [[1]], "a2": [[1]]}, False),
    # the path a c acts as 0, and the two terms of c a - b d cancel
    (lambda: load_fixture("auslander_x3"), (1, 2, 1),
     {"a": [[1], [0]], "c": [[0, 1]], "b": [[0, 1]], "d": [[1], [0]]}, True),
    # b d acts as twice c a
    (lambda: load_fixture("auslander_x3"), (1, 2, 1),
     {"a": [[1], [0]], "c": [[0, 1]], "b": [[0, 2]], "d": [[1], [0]]}, False),
]


def test_representation_relation_check():
    """Representation checks that every relation acts as 0, a
    multi-term relation as the sum of its terms."""
    for make_alg, dims, maps, valid in RELATION_CASES:
        alg = make_alg()
        dims = dict(zip(alg.quiver.vertices, dims))
        mats = {a: Matrix(len(rows), len(rows[0]),
                          [[QQ.from_int(x) for x in row] for row in rows], QQ)
                for a, rows in maps.items()}
        if valid:
            Representation(alg, dims, mats)
        else:
            with pytest.raises(SchemaError, match="relation does not vanish"):
                Representation(alg, dims, mats)


def _matrices(field):
    """Small matrices over ``field`` with many zeros, 0-row and 0-column
    shapes included."""
    if field == QQ:
        nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        nonzero = st.integers(-4, 4).map(field.from_int)
    entry = st.one_of(st.just(field.zero()), nonzero)
    return st.integers(0, 5).flatmap(
        lambda r: st.integers(0, 5).flatmap(
            lambda c: st.builds(
                lambda ent: Matrix(r, c, ent, field),
                st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))))


def _unit(n, i, field):
    return Matrix(n, 1, [[field.one() if k == i else field.zero()]
                         for k in range(n)], field)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)])
       .flatmap(_matrices))
def test_quotient_data_is_the_greedy_complement(A):
    # These facts determine (sect, proj, pivots) uniquely.
    field, n = A.field, A.rows
    sect, proj, pivots = _quotient_data(A)
    assert pivots == dense_rref(A)[1]
    chosen = []
    for i in range(n):
        span = hstack([A] + [_unit(n, j, field) for j in chosen])
        if dense_rank(hstack([span, _unit(n, i, field)])) > dense_rank(span):
            chosen.append(i)
    expect = Matrix.zero(n, len(chosen), field)
    for j, i in enumerate(chosen):
        expect.entries[i][j] = field.one()
    assert sect == expect
    assert (proj.rows, proj.cols) == (len(chosen), n)
    assert (proj * A).is_zero()
    assert proj * sect == Matrix.identity(len(chosen), field)


def _revalidated(rep):
    return Representation(rep.alg, rep.dims, rep.maps, check=True)


def _check_kernel_cokernel(f):
    M, N = f.source, f.target
    ker, coker, incl, proj = kernel_cokernel(f)
    check_morphism(ModuleMorphism(_revalidated(ker), M, incl.mats))
    check_morphism(ModuleMorphism(N, _revalidated(coker), proj.mats))
    for v in M.dims:
        r = dense_rank(f.mats[v])
        assert ker.dims[v] == M.dims[v] - r
        assert coker.dims[v] == N.dims[v] - r
        assert dense_rank(incl.mats[v]) == ker.dims[v]
    assert f.compose(incl).is_zero()
    assert proj.compose(f).is_zero()
    return coker


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
                         + ["cb3_gf3"])
def test_top_radical_and_kernel_cokernel_revalidate(name):
    alg = cb(3, field=PrimeField(3)) if name == "cb3_gf3" else load_fixture(name)
    for v in alg.quiver.vertices:
        for kind in ("simple", "projective", "injective"):
            M = standard_module(alg, kind, v)
            tr = top_and_radical(M)
            check_morphism(ModuleMorphism(_revalidated(tr.rad), M,
                                          tr.rad_inclusion.mats))
            check_morphism(ModuleMorphism(M, _revalidated(tr.top),
                                          tr.top_projection.mats))
            assert all(m.is_zero() for m in tr.top.maps.values())
            for w in M.dims:
                sect = tr.top_section[w]
                assert tr.top_projection.mats[w] * sect == \
                    Matrix.identity(sect.cols, alg.field)
            # the resolution has cohomology M; the radical inclusion has
            # cokernel top M
            assert cohomology_dims(minimal_projective_resolution(M).to_rep()) \
                == {0: M.total_dim()}
            coker = _check_kernel_cokernel(tr.rad_inclusion)
            assert coker.dims == tr.top.dims
            assert coker.total_dim() > 0


def test_subspace_not_arrow_stable_is_rejected():
    alg = cb(3)
    P1 = projective_module(alg, "1")
    assert P1.dims["2"] > 0
    # only the generator e_1: its image under the arrow 1 -> 2 is lost
    incls = {v: (_unit(1, 0, QQ) if v == "1" else Matrix.zero(P1.dims[v], 0, QQ))
             for v in alg.quiver.vertices}
    assert P1.dims["1"] == 1
    with pytest.raises(EngineInvariantViolation, match="arrow-stable"):
        _subrep_from_inclusions(P1, incls)


FIXTURES = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
STANDARD = {"proj": "projective", "inj": "injective"}


def generator_columns(M, labels, images):
    """derived._cocycle_columns of the map into M from the sum of the P(x)
    over ``labels`` that sends generator j to the {coordinate: coeff}
    vector images[j]: the sum is a complex in degree 0, whose Hom complex
    into M holds the value of generator j in slot (0, j).  Per vertex,
    one {row: coeff} column per ``standard_basis`` coordinate."""
    data = HomComplexData(LabeledComplex(M.alg, {0: labels}, {}), M)
    offsets = data._layout(0)[1]
    vec = {offsets[0, j] + k: c for j, img in enumerate(images)
           for k, c in img.items()}
    return derived._cocycle_columns(data, 0, offsets, vec)[0]


@pytest.mark.parametrize("name", FIXTURES)
def test_standard_sum_is_the_direct_sum_of_standard_modules(name):
    """standard_sum is direct_sum of the standard modules; order[v] lists
    one coordinate per dimension, and generator j of a sum of projectives
    is the unit vector at index[x_j][(j, e_{x_j})]: sending each generator
    there gives the identity, in derived._cocycle_columns as in
    dense_from_generators."""
    alg = load_fixture(name)
    rng = random.Random(name)
    verts = alg.quiver.vertices
    for kind in ("proj", "inj"):
        for _ in range(4):
            labels = [rng.choice(verts) for _ in range(rng.randint(1, 4))]
            M, order, index = standard_sum(alg, kind, labels)
            D = direct_sum([standard_module(alg, STANDARD[kind], x)
                            for x in labels])
            assert M.dims == D.dims and M.maps == D.maps
            assert (order, index) == standard_basis(alg, kind, labels)
            for v in verts:
                assert len(order[v]) == M.dims[v]
                assert [index[v][key] for key in order[v]] == \
                    list(range(M.dims[v]))
            if kind == "inj":
                continue
            gens = []
            for j, x in enumerate(labels):
                col = generator_column(index, j, x)
                assert col == index[x][(j, Path(x, x, ()))]
                gens.append({col: alg.field.one()})
            ident = generator_columns(M, labels, gens)
            dense = dense_from_generators(M, order, [
                dense_col(Matrix.identity(M.dims[x], alg.field),
                          generator_column(index, j, x))
                for j, x in enumerate(labels)])
            for v in verts:
                unit = Matrix.identity(M.dims[v], alg.field)
                assert ident[v] == matrix_columns(unit) == \
                    matrix_columns(dense[v])


@pytest.mark.parametrize("name", FIXTURES)
def test_from_generators_applies_each_path_to_its_image(name):
    """The columns that derived._cocycle_columns writes for a map from a
    sum of projectives, given by the images of its generators, are those
    of dense_from_generators and of the path actions applied to the
    images."""
    alg = load_fixture(name)
    rng = random.Random(name)
    verts = alg.quiver.vertices
    for _ in range(4):
        M = standard_module(alg, rng.choice(["projective", "injective"]),
                            rng.choice(verts))
        labels = [rng.choice(verts) for _ in range(rng.randint(1, 3))]
        order, _ = standard_basis(alg, "proj", labels)
        images = [[alg.field.from_int(rng.randint(-3, 3))
                   for _ in range(M.dims[x])] for x in labels]
        cols = generator_columns(M, labels, [
            {k: c for k, c in enumerate(img) if c} for img in images])
        dense = dense_from_generators(M, order, images)
        for v in verts:
            reference = [dense_apply(M.path_action(p), images[j])
                         for j, p in order[v]]
            assert cols[v] == matrix_columns(dense[v]) == matrix_columns(
                Matrix(len(reference), M.dims[v], reference,
                       alg.field).transpose())


def test_standard_modules_are_built_once_per_algebra():
    alg = cb(3)
    for v in alg.quiver.vertices:
        assert projective_module(alg, v) is projective_module(alg, v)
        assert projective_module(alg, v) is \
            standard_module(alg, "projective", v)
        assert injective_module(alg, v) is standard_module(alg, "injective", v)
        assert simple_module(alg, v) is simple_module(alg, v)
        assert simple_module(alg, v) is standard_module(alg, "simple", v)
        assert interval_module(alg, v, 1) is simple_module(alg, v)
        for kind in ("simple", "projective", "injective"):
            M = standard_module(alg, kind, v)
            assert minimal_projective_resolution(M) is \
                minimal_projective_resolution(M)
    for name in ("cb3", "auslander_x3"):
        assert load_fixture(name) is load_fixture(name)


@pytest.mark.parametrize("name", ["cb3", "auslander_x3", "tensor_kronecker"])
def test_standard_basis_is_built_once_per_label_sequence(name):
    """A second call returns the same order and index objects, for a list
    or a tuple of the same labels, and the layout is the one built from
    the slice bases: summand j, then its normal paths."""
    alg = load_fixture(name)
    verts = alg.quiver.vertices
    for kind in ("proj", "inj"):
        for labels in ([verts[0]], list(reversed(verts)), verts + verts[:1]):
            order, index = standard_basis(alg, kind, labels)
            again = standard_basis(alg, kind, tuple(labels))
            assert again[0] is order and again[1] is index
            for v in verts:
                want = [(j, p) for j, x in enumerate(labels)
                        for p in (alg.slice_basis(v, x) if kind == "proj"
                                  else alg.slice_basis(x, v))]
                assert order[v] == want
                assert index[v] == {key: i for i, key in enumerate(want)}


@pytest.mark.parametrize("name", FIXTURES)
def test_standard_sum_is_built_once_per_label_sequence(name):
    """A second call returns the same (module, order, index), for a list
    or a tuple of the same labels; the module is the direct sum of the
    standard modules, arrow map for arrow map, and no labels give the
    zero module."""
    alg = load_fixture(name)
    verts = alg.quiver.vertices
    for kind in ("proj", "inj"):
        for labels in ([verts[0]], list(reversed(verts)), verts + verts[:1],
                       [verts[-1]] * 3):
            first = standard_sum(alg, kind, labels)
            again = standard_sum(alg, kind, tuple(labels))
            assert again is first
            assert first[1:] == standard_basis(alg, kind, labels)
            D = direct_sum([standard_module(alg, STANDARD[kind], x)
                            for x in labels])
            assert first[0].dims == D.dims and first[0].maps == D.maps
        M, order, _ = standard_sum(alg, kind, [])
        assert M is zero_rep(alg)
        assert all(keys == [] for keys in order.values())


def test_to_rep_over_a_warm_algebra_builds_no_standard_module(monkeypatch):
    alg = load_fixture("auslander_x3")
    R = minimal_projective_resolution(simple_module(alg, "1"))
    R.to_rep()
    builds = []
    real = reps._build_standard

    def build(alg, kind, x):
        builds.append((kind, x))
        return real(alg, kind, x)

    monkeypatch.setattr(reps, "_build_standard", build)
    again = LabeledComplex(alg, R.pieces, R.diffs)
    assert cohomology_dims(again.to_rep()) == {0: 1}
    assert builds == []
    projective_module(kronecker(2), "1")
    assert builds == [("proj", "1")]


def _memoised_defs(word):
    """(module, function) of every ``@memoised`` function in sphq whose
    name contains ``word``."""
    found = set()
    for path in sorted(pathlib.Path(sphq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and word in node.name and \
                    "memoised" in map(ast.unparse, node.decorator_list):
                found.add((path.name, node.name))
    return found


def test_only_reps_touches_the_standard_module_cache():
    """The standard modules and their sums are memoised in reps.py alone,
    per algebra, and shared by every caller with the same labels."""
    assert _memoised_defs("standard") == {
        ("reps.py", "_standard"), ("reps.py", "_standard_basis"),
        ("reps.py", "_standard_sum")}
    alg = cb(3)
    assert standard_module(alg, "injective", "2") is \
        standard_module(alg, "injective", "2")
    assert standard_sum(alg, "proj", ["1", "2"]) is \
        standard_sum(alg, "proj", ("1", "2"))
    assert standard_sum(cb(3), "proj", ["1", "2"]) is not \
        standard_sum(alg, "proj", ["1", "2"])


def test_only_derived_fills_the_resolution_memo():
    """minimal_projective_resolution is memoised in derived.py alone, per
    module object: an equal module built anew is resolved anew."""
    assert _memoised_defs("resolution") == {
        ("derived.py", "minimal_projective_resolution")}
    S = simple_module(cb(3), "1")
    R = minimal_projective_resolution(S)
    assert minimal_projective_resolution(S) is R
    copy = Representation(S.alg, dict(S.dims), dict(S.maps), check=False)
    again = minimal_projective_resolution(copy)
    assert again is not R and again.pieces == R.pieces
