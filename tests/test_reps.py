"""Module-category layer: Hom spaces, kernels, radicals, standard modules."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from sphq.constructions import cb, kronecker, kronecker_quasi_simple
from sphq.corpus import FIXTURE_DIR, load_fixture
from sphq.derived import projective_cover
from sphq.errors import UnknownVertex
from sphq.linalg import QQ, Matrix, PrimeField, hstack, rank, rref
from sphq.reps import (ModuleMorphism, Representation, _quotient_data,
                       _subrep_from_inclusions, direct_sum, hom_basis,
                       injective_module, kernel_cokernel, projective_module,
                       rep_from_json, rep_to_json, simple_module,
                       standard_module, top_and_radical)


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
    M, _ = direct_sum([projective_module(alg, "1"), simple_module(alg, "2")])
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


def test_representation_relation_check():
    alg = cb(2)
    # a 2-dim rep violating the relation a2*a1 = 0 must be rejected
    one = Matrix(1, 1, [[QQ.one()]], QQ)
    with pytest.raises(Exception):
        Representation(alg, {"1": 1, "2": 1},
                       {"a1": one, "a2": one.transpose()})


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
    return Matrix.column([field.one() if k == i else field.zero()
                          for k in range(n)], field)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)])
       .flatmap(_matrices))
def test_quotient_data_is_the_greedy_complement(A):
    # These facts determine (sect, proj, pivots) uniquely.
    field, n = A.field, A.rows
    sect, proj, pivots = _quotient_data(A)
    assert pivots == rref(A)[1]
    chosen = []
    for i in range(n):
        span = hstack([A] + [_unit(n, j, field) for j in chosen])
        if rank(hstack([span, _unit(n, i, field)])) > rank(span):
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
    ModuleMorphism(_revalidated(ker), M, incl.mats, check=True)
    ModuleMorphism(N, _revalidated(coker), proj.mats, check=True)
    for v in M.dims:
        r = rank(f.mats[v])
        assert ker.dims[v] == M.dims[v] - r
        assert coker.dims[v] == N.dims[v] - r
        assert rank(incl.mats[v]) == ker.dims[v]
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
            ModuleMorphism(_revalidated(tr.rad), M, tr.rad_inclusion.mats,
                           check=True)
            ModuleMorphism(M, _revalidated(tr.top), tr.top_projection.mats,
                           check=True)
            assert all(m.is_zero() for m in tr.top.maps.values())
            for w in M.dims:
                sect = tr.top_section[w]
                assert tr.top_projection.mats[w] * sect == \
                    Matrix.identity(sect.cols, alg.field)
            # the cover map is onto; the radical inclusion has cokernel top M
            assert _check_kernel_cokernel(projective_cover(M)[3]).is_zero()
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
    with pytest.raises(AssertionError, match="arrow-stable"):
        _subrep_from_inclusions(P1, incls)
