"""Cones, direct sums of complexes and element actions, which ``sphq``
assembles through ``linalg.from_blocks`` from their present blocks only,
and Hom-complex differentials and profiles, which it writes from their
nonzero entries only, checked against dense references.
``sphq`` builds no zero morphism, so the references build every zero
block themselves: a ``Matrix.zero`` for each absent differential or
chain-map component, zero corners, hstacks and vstacks."""

import os

import pytest

from sphq import derived, spherelike
from sphq.constructions import kronecker, kronecker_quasi_simple
from sphq.corpus import FIXTURE_DIR, load_fixture
from sphq.derived import (HomComplexData, chain_map_space, complex_direct_sum,
                          cone, hom_profile, is_quasi_iso,
                          minimal_projective_resolution, nakayama,
                          stalk_complex)
from sphq.linalg import PrimeField, QQ, Matrix, hstack, rank, vstack
from sphq.reps import standard_module
from sphq.spherelike import classify_spherelike, interval_modules

FIXTURES = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
KINDS = ("simple", "projective", "injective")


def standard_resolutions(alg):
    return [minimal_projective_resolution(standard_module(alg, kind, v))
            for kind in KINDS for v in alg.quiver.vertices]


def dense_path_action(M, p):
    """The identity at the source times each arrow map of p in turn."""
    m = Matrix.identity(M.dims[p.source], M.alg.field)
    for name in p.arrows:
        m = M.maps[name] * m
    return m


def dense_element_action(M, e):
    """Sum of c times the path action of p over the terms c p, accumulated
    on a zero matrix."""
    source, target = e.endpoints()
    acc = Matrix.zero(M.dims[target], M.dims[source], M.alg.field)
    for p, c in e.terms.items():
        acc = acc + dense_path_action(M, p).scale(c)
    return acc


def dense_block(morphisms, n, v, source, target):
    """The matrix at v of morphisms[n], or the zero matrix of its shape,
    source^n_v -> target_v, when morphisms has no entry n."""
    d = morphisms.get(n)
    if d is not None:
        return d.mats[v]
    return Matrix.zero(target.dims[v], source.piece(n).dims[v],
                       source.alg.field)


def dense_diff(X, n, v):
    """d_X^n at v, zero-filled when X has no differential in degree n."""
    return dense_block(X.diffs, n, v, X, X.piece(n + 1))


def dense_cone_matrix(f, n, v):
    """[[-d_X^{n+1}, 0], [f^{n+1}, d_Y^n]] at v, from zero-filled absent
    blocks, a zero corner, two hstacks and a vstack."""
    X, Y = f.source, f.target
    field = X.alg.field
    dx = dense_diff(X, n + 1, v).scale(field.from_int(-1))
    fy = dense_block(f.comps, n + 1, v, X, Y.piece(n + 1))
    dy = dense_diff(Y, n, v)
    top = hstack([dx, Matrix.zero(dx.rows, dy.cols, field)])
    return vstack([top, hstack([fy, dy])])


def dense_delta(data, n):
    """The Hom-complex differential C^n -> C^{n+1} on a zero matrix,
    every term added to its cell, an absent d_G zero-filled."""
    field = data.alg.field
    src, tgt = data.slots(n), data.slots(n + 1)
    src_off, tgt_off = {}, {}
    for slots, off in ((src, src_off), (tgt, tgt_off)):
        t = 0
        for (p, j, x, d) in slots:
            off[p, j] = t
            t += d
    M = Matrix.zero(sum(s[3] for s in tgt), sum(s[3] for s in src), field)
    ent = M.entries
    sign = field.from_int((-1) ** (n % 2))
    for (p, j, x, d) in src:
        off = src_off[p, j]
        if (p, j) in tgt_off:
            dg = dense_diff(data.G, p + n, x)
            for r in range(dg.rows):
                for c in range(dg.cols):
                    ent[tgt_off[p, j] + r][off + c] += dg.entries[r][c]
        dprev = data.F.diffs.get(p - 1)
        if dprev is not None:
            for j2 in range(len(data.F.labels(p - 1))):
                if (p - 1, j2) not in tgt_off or dprev[j][j2].is_zero():
                    continue
                act = dense_element_action(data.G.piece(p + n), dprev[j][j2])
                for r in range(act.rows):
                    for c in range(act.cols):
                        ent[tgt_off[p - 1, j2] + r][off + c] -= \
                            sign * act.entries[r][c]
    return M


def same_matrix(A, B):
    return (A.rows, A.cols, A.entries) == (B.rows, B.cols, B.entries)


@pytest.mark.parametrize("name", FIXTURES)
def test_element_action_matches_the_dense_sum(name):
    """Every differential entry of every standard-module resolution, acting
    on every standard module."""
    alg = load_fixture(name)
    modules = [standard_module(alg, kind, v)
               for kind in KINDS for v in alg.quiver.vertices]
    entries = [e for R in standard_resolutions(alg) for d in R.diffs.values()
               for row in d for e in row if e.terms]
    assert entries or name == "poset_cycle"
    for e in entries:
        for M in modules:
            assert same_matrix(M.element_action(e), dense_element_action(M, e))


@pytest.mark.parametrize("name", ["cb3", "ncc", "auslander_x3", "circular_7_5"])
def test_cone_matches_the_dense_construction(name):
    """For every chain map chain_map_space returns from a standard-module
    resolution to the shifts of another, the cone has the pieces and the
    per-vertex differentials of the dense construction."""
    alg = load_fixture(name)
    res = standard_resolutions(alg)
    maps = 0
    for F in res:
        for G in res:
            for s in HomComplexData(F, G).degree_range():
                for f in chain_map_space(F, G, s)[1]:
                    maps += 1
                    C = cone(f)
                    X, Y = f.source, f.target
                    degs = sorted({n - 1 for n in X.pieces} | set(Y.pieces))
                    assert sorted(C.pieces) == [
                        n for n in degs
                        if X.piece(n + 1).total_dim() + Y.piece(n).total_dim()]
                    for n in degs:
                        dims = {v: X.piece(n + 1).dims[v] + Y.piece(n).dims[v]
                                for v in alg.quiver.vertices}
                        assert C.piece(n).dims == dims
                        if n + 1 not in degs:
                            continue
                        for v in alg.quiver.vertices:
                            want = dense_cone_matrix(f, n, v)
                            if n in C.diffs:
                                assert same_matrix(C.diffs[n].mats[v], want)
                            else:
                                assert want.is_zero()
    assert maps


def dense_direct_sum_matrix(complexes, n, v):
    """The block-diagonal differential of the direct sum in degree n at v:
    per summand a row band, the hstack of its zero-filled d^n and of zero
    blocks for the others, then a vstack of the bands."""
    field = complexes[0].alg.field
    diag = [dense_diff(X, n, v) for X in complexes]
    return vstack([hstack([b if k == i else Matrix.zero(b.rows, o.cols, field)
                           for k, o in enumerate(diag)])
                   for i, b in enumerate(diag)])


@pytest.mark.parametrize("name", ["cb3", "ncc", "auslander_x3",
                                  "circular_7_5"])
def test_complex_direct_sum_matches_the_dense_block_diagonal(name):
    """Direct sums of three complexes drawn from the standard-module
    resolutions, their nu images and shifted stalk complexes, so that
    summands lack differentials or pieces in degrees where others have
    them."""
    alg = load_fixture(name)
    res = [F.to_rep() for F in standard_resolutions(alg)]
    stalks = [stalk_complex(standard_module(alg, kind, v)).shift(s)
              for s, kind in enumerate(KINDS) for v in alg.quiver.vertices]
    nus = [nakayama(F).to_rep().shift(1) for F in standard_resolutions(alg)]
    pool = res + stalks + nus
    sums = 0
    for i in range(len(pool)):
        complexes = [pool[i], pool[(3 * i + 1) % len(pool)],
                     pool[(5 * i + 2) % len(pool)]]
        D = complex_direct_sum(complexes)
        degs = sorted({n for X in complexes for n in X.pieces})
        assert sorted(D.pieces) == degs
        for n in degs:
            assert D.piece(n).dims == {
                v: sum(X.piece(n).dims[v] for X in complexes)
                for v in alg.quiver.vertices}
            if n + 1 not in degs:
                assert n not in D.diffs
                continue
            for v in alg.quiver.vertices:
                want = dense_direct_sum_matrix(complexes, n, v)
                if n in D.diffs:
                    assert same_matrix(D.diffs[n].mats[v], want)
                else:
                    assert want.is_zero()
            sums += n in D.diffs
    assert sums


def q_f_complexes(alg):
    """The Q_F of every d != 0 spherelike standard or interval module."""
    out = []
    objects = [(kind, standard_module(alg, kind, v))
               for kind in KINDS for v in alg.quiver.vertices]
    for desc, M in objects + interval_modules(alg):
        rep = classify_spherelike(M, desc)
        if rep.Q is not None:
            out.append(rep.Q)
    return out


@pytest.mark.parametrize("name", ["cb3", "auslander_x3", "circular_7_5",
                                  "dda_2_4_1"])
def test_delta_matches_the_dense_build(name):
    """Every differential of Hom(res X, G) for X standard and G a standard
    module as a stalk, nu(res X) as a complex, or a Q_F, one degree beyond
    the degree range on both sides."""
    alg = load_fixture(name)
    res = standard_resolutions(alg)
    qfs = q_f_complexes(alg)
    assert any(not Q.is_acyclic() for Q in qfs) or \
        name in ("cb3", "auslander_x3")
    targets = ([standard_module(alg, kind, v)
                for kind in KINDS for v in alg.quiver.vertices]
               + [nakayama(F).to_rep() for F in res] + qfs)
    deltas = 0
    for F in res:
        for G in targets:
            data = HomComplexData(F, G)
            rng = data.degree_range()
            if not rng:
                continue
            for n in range(rng[0] - 1, rng[-1] + 1):
                deltas += 1
                assert same_matrix(data.delta(n), dense_delta(data, n))
    assert deltas


def recorded_maps(name, monkeypatch):
    """Every chain map whose cone classify_spherelike asks about while
    classifying the standard and interval modules of a fixture: the maps
    that iso_up_to_shift and perfectify certify through is_quasi_iso, and
    the maps whose cone is Q_F."""
    recorded = []

    def recording(fn):
        def wrapper(f):
            recorded.append(f)
            return fn(f)
        return wrapper

    monkeypatch.setattr(derived, "is_quasi_iso", recording(is_quasi_iso))
    monkeypatch.setattr(spherelike, "cone", recording(cone))
    alg = load_fixture(name)
    objects = [("%s:%s" % (kind, v), standard_module(alg, kind, v))
               for kind in KINDS for v in alg.quiver.vertices]
    for desc, M in objects + interval_modules(alg):
        classify_spherelike(M, desc)
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("name", FIXTURES)
def test_is_acyclic_agrees_with_cohomology(name, monkeypatch):
    """On every recorded chain map f, the cone-free is_quasi_iso, the
    early-stopping is_acyclic of the built cone and its full cohomology
    give one answer."""
    for f in recorded_maps(name, monkeypatch):
        C = cone(f)
        assert is_quasi_iso(f) == C.is_acyclic() == (C.cohomology_dims() == {})


def test_recorded_cones_have_both_answers(monkeypatch):
    """On auslander_x3, 5 of the 55 recorded chain maps are
    quasi-isomorphisms, so both answers are exercised."""
    recorded = recorded_maps("auslander_x3", monkeypatch)
    assert {is_quasi_iso(f) for f in recorded} == {True, False}


def dense_profile(F, G):
    """The Hom profile read off the rank of each dense_delta: degree n ->
    dim C^n - rank delta^n - rank delta^(n-1), where nonzero."""
    data = HomComplexData(F, G)
    rng = data.degree_range()
    if not rng:
        return {}
    ranks = {n: rank(dense_delta(data, n))
             for n in range(rng[0] - 1, rng[-1] + 1)}
    dims = {n: sum(d for (_, _, _, d) in data.slots(n)) for n in rng}
    return {n: dims[n] - ranks[n] - ranks[n - 1] for n in rng
            if dims[n] - ranks[n] - ranks[n - 1]}


def test_hom_profile_unchanged_on_the_dense_delta():
    """hom_profile equals the dense reference profile from every standard
    resolution of ncc to each standard module, to nu of each resolution and
    to each Q_F; ncc has no Q_F, so dda_2_4_1 is checked too."""
    qfs = 0
    for name in ("ncc", "dda_2_4_1"):
        alg = load_fixture(name)
        res = standard_resolutions(alg)
        q = q_f_complexes(alg)
        qfs += sum(not Q.is_acyclic() for Q in q)
        targets = ([standard_module(alg, kind, v)
                    for kind in KINDS for v in alg.quiver.vertices]
                   + [nakayama(F) for F in res] + q)
        for F in res:
            for G in targets:
                assert hom_profile(F, G) == dense_profile(F, G)
    assert qfs


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)],
                         ids=["QQ", "GF2", "GF5"])
def test_multi_term_entries_match_the_dense_reference(field, k):
    """Resolutions of the modules M_lambda of the k-Kronecker algebra,
    lambda = 0..3, have entries like -2 a1 + a2, whose path actions add
    into shared cells (on M_lambda itself they cancel).  Against every
    standard module, every nu(R) and every M_mu, hom_profile equals the
    dense reference profile and delta equals dense_delta."""
    alg = kronecker(k, field)
    quasi = [kronecker_quasi_simple(alg, lam) for lam in range(4)]
    res = [minimal_projective_resolution(M) for M in quasi]
    assert any(len(e.terms) > 1 for R in res for d in R.diffs.values()
               for row in d for e in row)
    targets = ([standard_module(alg, kind, v)
                for kind in KINDS for v in alg.quiver.vertices]
               + [nakayama(R) for R in res] + quasi)
    for F in res:
        for G in targets:
            assert hom_profile(F, G) == dense_profile(F, G)
            data = HomComplexData(F, G)
            rng = data.degree_range()
            for n in range(rng[0] - 1, rng[-1] + 1):
                assert same_matrix(data.delta(n), dense_delta(data, n))


def test_hom_profile_builds_no_dense_differential(monkeypatch):
    """hom_profile answers with HomComplexData.delta and derived.rank
    made to raise, on every pair of standard resolutions of cb3 and on
    each standard resolution against nu of each."""
    alg = load_fixture("cb3")
    res = standard_resolutions(alg)
    pairs = [(F, G) for F in res for G in res + [nakayama(R) for R in res]]
    want = [dense_profile(F, G) for F, G in pairs]

    def refuse(*args):
        raise AssertionError("hom_profile built or ranked a dense matrix")

    monkeypatch.setattr(HomComplexData, "delta", refuse)
    monkeypatch.setattr(derived, "rank", refuse)
    assert [hom_profile(F, G) for F, G in pairs] == want
