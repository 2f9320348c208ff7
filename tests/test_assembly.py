"""Cones, which ``sphq`` writes from the sparse columns of a chain map,
element actions, Hom-complex differentials, profiles, chain maps and
degree-0 End structures, which it reads from the nonzero entries of the
differentials only, and the cover loop of resolutions and ``perfectify``,
which keeps its maps as sparse columns, checked against dense references.
The dense cone and direct sum of ``tests/reference.py`` are checked
against references that build every zero block themselves: a
``Matrix.zero`` for each absent differential or chain-map component,
zero corners, hstacks and vstacks."""

import json
import os
import sys

import pytest

from collections import Counter

from sphq import corpus, derived, linalg, spherelike
from sphq.algebra import algebra_from_json
from sphq.constructions import kronecker, kronecker_quasi_simple
from sphq.corpus import FIXTURE_DIR, load_fixture
from sphq.errors import EngineInvariantViolation
from sphq.derived import (ChainMap, HomComplexData, as_rep_complex,
                          chain_map_space, cone, dual_rep_complex,
                          hom_profile, is_quasi_iso,
                          minimal_projective_resolution, nakayama,
                          perfectify, resolve, stalk_complex, tau,
                          tau_inverse)
from sphq.linalg import PrimeField, QQ, Matrix, hstack
from sphq.reps import (ModuleMorphism, generator_column, standard_basis,
                       standard_module)
from sphq.spherelike import classify_spherelike, interval_modules

import reference
from reference import (cohomology_dims, complex_direct_sum, dense_certify,
                       dense_chain_map, dense_col, dense_cone,
                       dense_cover_complex, dense_from_generators,
                       dense_is_acyclic, dense_iso_up_to_shift,
                       dense_kernel_basis, dense_rank,
                       dense_rref, dense_solve, identity_morphism,
                       matrix_columns, vstack)

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
    src, tgt = data._layout(n)[0], data._layout(n + 1)[0]
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
    resolution to the shifts of another, read as a dense_chain_map, its
    dense_cone has the pieces and the per-vertex differentials of the
    dense construction."""
    alg = load_fixture(name)
    res = standard_resolutions(alg)
    maps = 0
    for F in res:
        for G in res:
            for s in HomComplexData(F, G).degree_range():
                Gs = as_rep_complex(G).shift(s)
                for q in chain_map_space(F, G, s)[1]:
                    maps += 1
                    f = dense_chain_map(F, Gs, q)
                    C = dense_cone(f)
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
    """The cone of F -> nu F[-d] for every d != 0 spherelike standard or
    interval module F, written also where it is acyclic, where the report
    keeps the zero complex as Q_F."""
    out = []
    objects = [(kind, standard_module(alg, kind, v))
               for kind in KINDS for v in alg.quiver.vertices]
    for desc, M in objects + interval_modules(alg):
        rep = classify_spherelike(M, desc)
        if rep.Q is None:
            continue
        F = rep.complex
        N = nakayama(F)
        out.append(cone(F, N.to_rep().shift(-rep.d),
                        chain_map_space(F, N, -rep.d)[1][0]))
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
    assert any(not dense_is_acyclic(Q) for Q in qfs) or \
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


def map_columns(f):
    """The components of the ChainMap f in the q format of
    derived._cover_complex: per degree and vertex, the columns of its
    matrix as {row: coeff} dicts of the nonzero entries."""
    return {n: {v: matrix_columns(m) for v, m in g.mats.items()}
            for n, g in f.comps.items()}


def recorded_maps(name, monkeypatch):
    """(P, C, q) for every map whose cone classify_spherelike asks about
    while classifying the standard and interval modules of a fixture: the
    maps that iso_up_to_shift ranks through is_quasi_iso, and the maps
    F -> nu F[-d] whose cone is Q_F, which classification ranks through
    is_quasi_iso too."""
    recorded = []

    def recording(P, C, q):
        recorded.append((P, C, q))
        return is_quasi_iso(P, C, q)

    monkeypatch.setattr(derived, "is_quasi_iso", recording)
    monkeypatch.setattr(spherelike, "is_quasi_iso", recording)
    alg = load_fixture(name)
    objects = [("%s:%s" % (kind, v), standard_module(alg, kind, v))
               for kind in KINDS for v in alg.quiver.vertices]
    for desc, M in objects + interval_modules(alg):
        classify_spherelike(M, desc)
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("name", FIXTURES)
def test_is_acyclic_agrees_with_cohomology(name, monkeypatch):
    """On every recorded map q: P -> C, the cone-free is_quasi_iso, the
    early-stopping dense_is_acyclic of the dense_cone of the dense chain
    map (dense_chain_map, matrices read back by q_matrices) and its full
    cohomology give one answer."""
    for P, C, q in recorded_maps(name, monkeypatch):
        K = dense_cone(dense_chain_map(P, C, q))
        assert is_quasi_iso(P, C, q) == dense_is_acyclic(K) == \
            (cohomology_dims(K) == {})


def test_recorded_cones_have_both_answers(monkeypatch):
    """On auslander_x3, 5 of the 55 recorded maps are quasi-isomorphisms,
    so both answers are exercised."""
    recorded = recorded_maps("auslander_x3", monkeypatch)
    assert len(recorded) == 55
    assert sum(is_quasi_iso(*r) for r in recorded) == 5


def dense_profile(F, G):
    """The Hom profile read off the rank of each dense_delta: degree n ->
    dim C^n - rank delta^n - rank delta^(n-1), where nonzero."""
    data = HomComplexData(F, G)
    rng = data.degree_range()
    if not rng:
        return {}
    ranks = {n: dense_rank(dense_delta(data, n))
             for n in range(rng[0] - 1, rng[-1] + 1)}
    dims = {n: data._layout(n)[2] for n in rng}
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
        qfs += sum(not dense_is_acyclic(Q) for Q in q)
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


def refuse(*args):
    raise AssertionError("built, reduced or solved a dense matrix")


def test_hom_profile_builds_no_dense_differential(monkeypatch):
    """hom_profile answers with HomComplexData.delta and derived.rank
    (which derived no longer imports) made to raise, on every pair of
    standard resolutions of cb3 and on each standard resolution against
    nu of each."""
    alg = load_fixture("cb3")
    res = standard_resolutions(alg)
    pairs = [(F, G) for F in res for G in res + [nakayama(R) for R in res]]
    want = [dense_profile(F, G) for F, G in pairs]
    monkeypatch.setattr(HomComplexData, "delta", refuse)
    monkeypatch.setattr(derived, "rank", refuse, raising=False)
    assert [hom_profile(F, G) for F, G in pairs] == want


def typed(M):
    """The entries of M with their scalar types."""
    return [[(type(a), a) for a in row] for row in M.entries]


def typed_map(f):
    return {p: {v: typed(m) for v, m in g.mats.items()}
            for p, g in f.comps.items()}


def dense_chain_map_space(F, G, s):
    """chain_map_space on dense differentials: a kernel basis of
    dense_delta(s), the kernel columns that are pivot columns of the rref
    of [dense_delta(s - 1) | kernel basis], each turned into the chain map
    that sends generator j of F^p to the value of slot (p, j)."""
    data = HomComplexData(F, G)
    dprev = dense_delta(data, s - 1)
    K = dense_kernel_basis(dense_delta(data, s))
    offsets = data._layout(s)[1]
    Fs, Gs = F.to_rep(), data.G.shift(s)
    maps = []
    for k in dense_rref(hstack([dprev, K]))[1]:
        if k < dprev.cols:
            continue
        vec = dense_col(K, k - dprev.cols)
        comps = {}
        for p in F.degrees():
            Gp = data.G.piece(p + s)
            if Gp.is_zero():
                continue
            images = [vec[offsets[p, j]:offsets[p, j] + Gp.dims[x]]
                      for j, x in enumerate(F.labels(p))]
            order = standard_basis(F.alg, "proj", F.labels(p))[0]
            comps[p] = ModuleMorphism(
                Fs.piece(p), Gs.piece(p),
                dense_from_generators(Gp, order, images))
        maps.append(ChainMap(Fs, Gs, comps, check=False))
    return len(maps), maps


def dense_end_structure(F):
    """(alpha, beta) of phi^2 = alpha id + beta phi in H^0 End(F) from
    dense matrices: phi is the first candidate of dense_chain_map_space
    that raises the rank of [dense_delta(-1) | id] by one, and (alpha,
    beta) are the id and phi coordinates of a solve of
    [dense_delta(-1) | id | phi] x = phi o phi."""
    field = F.alg.field
    Frep = F.to_rep()
    data = HomComplexData(F, Frep)
    dprev = dense_delta(data, -1)
    slots = data._layout(0)[0]

    def column(cm):
        vec = []
        for (p, j, x, d) in slots:
            f = cm.comps.get(p)
            index = standard_basis(F.alg, "proj", F.labels(p))[1]
            vec += ([field.zero()] * d if f is None else
                    dense_col(f.mats[x], generator_column(index, j, x)))
        return Matrix(len(vec), 1, [[a] for a in vec], field)

    ident = column(ChainMap(Frep, Frep, {n: identity_morphism(Frep.piece(n))
                                         for n in Frep.pieces}, check=False))
    cands = dense_chain_map_space(F, Frep, 0)[1]
    base = dense_rank(hstack([dprev, ident]))
    phi = next(c for c in cands
               if dense_rank(hstack([dprev, ident, column(c)])) == base + 1)
    sq = ChainMap(Frep, Frep, {n: f.compose(f) for n, f in phi.comps.items()},
                  check=False)
    x = dense_solve(hstack([dprev, ident, column(phi)]),
                    dense_col(column(sq), 0))
    return x[dprev.cols], x[dprev.cols + 1]


SWEEP_FIELDS = {"QQ": {"kind": "rational"},
                "GF101": {"kind": "prime", "p": 101},
                "GF3": {"kind": "prime", "p": 3}}
SWEEP_FIXTURES = ["cb3", "auslander_x3", "circular_7_5", "dda_2_4_1"]


def fixture_over(name, field="QQ"):
    """The fixture read over SWEEP_FIELDS[field] and built anew, so nothing
    is memoised on it or its modules."""
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        return algebra_from_json(dict(json.load(fh),
                                      field=SWEEP_FIELDS[field]))


@pytest.mark.parametrize("field", sorted(SWEEP_FIELDS))
@pytest.mark.parametrize("name", SWEEP_FIXTURES)
def test_chain_map_space_matches_the_dense_reference(name, field):
    """From every standard resolution to nu of every standard resolution,
    in every degree of the Hom complex, with the fixture read over QQ,
    GF(101) and GF(3): the same dimension and the same chain maps,
    component by component, scalar types included."""
    alg = fixture_over(name, field)
    res = standard_resolutions(alg)
    maps = 0
    for F in res:
        for G in [nakayama(R) for R in res]:
            for s in HomComplexData(F, G).degree_range():
                dim, got = chain_map_space(F, G, s)
                want = dense_chain_map_space(F, G, s)
                Gs = as_rep_complex(G).shift(s)
                assert dim == want[0]
                assert [typed_map(dense_chain_map(F, Gs, q)) for q in got] \
                    == [typed_map(f) for f in want[1]]
                maps += dim
    assert maps


def typed_complex(X):
    """Each piece of the BoundedComplex X as its dimensions and its arrow
    maps with scalar types, and each differential as its per-vertex
    matrices with scalar types."""
    return ({n: (M.dims, {a: typed(m) for a, m in M.maps.items()})
             for n, M in X.pieces.items()},
            {n: {v: typed(m) for v, m in d.mats.items()}
             for n, d in X.diffs.items()})


def criterion_07_map():
    """(P, C, q) of criterion 07's cone: P = tau^-1 of the resolution of
    ncc's E, C = E[1] and q the one map of chain_map_space(P, E, 1)."""
    E = corpus._ncc_E(load_fixture("ncc"))
    P = tau_inverse(minimal_projective_resolution(E))
    stalk = stalk_complex(E)
    dim, (q,) = chain_map_space(P, stalk, 1)
    return P, stalk.shift(1), q


@pytest.mark.parametrize("name,field", [
    (name, field) for name in SWEEP_FIXTURES for field in sorted(SWEEP_FIELDS)
] + [("criterion_07", "QQ")])
def test_cone_matches_the_dense_reference(name, field):
    """cone(P, C, q), written from q's columns, equals the dense_cone of
    the dense_chain_map of q, piece by piece and matrix by matrix, scalar
    types included: for every map of chain_map_space from a standard
    resolution to nu of a standard resolution, in every degree of the Hom
    complex, with the fixture read over QQ, GF(101) and GF(3), and for
    criterion 07's map."""
    if name == "criterion_07":
        cases = [criterion_07_map()]
    else:
        alg = fixture_over(name, field)
        res = standard_resolutions(alg)
        cases = []
        for F in res:
            for G in [nakayama(R) for R in res]:
                for s in HomComplexData(F, G).degree_range():
                    Gs = as_rep_complex(G).shift(s)
                    cases += [(F, Gs, q) for q in chain_map_space(F, G, s)[1]]
    assert cases
    for P, C, q in cases:
        assert typed_complex(cone(P, C, q)) == \
            typed_complex(dense_cone(dense_chain_map(P, C, q)))


def typed_columns(cols):
    """Each {row: coeff} column as its (row, scalar type, coeff) list in
    increasing row."""
    return [[(i, type(a), a) for i, a in sorted(col.items())] for col in cols]


def typed_cover(P, q, C):
    """The labels of P, its differential entries term by term with scalar
    types, and for each matrix of q its row count and typed columns.  q is
    the per-vertex sparse columns of derived._cover_complex, whose row
    indices must lie below dim C^n_v, or the per-vertex matrices of
    dense_cover_complex, whose columns are read with matrix_columns."""
    def columns(n, v, m):
        if isinstance(m, Matrix):
            return m.rows, typed_columns(matrix_columns(m))
        rows = C.pieces[n].dims[v]
        assert all(0 <= i < rows for col in m for i in col)
        return rows, typed_columns(m)

    return ({n: P.labels(n) for n in P.degrees()},
            {n: [[[(p, type(c), c) for p, c in e.terms.items()] for e in row]
                 for row in d] for n, d in P.diffs.items()},
            {n: {v: columns(n, v, m) for v, m in mats.items()}
             for n, mats in q.items()})


def perfectify_inputs(alg):
    """For each standard resolution R, the inputs of perfectify in nu(R)
    and tau(R), and of injective_model in tau_inverse(R)."""
    inputs = []
    for R in standard_resolutions(alg):
        X = nakayama(R).to_rep()
        inputs += [X, X.shift(-1), dual_rep_complex(R.to_rep(),
                                                    alg.opposite())]
    return inputs


def cover_inputs(alg):
    """The complexes the cover loop covers: the stalk complex of every
    standard and interval module, then the perfectify_inputs."""
    modules = [standard_module(alg, kind, v)
               for kind in KINDS for v in alg.quiver.vertices]
    modules += [M for _, M in interval_modules(alg)]
    return [stalk_complex(M) for M in modules] + perfectify_inputs(alg)


@pytest.mark.parametrize("name,field", [(name, "QQ") for name in FIXTURES] +
                         [(name, field) for name in SWEEP_FIXTURES
                          for field in ("GF101", "GF3")])
def test_cover_loop_matches_the_dense_reference(name, field, monkeypatch):
    """On every input of cover_inputs, the sparse cover loop returns the
    dense loop's P, entries and scalar types included, and its q: each
    sparse column of q equals the dense matrix's column, scalar types
    included, and has the same number of rows.  It runs
    with derived.direct_sum and standard_sum made to raise, so it builds
    no direct-sum module, and derived no longer imports the dense
    kernel_basis, rref or hstack, nor a writer of maps from generators
    (from_generators)."""
    alg = fixture_over(name, field)
    inputs = cover_inputs(alg)
    want = [typed_cover(*dense_cover_complex(C), C) for C in inputs]
    assert not {"kernel_basis", "rref", "hstack", "from_generators"} & \
        set(vars(derived))
    for fn in ("direct_sum", "standard_sum"):
        monkeypatch.setattr(derived, fn, refuse)
    assert [typed_cover(*derived._cover_complex(C), C)
            for C in inputs] == want


@pytest.mark.parametrize("name", FIXTURES)
def test_cover_loop_does_only_nonzero_work(name, monkeypatch):
    """On the resolution of every standard module, the cover loop applies
    no trivial path and no path twice to the same vector: each arrow image
    is computed once, to pick the generators, and kept as the generator's
    arrow column, and a generator's trivial-path column is the generator
    itself, so only paths of two or more arrows are applied to write the
    columns.  No vertex where Phi^n has no nonzero row reaches the
    elimination ``_reduce``, and ``_complement`` runs only on a nonzero
    image."""
    alg = load_fixture(name)
    modules = [standard_module(alg, kind, v)
               for kind in KINDS for v in alg.quiver.vertices]
    moved_code = next(c for c in derived._cover_complex.__code__.co_consts
                      if getattr(c, "co_name", None) == "moved")
    moved, rows, images = [], [], []
    reduce, complement = derived._reduce, derived._complement

    def record_reduce(rs, field):
        rows.append(len(rs))
        return reduce(rs, field)

    def record_complement(image, vecs, field):
        image = list(image)
        images.append(any(image))
        return complement(image, vecs, field)

    def record_moved(frame, event, arg):
        if event == "call" and frame.f_code is moved_code:
            # the vector is kept, so no id is reused while it is recorded
            moved.append((frame.f_locals["p"], frame.f_locals["vec"]))

    monkeypatch.setattr(derived, "_reduce", record_reduce)
    monkeypatch.setattr(derived, "_complement", record_complement)
    for M in modules:
        moved.clear()
        previous = sys.getprofile()
        sys.setprofile(record_moved)
        try:
            derived._cover_complex(stalk_complex(M))
        finally:
            sys.setprofile(previous)
        assert all(p.arrows for p, _ in moved)
        assert len({(p, id(vec)) for p, vec in moved}) == len(moved)
    assert rows and 0 not in rows
    assert images and all(images)


def rejects(certify, P, C, q):
    """True when the certificate raises EngineInvariantViolation on q."""
    try:
        certify(P, C, q)
    except EngineInvariantViolation:
        return True
    return False


def mutants(q, one):
    """(n, v, mutant): q with one added to one nonzero entry of q^n at
    vertex v, for each nonzero entry in turn; an entry that becomes zero
    leaves its sparse column."""
    for n, qn in q.items():
        for v, cols in qn.items():
            for k, col in enumerate(cols):
                for i, a in col.items():
                    new = dict(col)
                    new[i] = a + one
                    if not new[i]:
                        del new[i]
                    yield n, v, {**q, n: {**qn,
                                          v: cols[:k] + [new] + cols[k + 1:]}}


class DenseMutantVerdicts:
    """dense_certify's verdict on the mutants of a cover map q that
    dense_certify accepts, each from the part of the dense check that the
    mutant can change.

    A mutant of q^n at vertex v differs from q only in the matrix of q^n
    at v.  The dense chain-map check compares per-vertex matrices, and
    q^n enters only the squares at degrees n - 1 and n, so the mutant's
    other squares hold as q's do.  Of the cone's differentials only the
    one in degree n - 1, [[-d_P^n, 0], [q^n, d_C^{n-1}]], holds q^n, and
    at v only.  q's cone is acyclic, so dim cone^k = r_k + r_{k-1} in
    every degree, r_k the rank of its degree-k differential.  If the
    mutant passes the squares, its cone is a complex with the same pieces
    and every rank but r_{n-1} the same, so it is acyclic exactly when
    the rank at v in degree n - 1 is unchanged: a fall leaves cohomology
    in degree n - 1, and a rise is impossible, since in a complex the
    ranks in degrees n - 1 and n add up to at most dim cone^n =
    r_n + r_{n-1}.  So the verdict is the dense check of the two squares
    at v and the dense rank of that one cone block, against q's; nothing
    else changes."""

    def __init__(self, P, C, q):
        self.C = C
        self.f = dense_chain_map(P, C, q)
        self.ranks = {}

    def _chain_map(self, n, v, m):
        """The dense chain map of q with q^n at v replaced by m's."""
        f, C = self.f, self.C
        cols = m[n][v]
        mat = linalg.from_entries(C.pieces[n].dims[v], len(cols),
                                  ((i, k, a) for k, col in enumerate(cols)
                                   for i, a in col.items()), C.alg.field)
        g = f.comps.get(n) or ModuleMorphism(
            f.source.piece(n), C.pieces[n], {})
        comps = dict(f.comps)
        comps[n] = ModuleMorphism(g.source, g.target, {**g.mats, v: mat})
        return ChainMap(f.source, C, comps, check=False)

    def rejects(self, n, v, m):
        g = self._chain_map(n, v, m)
        P, C = g.source, self.C
        for k in (n - 1, n):
            lhs = dense_diff(C, k, v) * dense_block(g.comps, k, v, P,
                                                    C.piece(k))
            rhs = dense_block(g.comps, k + 1, v, P, C.piece(k + 1)) * \
                dense_diff(P, k, v)
            if lhs != rhs:
                return True
        if (n, v) not in self.ranks:
            self.ranks[n, v] = dense_rank(dense_cone_matrix(self.f, n - 1, v))
        return dense_rank(dense_cone_matrix(g, n - 1, v)) != self.ranks[n, v]


# (rejected, mutants) per kind of perfectify input, summed over the
# standard resolutions of MUTANT_FIXTURES, the same over QQ and GF(3)
MUTANT_FIXTURES = ["cb3", "auslander_x3", "tensor_kronecker"]
MUTANT_COUNTS = {"nu": (752, 857), "tau": (752, 857),
                 "tau_inverse": (397, 499)}


@pytest.mark.parametrize("field", ["QQ", "GF3"])
def test_sparse_and_dense_certificates_reject_the_same_mutants(field):
    """On the nu, tau and tau^-1 inputs of perfectify (perfectify_inputs)
    over MUTANT_FIXTURES, perfectify's sparse certificate
    (derived._certify) and the dense one (dense_certify) both accept the
    cover map q, and after one is added to each nonzero entry of q in
    turn they reject exactly the same mutants, the sparse one with
    EngineInvariantViolation and not through an assert.  The full
    dense_certify runs once per input; each mutant's dense verdict is
    DenseMutantVerdicts', which checks densely only what the mutant can
    change."""
    counts = {kind: [0, 0] for kind in MUTANT_COUNTS}
    for name in MUTANT_FIXTURES:
        alg = fixture_over(name, field)
        inputs = perfectify_inputs(alg)
        for kind, C in zip(list(MUTANT_COUNTS) * len(inputs), inputs):
            P, q = derived._cover_complex(C)
            assert not rejects(derived._certify, P, C, q)
            assert not rejects(dense_certify, P, C, q)
            dense = DenseMutantVerdicts(P, C, q)
            for n, v, m in mutants(q, alg.field.one()):
                sparse = rejects(derived._certify, P, C, m)
                assert sparse == dense.rejects(n, v, m)
                counts[kind][0] += sparse
                counts[kind][1] += 1
    assert {kind: tuple(c) for kind, c in counts.items()} == MUTANT_COUNTS


def test_perfectify_certificate_is_sparse(monkeypatch):
    """perfectify calls no LabeledComplex.to_rep, Matrix.__mul__,
    from_blocks or ChainMap._validate on the perfectify_inputs of
    auslander_x3 and tensor_kronecker: each is counted while perfectify
    runs, and every count is 0; derived no longer imports from_blocks.
    Its cone is ranked by is_quasi_iso once per input, and is_quasi_iso
    on the degree-0 Hom class of a resolution of a simple, as
    chain_map_space gives it, calls none of them either."""
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    inputs = [C for name in ("auslander_x3", "tensor_kronecker")
              for C in perfectify_inputs(fixture_over(name))]
    R = standard_resolutions(fixture_over("cb3"))[0]
    Rrep = R.to_rep()
    (ident,) = chain_map_space(R, Rrep, 0)[1]
    assert "from_blocks" not in vars(derived)
    for owner, name in ((derived.LabeledComplex, "to_rep"),
                        (Matrix, "__mul__"), (derived.ChainMap, "_validate"),
                        (linalg, "from_blocks"), (derived, "is_quasi_iso")):
        monkeypatch.setattr(owner, name, counted(
            "%s.%s" % (owner.__name__, name), getattr(owner, name)))
    for C in inputs:
        perfectify(C)
    assert calls["sphq.derived.is_quasi_iso"] == len(inputs)
    assert derived.is_quasi_iso(R, Rrep, ident)
    assert calls.pop("sphq.derived.is_quasi_iso") == len(inputs) + 1
    assert calls == dict.fromkeys(calls, 0)
    assert len(calls) == 4


# The d = 0 spherelike objects that query_mix classifies.
D0_OBJECTS = {"auslander_x3": ["I:2", "P:2", "interval:2,4", "interval:3,3",
                               "interval:3,4"],
              "circular_7_5": ["I:6", "I:7", "P:6", "P:7", "interval:6,8",
                               "interval:6,9", "interval:7,8"]}
STANDARD_KINDS = {"S": "simple", "P": "projective", "I": "injective"}


def typed_report(rep):
    """The report's JSON and its Q_F, pieces and differentials with
    types."""
    return rep.to_json(), None if rep.Q is None else typed_complex(rep.Q)


def d0_objects(algebra_of):
    """(desc, module) of the d = 0 objects of query_mix and the simples of
    cb3, over the algebras ``algebra_of(name)``."""
    objects = []
    for name, descs in sorted(D0_OBJECTS.items()) + [("cb3", ["S:1", "S:2",
                                                               "S:3"])]:
        alg = algebra_of(name)
        intervals = dict(interval_modules(alg))
        for desc in descs:
            kind, v = desc.split(":")
            objects.append((desc, intervals[desc] if kind == "interval"
                            else standard_module(alg, STANDARD_KINDS[kind], v)))
    return objects


def dense_space(F, G, s):
    """dense_chain_map_space with each chain map read as its columns by
    map_columns, the format of chain_map_space."""
    dim, maps = dense_chain_map_space(F, G, s)
    return dim, [map_columns(f) for f in maps]


def dense_q_cone(P, C, q):
    """The dense_cone of the dense_chain_map of q."""
    return dense_cone(dense_chain_map(P, C, q))


def dense_q_quasi_iso(P, C, q):
    """True when the dense_q_cone of q is acyclic (dense_is_acyclic)."""
    return dense_is_acyclic(dense_q_cone(P, C, q))


def test_chain_maps_and_end_structure_build_no_dense_matrix(monkeypatch):
    """classify_spherelike, and so the cover loop, chain_map_space, the iso
    test, the Q_F test, the cone and the degree-0 End structure, answer with
    HomComplexData.delta, derived.kernel_basis, rref and hstack and
    spherelike.rank and solve made to raise, on the d = 0 objects of
    query_mix and on the simples of cb3.  The reports, Q_F included, are
    those classify_spherelike gives on the dense references
    (dense_iso_up_to_shift, dense_q_quasi_iso and dense_cone among them),
    and so is (alpha, beta) of each d = 0 object.
    Each run builds its modules over algebras built anew, so the dense
    run's resolutions are not memoised on the shared fixtures, and the
    guarded run resolves its modules under the guard."""
    objects = d0_objects(fixture_over)
    with monkeypatch.context() as m:
        m.setattr(derived, "_cover_complex", dense_cover_complex)
        for module in (derived, spherelike):
            m.setattr(module, "chain_map_space", dense_space)
        m.setattr(spherelike, "cone", dense_q_cone)
        m.setattr(spherelike, "is_quasi_iso", dense_q_quasi_iso)
        m.setattr(spherelike, "_degree0_end_structure", dense_end_structure)
        m.setattr(spherelike, "iso_up_to_shift", dense_iso_up_to_shift)
        want = [typed_report(classify_spherelike(M, desc))
                for desc, M in objects]
        d0 = [resolve(M) for desc, M in objects if not desc.startswith("S")]
        want_ends = [dense_end_structure(F) for F in d0]
    assert sum(r[0].get("d") == 0 for r in want) == len(d0) == 12
    assert any(r[0].get("d") and r[1] for r in want)
    objects = d0_objects(fixture_over)
    monkeypatch.setattr(HomComplexData, "delta", refuse)
    for name in ("kernel_basis", "rref", "hstack"):
        monkeypatch.setattr(derived, name, refuse, raising=False)
    for name in ("rank", "solve"):
        monkeypatch.setattr(spherelike, name, refuse, raising=False)
    assert [typed_report(classify_spherelike(M, desc))
            for desc, M in objects] == want
    assert [spherelike._degree0_end_structure(resolve(M))
            for desc, M in objects if not desc.startswith("S")] == want_ends


def test_each_degree_sort_and_layout_happens_once(monkeypatch):
    """hom_profile sorts the degrees of F and of G once each, and
    chain_map_space builds the layouts of degrees s - 1, s and s + 1 once
    each, from every standard resolution F of auslander_x3 to F and to
    nu F as rep complexes.  The degree-0 End structure of each d = 0
    object of auslander_x3 lays out degrees -1, 0 and 1 once each."""
    sorts, layouts = [], []
    real_layout = HomComplexData._layout

    def counted_sorted(xs, **kw):
        sorts.append(xs)
        return sorted(xs, **kw)

    def counted_layout(data, n):
        layouts.append(n)
        return real_layout(data, n)

    alg = load_fixture("auslander_x3")
    for F in standard_resolutions(alg):
        for G in (F.to_rep(), nakayama(F).to_rep()):
            rng = HomComplexData(F, G).degree_range()
            with monkeypatch.context() as m:
                m.setattr(derived, "sorted", counted_sorted, raising=False)
                del sorts[:]
                hom_profile(F, G)
            assert sum(xs is F.pieces for xs in sorts) == 1
            assert sum(xs is G.pieces for xs in sorts) == 1
            with monkeypatch.context() as m:
                m.setattr(HomComplexData, "_layout", counted_layout)
                for s in rng:
                    del layouts[:]
                    chain_map_space(F, G, s)
                    assert sorted(layouts) == [s - 1, s, s + 1]
    d0 = [resolve(M) for desc, M in d0_objects(fixture_over)
          if desc in D0_OBJECTS["auslander_x3"] and M.alg.name == alg.name]
    assert len(d0) == 5
    with monkeypatch.context() as m:
        m.setattr(HomComplexData, "_layout", counted_layout)
        for F in d0:
            del layouts[:]
            spherelike._degree0_end_structure(F)
            assert sorted(layouts) == [-1, 0, 1]


def test_no_matrix_apply_receives_a_zero_vector(monkeypatch):
    """Matrix.apply takes {column: coeff} vectors, and no caller hands it
    a zero one: path_apply stops at a zero vector, the cover loop keeps
    the C part of its vectors sparse, and the degree-0 End structure skips
    a zero slot value.  Checked on the resolutions, nu, tau and tau^-1 of
    every standard module of tensor_kronecker and on the classification
    of the objects of d0_objects (radical spans, chain maps and End
    structures included), over algebras built anew, so that none of it is
    memoised."""
    seen = []
    real_apply = Matrix.apply

    def checked(M, vec):
        seen.append(any(vec.values()))
        return real_apply(M, vec)

    monkeypatch.setattr(Matrix, "apply", checked)
    alg = fixture_over("tensor_kronecker")
    for R in standard_resolutions(alg):
        perfectify(nakayama(R).to_rep())
        tau(R)
        tau_inverse(R)
    for desc, M in d0_objects(fixture_over):
        classify_spherelike(M, desc)
    assert seen and all(seen), "%d of %d calls on a zero vector" % (
        seen.count(False), len(seen))


def recorded_iso_calls(run, monkeypatch):
    """(F, Y, s) of every iso_up_to_shift call that run() makes, through
    any sphq module."""
    calls = []
    real = derived.iso_up_to_shift

    def recording(F, Y, s):
        calls.append((F, Y, s))
        return real(F, Y, s)

    with monkeypatch.context() as m:
        for module in (derived, spherelike, corpus):
            m.setattr(module, "iso_up_to_shift", recording)
        run()
    return calls


def d0_iso_calls(field, monkeypatch):
    """The iso_up_to_shift calls of classifying the d = 0 objects of
    query_mix (D0_OBJECTS) over algebras built anew over ``field``."""
    objects = [(desc, M) for desc, M in d0_objects(
        lambda name: fixture_over(name, field)) if not desc.startswith("S")]
    return recorded_iso_calls(
        lambda: [classify_spherelike(M, desc) for desc, M in objects],
        monkeypatch)


# The answers of iso_up_to_shift on the calls of run_corpus() and of the
# D0_OBJECTS classifications, counted.
ISO_ANSWERS = {"corpus": {True: 12, False: 0, "not_witnessed": 3},
               "QQ": {True: 0, False: 0, "not_witnessed": 12},
               "GF3": {True: 0, False: 0, "not_witnessed": 12}}


@pytest.mark.parametrize("calls", sorted(ISO_ANSWERS))
def test_iso_up_to_shift_matches_the_dense_reference(calls, monkeypatch):
    """On every iso_up_to_shift call of run_corpus(), and of classifying
    the d = 0 objects of query_mix over QQ and GF(3), iso_up_to_shift
    gives dense_iso_up_to_shift's answer, "not_witnessed" included:
    chain_map_space's dense chain maps, their dense combinations and the
    acyclicity of each built cone."""
    if calls == "corpus":
        recorded = recorded_iso_calls(corpus.run_corpus, monkeypatch)
    else:
        recorded = d0_iso_calls(calls, monkeypatch)
    answers = [derived.iso_up_to_shift(*c) for c in recorded]
    assert answers == [dense_iso_up_to_shift(*c) for c in recorded]
    counts = Counter(answers)
    assert {a: counts[a] for a in ISO_ANSWERS[calls]} == ISO_ANSWERS[calls]


@pytest.mark.parametrize("name", ["auslander_x3", "cb3", "dda_2_3_0"])
def test_iso_up_to_shift_needs_a_weighted_combination(name, monkeypatch):
    """F = P(1) + P(1) in degree 0: each basis vector of End(F) that
    _cocycle_vectors gives is a singular matrix unit, and their plain sum
    is no isomorphism either, so only a seeded combination with unequal
    coefficients witnesses F = F.  iso_up_to_shift(F, F, 0) is True, and
    "not_witnessed" with no trials; dense_iso_up_to_shift agrees both
    times."""
    alg = load_fixture(name)
    F = derived.LabeledComplex(alg, {0: ["1", "1"]}, {})
    Y = F.to_rep()
    data = HomComplexData(F, Y)
    layouts = {n: data._layout(n) for n in (-1, 0, 1)}
    vecs = derived._cocycle_vectors(data, 0, layouts)
    plain = {}
    for vec in vecs:
        for k, a in vec.items():
            plain[k] = plain.get(k, alg.field.zero()) + a
    assert len(vecs) == 4
    assert not any(
        is_quasi_iso(F, Y, derived._cocycle_columns(data, 0, layouts[0][1], v))
        for v in vecs + [plain])
    assert derived.iso_up_to_shift(F, F, 0) is True
    assert dense_iso_up_to_shift(F, F, 0) is True
    monkeypatch.setattr(derived, "ISO_TRIALS", 0)
    monkeypatch.setattr(reference, "ISO_TRIALS", 0)
    assert derived.iso_up_to_shift(F, F, 0) == "not_witnessed"
    assert dense_iso_up_to_shift(F, F, 0) == "not_witnessed"


def test_each_differential_matrix_is_read_once(monkeypatch):
    """is_quasi_iso and cone read the columns of C's differentials
    through the memoised _rep_diff_columns, so the candidate maps of an
    iso_up_to_shift call share one read: over run_corpus() and over the
    12 iso_up_to_shift calls of classifying the D0_OBJECTS over QQ, each
    with several candidates, derived._columns reads no matrix twice."""
    reads = []
    real = derived._columns

    def counted(M):
        reads.append(M)
        return real(M)

    monkeypatch.setattr(derived, "_columns", counted)
    corpus.run_corpus()
    assert len(d0_iso_calls("QQ", monkeypatch)) == 12
    assert reads
    assert max(Counter(id(M) for M in reads).values()) == 1


# The standard and interval modules of these fixtures include 18 objects
# with d != 0, five of whose Q_F are not acyclic.
DN_FIXTURES = ["auslander_x3", "circular_7_5", "dda_2_4_1",
               "preprojective_a3_cluster"]


def test_iso_and_end_structure_build_no_chain_map(monkeypatch):
    """iso_up_to_shift and the degree-0 End structure build no ChainMap
    and no ModuleMorphism and multiply no Matrix, and iso_up_to_shift
    calls to_rep on no F, only on Y: counted on every iso_up_to_shift
    call of run_corpus() and of classifying the D0_OBJECTS over QQ, and
    on the End structure of each of those objects.  The representation
    of each Y, and that of F which the End structure's Hom complex takes
    as its right argument, are built before counting.  Classifying the
    standard and interval modules of DN_FIXTURES, built before counting
    over algebras read anew, builds no ChainMap and multiplies no Matrix
    either, and for an object with d != 0, whose Q_F it builds, calls
    to_rep on no F."""
    d0 = d0_iso_calls("QQ", monkeypatch)
    recorded = recorded_iso_calls(corpus.run_corpus, monkeypatch) + d0
    ends = [F for F, _, _ in d0]
    assert len(ends) == 12
    for F, Y, _ in recorded:
        derived.as_rep_complex(Y)
    for F in ends:
        F.to_rep()
    objects = []
    for name in DN_FIXTURES:
        alg = fixture_over(name)
        objects += [(kind, standard_module(alg, kind, v))
                    for kind in KINDS for v in alg.quiver.vertices]
        objects += interval_modules(alg)
    calls, to_rep_of = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def to_rep(self):
        to_rep_of.append(self)
        return real_to_rep(self)

    real_to_rep = derived.LabeledComplex.to_rep
    for owner in (ChainMap, ModuleMorphism):
        monkeypatch.setattr(owner, "__init__", counted(
            owner.__name__, owner.__init__))
    monkeypatch.setattr(Matrix, "__mul__", counted("mul", Matrix.__mul__))
    monkeypatch.setattr(derived.LabeledComplex, "to_rep", to_rep)
    answers = []
    for F, Y, s in recorded:
        answers.append(derived.iso_up_to_shift(F, Y, s))
        assert all(G is Y for G in to_rep_of)
        del to_rep_of[:]
    assert Counter(answers)["not_witnessed"] == 15
    for F in ends:
        spherelike._degree0_end_structure(F)
    assert calls == {}
    qfs = []
    for desc, M in objects:
        del to_rep_of[:]
        rep = classify_spherelike(M, desc)
        if rep.d:
            qfs.append(rep.Q)
            assert all(G is not rep.complex for G in to_rep_of)
    assert len(qfs) == 18 and sum(not dense_is_acyclic(Q) for Q in qfs) == 5
    assert calls["ChainMap"] == calls["mul"] == 0
