"""Classification engine: verdicts, asphericality, membership, scans."""

import json
import os
from collections import Counter

import pytest

from sphq import spherelike
from sphq.algebra import Quiver, algebra_from_json, build_algebra
from sphq.constructions import (cb, ci, circular, induce, kronecker,
                                kronecker_quasi_simple)
from sphq.corpus import FIXTURE_DIR, load_fixture
from sphq.derived import (LabeledComplex, chain_map_space, cone, hom_profile,
                          iso_up_to_shift, minimal_projective_resolution,
                          nakayama, perfectify, resolve)
from sphq.errors import (DZeroUnsupported, GlobalDimensionExceeded,
                         UnsupportedCandidateSet)
from sphq.linalg import QQ, PrimeField
from sphq.reps import (direct_sum, projective_module, simple_module,
                       standard_module)
from sphq.spherelike import (_is_rational_square, asphericality,
                             certify_finite_gldim, classify_spherelike,
                             fractional_cy_check, in_spherical_subcat,
                             interval_modules, scan)

from reference import dense_chain_map, dense_cone, dense_is_acyclic


def test_simple_over_cb_is_spherical():
    for t in (2, 3, 4):
        alg = cb(t)
        rep = classify_spherelike(simple_module(alg, "1"), "S:1")
        assert rep.verdict == "d_spherical"
        assert rep.d == t


def test_auslander_verdicts():
    alg = load_fixture("auslander_x3")
    want = {"1": ("d_spherical", 2), "2": ("d_spherical", 2),
            "3": ("not_spherelike", None)}
    for v, (verdict, d) in want.items():
        rep = classify_spherelike(simple_module(alg, v), "S:%s" % v)
        assert (rep.verdict, rep.d) == (verdict, d)


def test_induced_circular_properly_spherelike():
    big, emb = circular(7, [5], with_embedding=True)
    R = minimal_projective_resolution(simple_module(emb.small, "1"))
    G = induce(emb, R)
    rep = classify_spherelike(G, "induced:S:1")
    assert rep.verdict == "properly_d_spherelike"
    assert rep.d == 2


def test_asphericality_acyclic_iff_spherical():
    alg = cb(3)
    F = resolve(simple_module(alg, "1"))
    Q = asphericality(F, classify_spherelike(F))
    assert Q.is_zero() and dense_is_acyclic(Q)

    big, emb = circular(7, [5], with_embedding=True)
    G = induce(emb, minimal_projective_resolution(simple_module(emb.small, "1")))
    Q2 = asphericality(G, classify_spherelike(G))
    assert not dense_is_acyclic(Q2)


def same_complex(X, Y):
    """The BoundedComplexes X and Y have the same pieces, arrow map by
    arrow map, and the same differentials, matrix by matrix."""
    return ({n: (M.dims, M.maps) for n, M in X.pieces.items()} ==
            {n: (M.dims, M.maps) for n, M in Y.pieces.items()} and
            {n: d.mats for n, d in X.diffs.items()} ==
            {n: d.mats for n, d in Y.diffs.items()})


def test_d_nonzero_verdict_is_q_f_acyclic(monkeypatch):
    """For d != 0 classification decides sphericity by is_quasi_iso of
    the map q: F -> nu F[-d].  On the standard and interval modules of
    every fixture this agrees with the dense cone of q being acyclic and
    with the iso test F[d] = nu F.  A spherical F's Q_F is the zero
    complex; a properly spherelike F's Q_F is the dense cone, and is the
    only cone classification writes.  asphericality hands back the
    report's Q_F."""
    cones = []

    def counting_cone(P, C, q):
        cones.append(q)
        return cone(P, C, q)

    monkeypatch.setattr(spherelike, "cone", counting_cone)
    seen = Counter()
    for fixture in sorted(f[:-5] for f in os.listdir(FIXTURE_DIR)):
        alg = load_fixture(fixture)
        standard = [("%s:%s" % (kind[0].upper(), v),
                     standard_module(alg, kind, v))
                    for kind in ("simple", "projective", "injective")
                    for v in alg.quiver.vertices]
        for desc, M in standard + interval_modules(alg):
            del cones[:]
            rep = classify_spherelike(M, desc)
            if rep.d in (None, 0):
                assert rep.Q is None and not cones
                continue
            F, d = rep.complex, rep.d
            N = nakayama(F)
            target = N.to_rep().shift(-d)
            dim, (q,) = chain_map_space(F, N, -d)
            K = dense_cone(dense_chain_map(F, target, q))
            iso = iso_up_to_shift(F, N.to_rep(), d)
            assert rep.is_spherical() == dense_is_acyclic(K) == (iso is True)
            if rep.is_spherical():
                assert rep.Q.pieces == {} and rep.Q.diffs == {} and not cones
            else:
                assert same_complex(rep.Q, K) and len(cones) == 1
            assert asphericality(F, rep) is rep.Q
            seen[rep.verdict] += 1
    assert seen == {"d_spherical": 27, "properly_d_spherelike": 6}


def test_membership_table_circular():
    big, emb = circular(7, [5], with_embedding=True)
    G = induce(emb, minimal_projective_resolution(simple_module(emb.small, "1")))
    Q = asphericality(G, classify_spherelike(G))
    want = {"1": True, "2": True, "3": True, "4": False, "6": False}
    for v, expect in want.items():
        assert in_spherical_subcat(simple_module(big, v), Q) == expect


def test_d_zero_asphericality_refused():
    alg = cb(2)
    P = resolve(projective_module(alg, "2"))
    rep = classify_spherelike(P, "P:2")
    assert rep.d == 0 and rep.is_spherelike()
    with pytest.raises(DZeroUnsupported):
        asphericality(P, rep)


def test_fractional_cy():
    alg = cb(3)
    F = resolve(simple_module(alg, "1"))
    assert fractional_cy_check(F, 1, 3)
    assert not fractional_cy_check(F, 1, 2)


def test_gldim_certificates():
    assert certify_finite_gldim(cb(3)) == 3
    alg = load_fixture("preprojective_a3_cluster")
    assert certify_finite_gldim(alg) >= 3


def test_infinite_gldim_raises_on_every_call():
    """ci(2) is self-injective of infinite global dimension: no failed
    certificate is memoised as a dimension."""
    alg = ci(2)
    for _ in range(2):
        with pytest.raises(GlobalDimensionExceeded):
            certify_finite_gldim(alg)
    with pytest.raises(GlobalDimensionExceeded):
        classify_spherelike(simple_module(alg, "1"), "S:1")


def test_scan_skips_past_the_resolution_bound():
    reports = scan(ci(2), "all_simples")
    assert [r.to_json() for r in reports] == [
        {"object": "S:%d" % v, "profile": {}, "verdict": "skipped",
         "note": "resolution exceeded bound 40"} for v in (1, 2)]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_d_zero_decomposable_end_ring(field):
    alg = build_algebra(Quiver(["1", "2"], []), [], field=field)
    M = direct_sum([simple_module(alg, "1"), simple_module(alg, "2")])
    data = classify_spherelike(M, "S:1+S:2").to_json()
    assert data == {"object": "S:1+S:2", "profile": {"0": 2},
                    "verdict": "decomposable_0_spherelike", "d": 0,
                    "end_kind": "k x k"}


def test_d_zero_local_end_ring():
    alg = load_fixture("dda_1_2_0")
    M = dict(interval_modules(alg))["interval:2,3"]
    data = classify_spherelike(M, "interval:2,3").to_json()
    assert data == {"object": "interval:2,3", "profile": {"0": 2},
                    "verdict": "d_spherical", "d": 0,
                    "end_kind": "k[x]/x^2"}


@pytest.mark.parametrize("x, square", [
    (0, True), (1, True), ("4/9", True), ("9/4", True), (2, False),
    ("3/4", False), (-1, False), (-4, False), ("-9/4", False),
    # the float root of this square rounds up
    pytest.param((10 ** 17 - 1) ** 2, True, id="big_square"),
    pytest.param((10 ** 17 - 1) ** 2 + 1, False, id="big_square_plus_1"),
    # too large for a float
    pytest.param(10 ** 400, True, id="10^400")])
def test_is_rational_square(x, square):
    assert _is_rational_square(QQ.parse(str(x))) is square


def test_scan_simples_deterministic_and_complete():
    alg = cb(3)
    reports = scan(alg, "all_simples")
    assert [r.desc for r in reports] == ["S:1", "S:2", "S:3"]
    again = scan(alg, "all_simples")
    assert [r.to_json() for r in reports] == [r.to_json() for r in again]


def test_scan_intervals_finds_zero_spherical():
    alg = load_fixture("dda_1_2_0")
    reports = scan(alg, "all_interval_modules")
    assert any(r.verdict == "d_spherical" and r.d == 0 for r in reports)


def test_scan_dimvector_needs_prime_field():
    alg = cb(2)
    with pytest.raises(UnsupportedCandidateSet):
        scan(alg, "all_indecomposables_up_to_dimvector", dim_bound=1)
    alg2 = cb(2, field=PrimeField(2))
    reports = scan(alg2, "all_indecomposables_up_to_dimvector", dim_bound=1)
    assert any(r.verdict == "d_spherical" for r in reports)
    for bound in (None, -1):
        with pytest.raises(UnsupportedCandidateSet, match="bound >= 0"):
            scan(alg2, "all_indecomposables_up_to_dimvector", dim_bound=bound)


def test_quasi_simple_family_spherical():
    alg = kronecker(2)
    for lam in (0, 1, "2/3", -4):
        M = kronecker_quasi_simple(alg, lam)
        rep = classify_spherelike(M, "quasi:%s" % lam)
        assert rep.verdict == "d_spherical" and rep.d == 1


def test_non_spherelike_verdict_needs_no_rep_of_the_resolution(monkeypatch):
    """A module is profiled as Hom(F, M) on its resolution F, so a
    standard module of cb3 that is not spherelike is classified without
    building any LabeledComplex.to_rep.  The algebra is read afresh so
    that no representation is cached."""
    def want(alg):
        return {(kind, v): classify_spherelike(
                    standard_module(alg, kind, v), "%s:%s" % (kind, v))
                for kind in ("simple", "projective", "injective")
                for v in alg.quiver.vertices}

    reports = {k: r.to_json() for k, r in want(load_fixture("cb3")).items()
               if not r.is_spherelike()}
    assert len(reports) == 8

    def refuse(self):
        raise AssertionError("to_rep built")

    monkeypatch.setattr(LabeledComplex, "to_rep", refuse)
    with open(os.path.join(FIXTURE_DIR, "cb3.json")) as fh:
        alg = algebra_from_json(json.load(fh))
    got = {k: classify_spherelike(standard_module(alg, *k), "%s:%s" % k)
           for k in reports}
    assert {k: r.to_json() for k, r in got.items()} == reports


def test_report_json_fields():
    alg = cb(2)
    rep = classify_spherelike(simple_module(alg, "1"), "S:1")
    data = rep.to_json()
    assert data["verdict"] == "d_spherical"
    assert data["d"] == 2
    assert data["object"] == "S:1"


SWEEP_FIELDS = {"QQ": {"kind": "rational"},
                "GF101": {"kind": "prime", "p": 101},
                "GF3": {"kind": "prime", "p": 3}}
# Fixtures whose simples or interval modules answer differently over some
# field of the sweep, with the fields whose answers differ from those over
# QQ.  None is known: a case found here is recorded, never dropped from the
# sweep.
FIELD_SENSITIVE_FIXTURES = {}


def same_report_as_resolved(M, R, desc):
    """classify_spherelike gives the same report for the module M, profiled
    as Hom(R, M), as for its minimal resolution R, profiled as Hom(R, R);
    and the same for the translate C = nu(R)[-1] and the injective-labeled
    nu(R), each against its perfectified form.  Returns R's report."""
    rep = classify_spherelike(R, desc)
    assert classify_spherelike(M, desc).to_json() == rep.to_json()
    N = nakayama(R)
    C = N.to_rep().shift(-1)
    for obj, G in ((C, perfectify(C)), (N, perfectify(N.to_rep()))):
        assert classify_spherelike(obj, desc).to_json() == \
            classify_spherelike(G, desc).to_json()
    return rep


def simples_answers(data, field):
    """Per simple S: its Hom profile against every simple, its verdict, d
    and field-sensitivity flag, with the fixture read over ``field``."""
    alg = algebra_from_json(dict(data, field=field))
    out = {}
    for v in alg.quiver.vertices:
        S = simple_module(alg, v)
        R = minimal_projective_resolution(S)
        rep = same_report_as_resolved(S, R, "S:%s" % v)
        out[v] = ({w: hom_profile(R, simple_module(alg, w))
                   for w in alg.quiver.vertices},
                  rep.verdict, rep.d, rep.field_sensitive)
    return out


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(FIXTURE_DIR)))
def test_characteristic_sweep_of_the_simples(name):
    """Each shipped fixture read over QQ, GF(101) and GF(3) gives its
    simples the same Hom profiles against every simple, the same verdict
    and the same d, except where recorded as field-sensitive."""
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        data = json.load(fh)
    answers = {fid: simples_answers(data, field)
               for fid, field in SWEEP_FIELDS.items()}
    differ = sorted(fid for fid in SWEEP_FIELDS if answers[fid] != answers["QQ"])
    assert differ == FIELD_SENSITIVE_FIXTURES.get(name, [])


def intervals_answers(data, field):
    """Per interval module M: the Hom profiles of its minimal resolution
    against every simple, its verdict and d, with the fixture read over
    ``field``."""
    alg = algebra_from_json(dict(data, field=field))
    out = {}
    for desc, M in interval_modules(alg):
        R = minimal_projective_resolution(M)
        rep = same_report_as_resolved(M, R, desc)
        out[desc] = ({w: hom_profile(R, simple_module(alg, w))
                      for w in alg.quiver.vertices}, rep.verdict, rep.d)
    return out


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(FIXTURE_DIR)))
def test_characteristic_sweep_of_the_interval_modules(name):
    """Each shipped fixture read over QQ, GF(101) and GF(3) gives its
    interval modules the same Hom profiles against every simple, the same
    verdict and the same d, except where recorded as field-sensitive."""
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        data = json.load(fh)
    answers = {fid: intervals_answers(data, field)
               for fid, field in SWEEP_FIELDS.items()}
    differ = sorted(fid for fid in SWEEP_FIELDS if answers[fid] != answers["QQ"])
    assert differ == FIELD_SENSITIVE_FIXTURES.get(name, [])
