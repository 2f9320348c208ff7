"""Algebra factories: insertion, tacking, families, embeddings, synthesis."""

from fractions import Fraction

import pytest

from sphq.algebra import Arrow, Quiver, build_algebra
from sphq.constructions import (cb, canonical, ci, circular, dda,
                                dda_small_corner, downset, induce, insert_An,
                                kronecker, kronecker_quasi_simple,
                                quiver_isomorphic, synthesize_poset_algebra,
                                tack, tensor_algebra)
from sphq.derived import hom_profile, minimal_projective_resolution, resolve
from sphq.errors import (FamilyParameterError, NotAcyclic, NotASink,
                         UnknownVertex)
from sphq.linalg import QQ, PrimeField
from sphq.reps import simple_module
from sphq.spherelike import classify_spherelike


def test_insert_an_structure():
    small = cb(2)
    big, emb = insert_An(small, "1", 1)
    assert big.total_dim == 9
    assert len(big.quiver.vertices) == 3
    # the embedding carries small basis paths to independent big elements
    emb.verify()


def test_insert_an_relation_splicing():
    # a relation through the replaced vertex picks up the inserted chain
    small = cb(3)
    big, emb = insert_An(small, "2", 1)
    assert any(len(p.arrows) >= 3
               for rel in big.relations for p in rel.terms)
    emb.verify()


def test_insert_zero_is_identity_like():
    small = cb(2)
    big, emb = insert_An(small, "1", 0)
    assert big.total_dim == small.total_dim
    emb.verify()


def test_insert_negative_length_refused():
    with pytest.raises(FamilyParameterError):
        insert_An(cb(2), "1", -1)


def test_tack_structure():
    base = kronecker(2)
    T = Quiver(["t1", "t2"], [Arrow("c", "t1", "t2")])
    big, emb = tack(base, T, "t2", {"2": 1})
    assert set(big.quiver.vertices) == {"1", "2", "t1", "t2"}
    emb.verify()


def test_tack_requires_sink():
    base = kronecker(2)
    T = Quiver(["t1", "t2"], [Arrow("c", "t1", "t2")])
    with pytest.raises(NotASink):
        tack(base, T, "t1", {"2": 1})


def test_tack_requires_acyclic():
    base = kronecker(2)
    T = Quiver(["t1", "t2", "t3"],
               [Arrow("c", "t1", "t2"), Arrow("d", "t2", "t1"),
                Arrow("e", "t2", "t3")])
    with pytest.raises(NotAcyclic):
        tack(base, T, "t3", {})


@pytest.mark.parametrize("mult, error", [
    ({"9": 1}, UnknownVertex),
    ({"2": -1}, FamilyParameterError),
], ids=["unknown-vertex", "negative"])
def test_tack_checks_its_multiplicities(mult, error):
    T = Quiver(["t1"], [])
    with pytest.raises(error):
        tack(kronecker(2), T, "t1", mult)


@pytest.mark.parametrize("build", [
    lambda: insert_An(cb(2), "9", 1),
    lambda: tack(kronecker(2), Quiver(["t1"], []), "9", {}),
    lambda: tack(kronecker(2), Quiver(["t1"], []), "t1", {"9": 1}),
    lambda: cb(2).quiver.trivial_path("9"),
], ids=["insert", "tack-sink", "tack-mult", "trivial-path"])
def test_unknown_vertex_error_names_the_vertex(build):
    with pytest.raises(UnknownVertex, match="unknown vertex '9'"):
        build()


def test_circular_corner_embedding():
    big, emb = circular(7, [5], with_embedding=True)
    assert emb.small.total_dim == cb(2).total_dim
    emb.verify()
    # induced resolution of S(1) lands on the marked vertices
    R = minimal_projective_resolution(simple_module(emb.small, "1"))
    G = induce(emb, R)
    assert {n: G.labels(n) for n in G.degrees()} == {
        -2: ["5"], -1: ["7"], 0: ["5"]}


def test_circular_parameter_validation():
    with pytest.raises(FamilyParameterError):
        circular(5, [0])
    with pytest.raises(FamilyParameterError):
        circular(5, [2, 2])


def test_cb_matches_circular():
    assert cb(4).total_dim == circular(4, [1, 2, 3]).total_dim


def test_ci_selfinjective_dims():
    alg = ci(2)
    assert alg.total_dim == 4
    assert all(len(p.arrows) <= 1 for p in alg.basis)


def test_canonical_shape():
    alg = canonical((2, 2, 2), [1])
    assert len(alg.quiver.vertices) == 5
    assert len(alg.quiver.arrows) == 6
    assert len(alg.relations) == 1
    assert alg.total_dim == 13


def test_canonical_validation():
    with pytest.raises(FamilyParameterError):
        canonical((2,), [])
    with pytest.raises(FamilyParameterError):
        canonical((2, 2, 2, 2), [1, 1])  # tube parameters must be distinct
    with pytest.raises(FamilyParameterError):
        canonical((2, 2, 2), [2])  # normalization b_3 = 1


def test_dda_tack_route_and_insertion_route_agree():
    big_a, _ = dda(2, 5, 2)
    base, _ = dda(2, 3, 2)
    big_b, _ = insert_An(base, "1", 2)
    assert quiver_isomorphic(big_a.quiver, big_b.quiver)
    assert big_a.total_dim == big_b.total_dim


def test_dda_corner():
    small, big, emb = dda_small_corner(2, 4, 1)
    emb.verify()
    assert small.total_dim < big.total_dim


def test_kronecker_quasi_simple_spherical():
    alg = kronecker(2)
    rep = classify_spherelike(kronecker_quasi_simple(alg, 1), "quasi")
    assert rep.verdict == "d_spherical" and rep.d == 1


@pytest.mark.parametrize("field, lam, value", [
    (PrimeField(5), 1, 1), (PrimeField(5), "2", 2), (PrimeField(5), "1/2", 3),
    (QQ, 1, 1), (QQ, "2", 2), (QQ, Fraction(1, 2), Fraction(1, 2)),
])
def test_kronecker_quasi_simple_parses_lambda_in_the_field(field, lam, value):
    """An int, a str or a Fraction lambda, read as a scalar of the field:
    1/2 is 3 in GF(5)."""
    M = kronecker_quasi_simple(kronecker(2, field=field), lam)
    assert M.maps["a2"].entries[0][0] == value


def test_kronecker_quasi_simple_takes_a_scalar_of_the_field():
    """lambda given as the int 2 and as the GF(5) scalar 2 build equal
    maps."""
    field = PrimeField(5)
    alg = kronecker(2, field=field)
    from_int = kronecker_quasi_simple(alg, 2)
    from_scalar = kronecker_quasi_simple(alg, field.from_int(2))
    assert {a: m.entries for a, m in from_scalar.maps.items()} == \
        {a: m.entries for a, m in from_int.maps.items()}


def test_tensor_of_kroneckers():
    alg = tensor_algebra(kronecker(2).quiver, kronecker(2).quiver)
    assert len(alg.quiver.vertices) == 4
    assert len(alg.quiver.arrows) == 8
    assert len(alg.relations) == 4
    assert alg.total_dim == 16


def test_downset():
    less = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]
    assert downset(["1", "2", "3", "4"], less, "4") == {"1", "2", "3", "4"}
    assert downset(["1", "2", "3", "4"], less, "2") == {"1", "2"}


def test_synthesize_chain_signatures():
    alg, designated, iotas = synthesize_poset_algebra(["1", "2"], [("1", "2")])
    for desc, M, expected in designated:
        rep = classify_spherelike(resolve(M), desc)
        assert rep.is_spherelike()
    assert iotas["1"] == {"1"}
    assert iotas["2"] == {"1", "2"}


def test_synthesize_rejects_cycles():
    with pytest.raises(FamilyParameterError):
        synthesize_poset_algebra(["1", "2"], [("1", "2"), ("2", "1")])


def test_induced_object_homs_restrict():
    # Hom over the corner agrees with Hom of the induced objects
    big, emb = circular(7, [5], with_embedding=True)
    small = emb.small
    R = minimal_projective_resolution(simple_module(small, "1"))
    G = induce(emb, R)
    assert hom_profile(G, G.to_rep()) == hom_profile(R, R.to_rep())
