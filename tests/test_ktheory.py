"""Grothendieck-group layer: Cartan/Euler matrices and orthogonal lattices."""

import itertools
import random

from sphq.algebra import Arrow, Quiver, build_algebra
from sphq.constructions import cb
from sphq.corpus import load_fixture, _ncc_E
from sphq.derived import (chain_map_space, cone, minimal_projective_resolution,
                          hom_profile, stalk_complex)
from sphq.ktheory import (cartan_matrix, dim_vector, euler_matrix,
                          euler_pairing, integer_kernel, k_class, perp_lattice,
                          same_lattice, vertex_order)
from sphq.linalg import QQ, Matrix, rank, solve
from sphq.reps import projective_module, simple_module, standard_module


def a2_algebra():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    return build_algebra(q, [], field=QQ)


def test_cartan_cb2():
    alg = cb(2)
    assert cartan_matrix(alg) == [[1, 1], [1, 2]]


def test_euler_a2():
    assert euler_matrix(a2_algebra()) == [[1, -1], [0, 1]]


def test_euler_matches_alternating_hom_dims():
    alg = cb(3)
    E = euler_matrix(alg)
    for kx in ("simple", "projective"):
        for x in alg.quiver.vertices:
            M = standard_module(alg, kx, x)
            R = minimal_projective_resolution(M)
            for y in alg.quiver.vertices:
                N = simple_module(alg, y)
                prof = hom_profile(R, N)
                chi = sum(((-1) ** (i % 2)) * d for i, d in prof.items())
                assert chi == euler_pairing(E, k_class(M), k_class(N))


def test_regular_class_pairs_to_dimension():
    alg = cb(3)
    E = euler_matrix(alg)
    reg = [0] * len(vertex_order(alg))
    for v in vertex_order(alg):
        pv = k_class(projective_module(alg, v))
        reg = [a + b for a, b in zip(reg, pv)]
    assert euler_pairing(E, reg, reg) == alg.total_dim


def test_k_class_of_acyclic_is_zero():
    alg = cb(3)
    S = simple_module(alg, "1")
    R = minimal_projective_resolution(S)
    stalk = stalk_complex(S)
    C = cone(R, stalk, chain_map_space(R, stalk, 0)[1][0])
    assert k_class(C) == [0, 0, 0]


def test_k_class_alternates():
    alg = cb(3)
    R = minimal_projective_resolution(simple_module(alg, "1"))
    total = [0, 0, 0]
    for n in R.degrees():
        dv = dim_vector(R.to_rep().piece(n))
        total = [a + ((-1) ** (n % 2)) * b for a, b in zip(total, dv)]
    assert k_class(R) == total == k_class(simple_module(alg, "1"))


def test_integer_kernel_annihilates():
    rows = [[2, 4, 6], [1, 2, 3]]
    basis = integer_kernel(rows, 3)
    assert len(basis) == 2
    for b in basis:
        for r in rows:
            assert sum(x * y for x, y in zip(r, b)) == 0


def test_integer_kernel_contains_every_kernel_vector_of_a_box():
    """Brute-force oracle: the basis is independent, lies in the kernel,
    and every x in {-2..2}^n with A x = 0 is an integer combination of it."""
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        basis = integer_kernel(rows, n)
        assert len(basis) == n - rank(Matrix(m, n, rows, QQ))
        for b in basis:
            assert all(sum(x * y for x, y in zip(r, b)) == 0 for r in rows)
        B = Matrix(n, len(basis), [[b[i] for b in basis] for i in range(n)],
                   QQ)
        for x in itertools.product(range(-2, 3), repeat=n):
            if any(sum(a * y for a, y in zip(r, x)) for r in rows):
                continue
            coeffs = solve(B, list(x))
            assert coeffs is not None, (rows, x)
            assert all(c == int(c) for c in coeffs), (rows, x)


def test_perp_of_zero_class_is_everything():
    alg = cb(2)
    E = euler_matrix(alg)
    basis, gram, anti = perp_lattice(E, [[0, 0]])
    assert same_lattice(basis, [[1, 0], [0, 1]])


def test_perp_of_ncc_class():
    alg = load_fixture("ncc")
    E = euler_matrix(alg)
    assert E == [[1, -2, 2], [0, 1, -2], [0, 0, 1]]
    basis, gram, anti = perp_lattice(E, [k_class(_ncc_E(alg))])
    assert anti
    assert gram == [[0, 1], [-1, 0]]
    assert same_lattice(basis, [[1, 1, 0], [0, 1, 1]])


def test_same_lattice_invariance():
    assert same_lattice([[1, 1], [0, 2]], [[1, 3], [0, 2]])
    assert not same_lattice([[1, 0]], [[2, 0]])
