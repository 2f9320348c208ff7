"""Interval modules P(v)/rad^l from radical spans, and the Euler matrix from
path counts, each against the slow route it replaced."""

import json
import os

import pytest

from sphq import spherelike
from sphq.algebra import algebra_from_json
from sphq.constructions import dda
from sphq.corpus import FIXTURE_DIR
from sphq.derived import hom_profile, minimal_projective_resolution
from sphq.errors import GlobalDimensionExceeded
from sphq.ktheory import cartan_matrix, euler_matrix
from sphq.linalg import PrimeField
from sphq.reps import (hom_basis, kernel_cokernel, projective_module,
                       rep_to_json, simple_module, top_and_radical)
from sphq.spherelike import certify_finite_gldim, interval_modules

FIXTURES = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
FIELDS = {"QQ": {"kind": "rational"},
          "GF101": {"kind": "prime", "p": 101},
          "GF3": {"kind": "prime", "p": 3}}
LAMBDAS = [(2, 5, 2), (2, 8, 6), (1, 3, 0), (2, 3, 1), (3, 5, 1)]


def fixture(name, field):
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        data = json.load(fh)
    return algebra_from_json(dict(data, field=FIELDS[field]))


def filtration_intervals(alg):
    """P(v)/rad^l by iterating top_and_radical, composing the radical
    inclusions and taking one cokernel per layer."""
    out = []
    for v in alg.quiver.vertices:
        P = projective_module(alg, v)
        layers, cur, incl = [], P, None
        while cur.total_dim() > 0:
            tr = top_and_radical(cur)
            incl = tr.rad_inclusion if incl is None \
                else incl.compose(tr.rad_inclusion)
            layers.append(incl)
            cur = tr.rad
        for ell in range(1, len(layers) + 1):
            M = P if ell == len(layers) else kernel_cokernel(layers[ell - 1])[1]
            out.append(("interval:%s,%d" % (v, ell), M))
    return out


def assert_same_intervals(alg):
    # the radical spans pick independent images with linalg._complement
    assert not {"rref", "hstack"} & set(vars(spherelike))
    got, want = interval_modules(alg), filtration_intervals(alg)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (desc, M), (_, N) in zip(got, want):
        assert rep_to_json(M) == rep_to_json(N), desc
    # the longest interval of each vertex is P(v) itself, shared
    last = {d.split(":")[1].rsplit(",", 1)[0]: M for d, M in got}
    for v, M in last.items():
        assert M is projective_module(alg, v)


@pytest.mark.parametrize("field", ["QQ", "GF3"])
@pytest.mark.parametrize("name", FIXTURES)
def test_intervals_match_the_filtration(name, field):
    assert_same_intervals(fixture(name, field))


@pytest.mark.parametrize("n", range(3, 9))
def test_dda_intervals_match_the_filtration(n):
    assert_same_intervals(dda(2, n, n - 2)[0])


def hom_profile_euler(alg):
    """E[x][y] = sum_i (-1)^i dim Hom(R(x), S(y)[i]) for the minimal
    resolution R(x) of S(x)."""
    certify_finite_gldim(alg)
    order = alg.quiver.vertices
    E = []
    for x in order:
        R = minimal_projective_resolution(simple_module(alg, x))
        E.append([sum((-1) ** (i % 2) * d
                      for i, d in hom_profile(R, simple_module(alg, y)).items())
                  for y in order])
    return E


def assert_same_euler(alg):
    order = alg.quiver.vertices
    projs = [projective_module(alg, v) for v in order]
    assert cartan_matrix(alg) == [[len(hom_basis(p, q)) for q in projs]
                                  for p in projs]
    try:
        want = hom_profile_euler(alg)
    except GlobalDimensionExceeded:
        with pytest.raises(GlobalDimensionExceeded):
            euler_matrix(alg)
        return
    E = euler_matrix(alg)
    assert E == want
    assert all(type(e) is int for row in E for e in row)
    assert euler_matrix(alg) is E


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", FIXTURES)
def test_euler_matrix_matches_hom_profiles(name, field):
    assert_same_euler(fixture(name, field))


@pytest.mark.parametrize("p", [None, 3, 101])
@pytest.mark.parametrize("params", LAMBDAS)
def test_dda_euler_matrix_matches_hom_profiles(params, p):
    assert_same_euler(dda(*params, field=p and PrimeField(p))[0])
