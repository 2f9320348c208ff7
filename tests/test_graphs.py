"""Graph helpers: order algorithms and multigraph isomorphism against
brute force."""

import itertools
import random
from collections import Counter

import pytest

from sphq.graphs import (covers, descendants, isomorphic, longest_chain,
                         matching_size)


def brute_isomorphic(nodes1, edges1, nodes2, edges2):
    """Try every bijection nodes1 -> nodes2."""
    if len(nodes1) != len(nodes2):
        return False
    mult2 = Counter(edges2)
    for image in itertools.permutations(nodes2):
        f = dict(zip(nodes1, image))
        if Counter((f[a], f[b]) for a, b in edges1) == mult2:
            return True
    return False


def random_multigraph(rng, n):
    """Up to 2n edges with repeats, loops allowed."""
    nodes = list(range(n))
    edges = [(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(0, 2 * n))] if n else []
    return nodes, edges


def relabelled(rng, nodes, edges):
    names = ["v%d" % v for v in nodes]
    rng.shuffle(names)
    f = dict(zip(nodes, names))
    out = [(f[a], f[b]) for a, b in edges]
    rng.shuffle(out)
    return sorted(names), out


def perturbed(rng, nodes, edges):
    """Add, delete or re-aim one edge."""
    edges = list(edges)
    move = rng.choice(["add", "delete", "reaim"] if edges else ["add"])
    if move != "add":
        a, _ = edges.pop(rng.randrange(len(edges)))
        if move == "reaim":
            edges.append((a, rng.choice(nodes)))
    else:
        edges.append((rng.choice(nodes), rng.choice(nodes)))
    return nodes, edges


def rewired(rng, nodes, edges):
    """Swap the targets of two edges, which keeps every in- and
    out-degree: only the search can tell such graphs apart."""
    edges = list(edges)
    if len(edges) >= 2:
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        edges[i], edges[j] = (a, d), (c, b)
    return nodes, edges


def test_isomorphic_matches_brute_force():
    """300 seeded multigraphs of at most 6 nodes, each against a relabelled
    copy, a relabelled one-edge perturbation, a relabelled rewiring and an
    independent graph."""
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        g = random_multigraph(rng, n)
        h = relabelled(rng, *g)
        assert isomorphic(*g, *h) and brute_isomorphic(*g, *h), seed
        others = [relabelled(rng, *perturbed(rng, *g)) if n else g,
                  relabelled(rng, *rewired(rng, *g)),
                  random_multigraph(rng, n)]
        for other in others:
            assert isomorphic(*g, *other) == brute_isomorphic(*g, *other), \
                seed


def test_isomorphic_counts_loops_and_parallel_edges():
    assert isomorphic([1, 2], [(1, 2), (1, 2)], "ab", [("b", "a")] * 2)
    assert not isomorphic([1, 2], [(1, 2), (1, 2)], "ab", [("a", "b")])
    assert not isomorphic([1, 2], [(1, 1), (2, 2)], "ab", [("a", "a")] * 2)
    assert not isomorphic([1, 2, 3], [], "ab", [])


def brute_descendants(nodes, edges):
    reach = {v: set() for v in nodes}
    for a, b in edges:
        reach[a].add(b)
    for _ in nodes:
        for v in nodes:
            reach[v] |= set().union(*(reach[w] for w in reach[v]))
    return reach


def test_descendants_matches_brute_force():
    """On 200 seeded multigraphs: the reachability sets when no node
    reaches itself, else None."""
    for seed in range(200):
        rng = random.Random(seed)
        nodes, edges = random_multigraph(rng, rng.randint(0, 7))
        reach = brute_descendants(nodes, edges)
        cyclic = any(v in reach[v] for v in nodes)
        assert descendants(nodes, edges) == (None if cyclic else reach), seed


@pytest.mark.parametrize("edges", [[("a", "a")], [("a", "b"), ("b", "a")]],
                         ids=["loop", "2-cycle"])
def test_descendants_refuses_a_cycle(edges):
    assert descendants(["a", "b", "c"], edges) is None


def test_order_helpers_on_a_diamond():
    desc = descendants("abcd", [("a", "b"), ("a", "c"), ("b", "d"),
                                ("c", "d")])
    assert desc == {"a": set("bcd"), "b": {"d"}, "c": {"d"}, "d": set()}
    assert sorted(covers(desc)) == [("a", "b"), ("a", "c"), ("b", "d"),
                                    ("c", "d")]
    assert longest_chain(desc) == 3
    assert matching_size(desc) == 2
    assert longest_chain({}) == 0 and matching_size({}) == 0


def test_long_chains_do_not_recurse():
    """Paths longer than the default recursion limit of 1000."""
    n = 1200
    desc = descendants(range(n), [(i, i + 1) for i in range(n - 1)])
    assert longest_chain(desc) == n
    assert matching_size(desc) == n - 1
    # left vertex i may take i + 1 or i, tried in that order: the
    # augmenting path from the last root passes every vertex
    n = 5000
    adj = {i: [i + 1, i] if i + 1 < n else [i] for i in range(n)}
    assert matching_size(adj) == n
