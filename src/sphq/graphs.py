"""Exact algorithms on small directed graphs, standard library only: the
strict order of a DAG, its covers, longest chain and width (by a maximum
bipartite matching), and directed-multigraph isomorphism.

A graph is a list of nodes and an iterable of (source, target) edges.
Nothing here recurses over the graph's depth, except the isomorphism
search, whose depth is the number of nodes."""

from collections import Counter


def descendants(nodes, edges):
    """{v: the set of nodes reached from v by a nonempty path}, or None
    when the graph has a cycle (a loop is a cycle).  Kahn's order; the
    endpoints of every edge must be nodes."""
    succ = {v: [] for v in nodes}
    indegree = dict.fromkeys(succ, 0)
    for a, b in edges:
        succ[a].append(b)
        indegree[b] += 1
    order = [v for v, k in indegree.items() if not k]
    for v in order:
        for w in succ[v]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) < len(succ):
        return None
    desc = {}
    for v in reversed(order):
        reach = desc[v] = set(succ[v])
        for w in succ[v]:
            reach |= desc[w]
    return desc


def covers(desc):
    """The pairs (a, b) with b in desc[a] and no c in desc[a] with b in
    desc[c]: the Hasse diagram of the order given by descendants."""
    out = []
    for a, above in desc.items():
        indirect = set().union(*(desc[c] for c in above))
        out.extend((a, b) for b in above - indirect)
    return out


def longest_chain(desc):
    """The number of nodes on a longest chain (0 for no nodes).  b in
    desc[a] implies desc[b] < desc[a], so sorting by the size of desc is
    a reverse topological order."""
    length = {}
    for v in sorted(desc, key=lambda v: len(desc[v])):
        length[v] = 1 + max((length[w] for w in desc[v]), default=0)
    return max(length.values(), default=0)


def matching_size(adj):
    """Size of a maximum matching of the bipartite graph with an edge from
    left vertex u to right vertex w for each w in adj[u] (the two sides
    may share names).  Kuhn's algorithm: one breadth-first search for an
    augmenting path from each left vertex."""
    mate, partner = {}, {}  # right -> left, left -> right
    return sum(_augment(adj, mate, partner, u) for u in adj)


def _augment(adj, mate, partner, root):
    """Find an alternating path from the unmatched root to an unmatched
    right vertex and flip it; False when there is none."""
    via = {}  # right vertex -> the left vertex it was reached from
    queue = [root]
    for u in queue:
        for w in adj[u]:
            if w in via:
                continue
            via[w] = u
            if w in mate:
                queue.append(mate[w])
                continue
            while w is not None:
                u = via[w]
                previous = partner.get(u)
                mate[w], partner[u] = u, w
                w = previous
            return True
    return False


def isomorphic(nodes1, edges1, nodes2, edges2):
    """Whether the directed multigraphs are isomorphic: a bijection of the
    nodes carrying each edge multiplicity, loops included.  Backtracking
    over nodes with equal (out, in, loop) degree signatures."""
    mult1, mult2 = Counter(edges1), Counter(edges2)
    sig1, sig2 = _signatures(nodes1, mult1), _signatures(nodes2, mult2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    candidates = {v: [w for w in sig2 if sig2[w] == s]
                  for v, s in sig1.items()}
    order = _connected_order(sorted(sig1, key=lambda v: len(candidates[v])),
                             mult1)
    image, used = {}, set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not all(mult1[v, u] == mult2[w, x] and
                                    mult1[u, v] == mult2[x, w]
                                    for u, x in image.items()):
                continue
            image[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del image[v]
            used.discard(w)
        return False

    return extend(0)


def _signatures(nodes, mult):
    """{v: (out-degree, in-degree, loops)}, counting multiplicities."""
    out, into = Counter(), Counter()
    for (a, b), k in mult.items():
        out[a] += k
        into[b] += k
    return {v: (out[v], into[v], mult[v, v]) for v in nodes}


def _connected_order(nodes, mult):
    """nodes in breadth-first order over the underlying undirected graph,
    starting from the earliest unvisited node, so that each node placed
    after the first of its component is adjacent to one placed before."""
    nbrs = {v: [] for v in nodes}
    for a, b in mult:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order, seen = [], set()
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for v in queue:
            order.append(v)
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return order
