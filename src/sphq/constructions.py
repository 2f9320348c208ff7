"""Algebra factories: A_n-insertion, tacking, induced embeddings j_!,
circular/canonical/cycle-with-tail families, tensor algebras, and the
poset-synthesis construction.
"""

from . import graphs
from .algebra import Arrow, Element, Quiver, build_algebra, default_cap
from .errors import (NotAcyclic, NotASink, NotElementValued, SchemaError,
                     FamilyParameterError, UnknownVertex)
from .derived import LabeledComplex
from .linalg import QQ, Matrix, scalar_to_str, sparse_rank
from .reps import Representation


class Embedding:
    """Corner embedding of a small algebra into a big one.

    ``vertex_map`` sends small vertices to big vertices; ``arrow_paths``
    sends each small arrow to a composable list of big arrow names.  The
    induced algebra map lands in the corner e A' e; verification checks
    that relations map to zero, that images of basis paths stay linearly
    independent, and that the corner dimension matches the small algebra.
    """

    def __init__(self, small, big, vertex_map, arrow_paths, check=True):
        self.small = small
        self.big = big
        self.vertex_map = dict(vertex_map)
        self.arrow_paths = {a: list(p) for a, p in arrow_paths.items()}
        if check:
            self.verify()

    def map_path(self, p):
        names = []
        for a in p.arrows:
            names.extend(self.arrow_paths[a])
        if not names:
            return self.big.quiver.trivial_path(self.vertex_map[p.source])
        return self.big.quiver.path(names)

    def map_element(self, e):
        out = self.big.zero_element()
        for p, c in e.terms.items():
            out = out + self.big.reduce_path(self.map_path(p)).scale(c)
        return out

    def verify(self):
        vm = self.vertex_map
        if len(set(vm.values())) != len(vm):
            raise SchemaError("embedding vertex map is not injective")
        for a in self.small.quiver.arrows:
            img = self.map_path(self.small.quiver.path([a.name]))
            if img.source != vm[a.source] or img.target != vm[a.target]:
                raise SchemaError("arrow %s image has wrong endpoints" % a.name)
        for rel in self.small.relations:
            if not self.map_element(rel).is_zero():
                raise SchemaError("relation does not map to zero under embedding")
        # corner dimension: paths of the big algebra between image vertices
        image = set(vm.values())
        corner = sum(1 for p in self.big.basis
                     if p.source in image and p.target in image)
        if corner != self.small.total_dim:
            raise SchemaError("corner dimension %d != small algebra dimension %d"
                              % (corner, self.small.total_dim))
        # injectivity: images of the small basis are linearly independent
        bidx = self.big.basis_index
        rows = [{bidx[q]: c for q, c in
                 self.big.reduce_path(self.map_path(p)).terms.items()}
                for p in self.small.basis]
        if sparse_rank(rows, self.big.field) != self.small.total_dim:
            raise SchemaError("embedding is not injective")

    def to_json(self):
        return {"vertex_map": dict(self.vertex_map),
                "arrow_paths": {a: list(p) for a, p in self.arrow_paths.items()}}


def identity_embedding(alg):
    return Embedding(alg, alg, {v: v for v in alg.quiver.vertices},
                     {a.name: [a.name] for a in alg.quiver.arrows}, check=False)


def induce(emb, F):
    """j_!(F): relabel projective summands along the embedding and rewrite
    every differential entry arrow-by-arrow, then normalize."""
    if not isinstance(F, LabeledComplex) or F.kind != "proj":
        raise NotElementValued("induce needs a projective-labeled complex")
    big = emb.big
    pieces = {n: [emb.vertex_map[x] for x in lab] for n, lab in F.pieces.items()}
    diffs = {n: [[emb.map_element(e) for e in row] for row in d]
             for n, d in F.diffs.items()}
    return LabeledComplex(big, pieces, diffs, "proj")


# ----------------------------------------------------------------------
# A_n-insertion and tacking


def insert_An(alg, x, n):
    """Replace vertex x by a chain x_0 -> ... -> x_n.

    Arrows into x go into x_0, arrows out of x leave x_n; relations
    passing through x get the chain spliced in, relations starting at x
    start at x_n, relations ending at x end at x_0.  The embedding sends
    x to x_n and arrows into x to the composite through the chain.
    """
    q = alg.quiver
    if x not in q.arrows_out:
        raise UnknownVertex("unknown vertex %r" % (x,))
    if n < 0:
        raise FamilyParameterError("insert needs n >= 0")
    chain = ["%s_%d" % (x, i) for i in range(n + 1)]
    while any(c in q.vertices for c in chain):
        chain = ["_" + c for c in chain]
    xis = []
    for i in range(1, n + 1):
        name = "xi_%s_%d" % (x, i)
        while name in q.arrow_by_name:
            name = "_" + name
        xis.append(name)
    vertices = [v for v in q.vertices if v != x] + chain
    arrows = []
    for a in q.arrows:
        s = chain[-1] if a.source == x else a.source
        t = chain[0] if a.target == x else a.target
        arrows.append(Arrow(a.name, s, t))
    for i, name in enumerate(xis):
        arrows.append(Arrow(name, chain[i], chain[i + 1]))
    newq = Quiver(vertices, arrows)

    def rewrite(p):
        names = []
        arrs = [q.arrow_by_name[a] for a in p.arrows]
        for k, a in enumerate(arrs):
            names.append(a.name)
            if a.target == x and k + 1 < len(arrs):
                names.extend(xis)
        return newq.path(names)

    rels = []
    for rel in alg.relations:
        terms = {}
        for p, c in rel.terms.items():
            terms[rewrite(p)] = c
        rels.append(Element(terms, alg.field))
    cap = max(default_cap(newq, rels), alg.length_cap + n * (alg.length_cap))
    big = build_algebra(newq, rels, cap, alg.field,
                        name="%s+A%d@%s" % (alg.name or "alg", n, x))
    vm = {v: v for v in q.vertices if v != x}
    vm[x] = chain[-1]
    ap = {}
    for a in q.arrows:
        if a.target == x:
            ap[a.name] = [a.name] + xis
        else:
            ap[a.name] = [a.name]
    return big, Embedding(alg, big, vm, ap)


def tack(alg, T, t, mult):
    """(T, t) tacked onto alg with multiplicities: disjoint union plus
    mult(x) arrows t -> x; relations unchanged."""
    if t not in T.arrows_out:
        raise UnknownVertex("unknown vertex %r" % (t,))
    for x, k in mult.items():
        if x not in alg.quiver.arrows_out:
            raise UnknownVertex("unknown vertex %r" % (x,))
        if k < 0:
            raise FamilyParameterError("multiplicity of %s is negative" % x)
    if T.arrows_out[t]:
        raise NotASink("%s is not a sink of the tacked quiver" % t)
    if not T.is_acyclic():
        raise NotAcyclic("tacked quiver must be acyclic")
    rename = {}
    for v in T.vertices:
        nv = v
        while nv in alg.quiver.vertices or nv in rename.values():
            nv = "t_" + nv
        rename[v] = nv
    arrow_rename = {}
    for a in T.arrows:
        na = a.name
        while na in alg.quiver.arrow_by_name or na in arrow_rename.values():
            na = "t_" + na
        arrow_rename[a.name] = na
    vertices = list(alg.quiver.vertices) + [rename[v] for v in T.vertices]
    arrows = list(alg.quiver.arrows) + \
        [Arrow(arrow_rename[a.name], rename[a.source], rename[a.target])
         for a in T.arrows]
    for xv in alg.quiver.vertices:
        for k in range(mult.get(xv, 0)):
            name = "n_%s_%s_%d" % (rename[t], xv, k)
            arrows.append(Arrow(name, rename[t], xv))
    newq = Quiver(vertices, arrows)
    # re-anchor relation paths in the new quiver (same arrow names)
    rels = [Element({newq.path(list(p.arrows)): c for p, c in r.terms.items()},
                    alg.field) for r in alg.relations]
    big = build_algebra(newq, rels, alg.length_cap + len(T.vertices) + 1,
                        alg.field, name=(alg.name or "alg") + "+tack")
    vm = {v: v for v in alg.quiver.vertices}
    ap = {a.name: [a.name] for a in alg.quiver.arrows}
    return big, Embedding(alg, big, vm, ap)


# ----------------------------------------------------------------------
# families


def _cycle_quiver(n):
    vs = [str(i) for i in range(1, n + 1)]
    arrs = [Arrow("a%d" % i, str(i), str(i % n + 1)) for i in range(1, n + 1)]
    return Quiver(vs, arrs)


def circular(n, rs, field=None, with_embedding=False):
    """C_n(r_1 < ... < r_t): oriented n-cycle with arrow-run relations
    between consecutive marked vertices (wrapping through n)."""
    field = field or QQ
    rs = list(rs)
    if not rs or any(not (1 <= r < n) for r in rs) or sorted(set(rs)) != rs:
        raise FamilyParameterError("need 1 <= r_1 < ... < r_t < n")
    q = _cycle_quiver(n)
    stops = rs + [n]
    rels = []
    for j in range(len(rs)):
        lo, hi = stops[j], stops[j + 1]
        run = ["a%d" % i for i in range(lo, hi + 1)]
        rels.append(Element({q.path(run): field.one()}, field))
    alg = build_algebra(q, rels, cap=2 * n + 2, field=field,
                        name="C_%d(%s)" % (n, ",".join(map(str, rs))))
    if not with_embedding:
        return alg
    small = cb(len(rs) + 1, field=field)
    vm = {str(i): str(rs[i - 1]) for i in range(1, len(rs) + 1)}
    vm[str(len(rs) + 1)] = str(n)
    ap = {"a%d" % i: ["a%d" % k for k in range(rs[i - 1], stops[i])]
          for i in range(1, len(rs) + 1)}
    ap["a%d" % (len(rs) + 1)] = ["a%d" % n] + ["a%d" % k for k in range(1, rs[0])]
    emb = Embedding(small, alg, vm, ap)
    return alg, emb


def cb(n, field=None):
    """CB_n = C_n(1, ..., n-1): all consecutive length-2 relations but one."""
    field = field or QQ
    if n < 2:
        raise FamilyParameterError("cb needs n >= 2")
    alg = circular(n, list(range(1, n)), field=field)
    alg.name = "CB_%d" % n
    return alg


def ci(d, field=None):
    """CI_d: oriented d-cycle with every length-2 relation (self-injective)."""
    field = field or QQ
    if d < 2:
        raise FamilyParameterError("ci needs d >= 2")
    q = _cycle_quiver(d)
    rels = [Element({q.path(["a%d" % i, "a%d" % (i % d + 1)]): field.one()}, field)
            for i in range(1, d + 1)]
    return build_algebra(q, rels, cap=4, field=field, name="CI_%d" % d)


def canonical(ps, lambdas, field=None):
    """Canonical algebra C(p; lambda): t arms from source to sink with
    relations arm_i = arm_2 - b_i arm_1 for i >= 3 (a_i = 1, b_3 = 1)."""
    field = field or QQ
    ps = list(ps)
    t = len(ps)
    if t < 2 or any(p < 2 for p in ps):
        raise FamilyParameterError("canonical needs t >= 2 arms of length >= 2")
    bs = {i + 3: field.parse(str(l)) for i, l in enumerate(lambdas)}
    if t >= 3:
        if len(bs) != t - 2:
            raise FamilyParameterError("need one lambda per arm beyond the second")
        if bs[3] != field.one():
            raise FamilyParameterError("normalization requires b_3 = 1")
        vals = list(bs.values())
        if not all(vals) or len({str(v) for v in vals}) != len(vals):
            raise FamilyParameterError("tube parameters must be distinct and nonzero")
    vertices = ["s", "t"]
    arrows = []
    arm_paths = []
    for i in range(1, t + 1):
        prev = "s"
        names = []
        for j in range(1, ps[i - 1] + 1):
            tgt = "t" if j == ps[i - 1] else "arm%d_%d" % (i, j)
            if tgt != "t":
                vertices.append(tgt)
            name = "x%d_%d" % (i, j)
            arrows.append(Arrow(name, prev, tgt))
            names.append(name)
            prev = tgt
        arm_paths.append(names)
    q = Quiver(vertices, arrows)
    rels = []
    for i in range(3, t + 1):
        terms = {q.path(arm_paths[i - 1]): field.one(),
                 q.path(arm_paths[1]): -field.one(),
                 q.path(arm_paths[0]): bs[i]}
        rels.append(Element(terms, field))
    cap = max(ps) + 2
    return build_algebra(q, rels, cap, field,
                         name="C(%s)" % ",".join(map(str, ps)))


def dda(r, n, m, field=None):
    """Lambda(r, n, m): oriented n-cycle with r consecutive length-2
    relations (starting at vertex 1) and an A_m tail tacked with
    multiplicity 1 at the last vertex inside the relation run.

    Returns (algebra, embedding of Lambda(r, n, 0))."""
    field = field or QQ
    if not (n >= 2 and 1 <= r < n and m >= 0):
        raise FamilyParameterError("dda needs n >= 2, 1 <= r < n, m >= 0")
    q = _cycle_quiver(n)
    rels = [Element({q.path(["a%d" % i, "a%d" % (i + 1)]): field.one()}, field)
            for i in range(1, r + 1)]
    base = build_algebra(q, rels, cap=2 * n + 2, field=field,
                         name="L(%d,%d,0)" % (r, n))
    if m == 0:
        return base, identity_embedding(base)
    tvs = ["t%d" % i for i in range(1, m + 1)]
    tarrs = [Arrow("b%d" % i, "t%d" % i, "t%d" % (i + 1)) for i in range(1, m)]
    T = Quiver(tvs, tarrs)
    attach = str(r + 1)
    big, emb = tack(base, T, "t%d" % m, {attach: 1})
    big.name = "L(%d,%d,%d)" % (r, n, m)
    return big, emb


def dda_small_corner(r, n, m, big=None):
    """The Lambda(r, r+1, m) corner of Lambda(r, n, m) and its embedding.

    The small cycle closes through the relation-free stretch
    r+1 -> r+2 -> ... -> n -> 1 of the big cycle.
    """
    if big is None:
        big, _ = dda(r, n, m)
    small, _ = dda(r, r + 1, m, field=big.field)
    vm = {str(i): str(i) for i in range(1, r + 2)}
    for v in small.quiver.vertices:
        if v.startswith("t"):
            vm[v] = v
    ap = {}
    for i in range(1, r + 1):
        ap["a%d" % i] = ["a%d" % i]
    ap["a%d" % (r + 1)] = ["a%d" % k for k in range(r + 1, n + 1)]
    for a in small.quiver.arrows:
        if a.name not in ap:
            ap[a.name] = [a.name]
    return small, big, Embedding(small, big, vm, ap)


def kronecker(k=2, field=None):
    field = field or QQ
    q = Quiver(["1", "2"], [Arrow("a%d" % i, "1", "2") for i in range(1, k + 1)])
    return build_algebra(q, [], cap=2, field=field, name="K_%d" % k)


def kronecker_quasi_simple(alg, lam, vertices=("1", "2"), arrows=("a1", "a2")):
    """M_lambda = (k => k; 1, lambda) supported on a Kronecker pair."""
    field = alg.field
    lam = field.parse(scalar_to_str(lam))
    dims = {vertices[0]: 1, vertices[1]: 1}
    maps = {arrows[0]: Matrix(1, 1, [[field.one()]], field),
            arrows[1]: Matrix(1, 1, [[lam]], field)}
    return Representation(alg, dims, maps)


def tensor_algebra(Q1, Q2, field=None):
    """Tensor product of two relation-free acyclic path algebras: product
    quiver with commutativity relations."""
    field = field or QQ
    for Q in (Q1, Q2):
        if not Q.is_acyclic():
            raise NotAcyclic("tensor factors must be acyclic")
    vertices = ["%s|%s" % (u, w) for u in Q1.vertices for w in Q2.vertices]
    arrows = []
    for a in Q1.arrows:
        for w in Q2.vertices:
            arrows.append(Arrow("%s|%s" % (a.name, w),
                                "%s|%s" % (a.source, w), "%s|%s" % (a.target, w)))
    for u in Q1.vertices:
        for b in Q2.arrows:
            arrows.append(Arrow("%s|%s" % (u, b.name),
                                "%s|%s" % (u, b.source), "%s|%s" % (u, b.target)))
    q = Quiver(vertices, arrows)
    rels = []
    for a in Q1.arrows:
        for b in Q2.arrows:
            p1 = q.path(["%s|%s" % (a.name, b.source), "%s|%s" % (a.target, b.name)])
            p2 = q.path(["%s|%s" % (a.source, b.name), "%s|%s" % (a.name, b.target)])
            rels.append(Element({p1: field.one(), p2: -field.one()}, field))
    return build_algebra(q, rels, len(Q1.vertices) + len(Q2.vertices) + 2,
                         field, name="tensor")


# ----------------------------------------------------------------------
# poset synthesis


def downset(elements, less, i):
    """iota(i) = {q <= i} including i (transitive closure of the input).
    Raises FamilyParameterError when the input relation has a cycle."""
    below = graphs.descendants(elements, [(b, a) for a, b in less])
    if below is None:
        raise FamilyParameterError("input relation is not a partial order")
    return {i} | below[i]


def synthesize_poset_algebra(elements, less):
    """One Kronecker copy per poset element, plus one tack vertex per
    element i with an arrow onto the sink of copy j exactly when
    i is not below-or-equal j.

    Returns (algebra, designated objects, expected signatures) where the
    designated object for i is the lambda=1 quasi-simple on copy i and
    its expected spherical-subcategory signature is all Kronecker
    vertices together with the tack vertices of elements below-or-equal i.
    """
    elements = list(elements)
    outside = {x for pair in less for x in pair} - set(elements)
    if outside:
        raise FamilyParameterError("less names non-elements %s"
                                   % sorted(outside))
    iotas = {i: downset(elements, less, i) for i in elements}
    vertices = []
    arrows = []
    for i in elements:
        src, snk = "%s''" % i, "%s'" % i
        vertices.append(src)
        vertices.append(snk)
        arrows.append(Arrow("k%sa" % i, src, snk))
        arrows.append(Arrow("k%sb" % i, src, snk))
    q = Quiver(vertices, arrows)
    alg = build_algebra(q, [], cap=2, name="poset-kron")
    for i in elements:
        T = Quiver(["t%s" % i], [])
        mult = {"%s'" % j: (1 if i not in iotas[j] else 0) for j in elements}
        alg, _ = tack(alg, T, "t%s" % i, mult)
    alg.name = "poset-synth"
    designated = []
    for i in elements:
        M = kronecker_quasi_simple(alg, 1, ("%s''" % i, "%s'" % i),
                                   ("k%sa" % i, "k%sb" % i))
        kron_vs = {"%s'" % j for j in elements} | {"%s''" % j for j in elements}
        sig = kron_vs | {"t%s" % j for j in iotas[i]}
        designated.append(("quasi:%s" % i, M, sig))
    return alg, designated, iotas


def quiver_isomorphic(q1, q2):
    """Structural equality of quivers (directed multigraph isomorphism)."""
    return graphs.isomorphic(
        q1.vertices, [(a.source, a.target) for a in q1.arrows],
        q2.vertices, [(a.source, a.target) for a in q2.arrows])
