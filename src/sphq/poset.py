"""Spherelike-poset assembly: signatures of spherical subcategories,
classification-backed poset construction for supported families, witness
verification, statistics and Hasse-diagram output."""

import itertools

from . import graphs
from .algebra import Element, memoised
from .constructions import (canonical, dda, dda_small_corner, induce,
                            synthesize_poset_algebra)
from .derived import (LabeledComplex, minimal_projective_resolution, resolve,
                      tau)
from .errors import (EngineInvariantViolation, GlobalDimensionExceeded,
                     IncompatibleKinds, SphqError, UnsupportedFamily,
                     WitnessFailed)
from .ktheory import euler_matrix, euler_pairing, k_class, vertex_order
from .linalg import Matrix
from .reps import Representation, simple_module
from .spherelike import (asphericality, candidate_list, classify_spherelike,
                         in_spherical_subcat, lazy_interval_modules)


class SubcatSignature:
    """Descriptor of a spherical subcategory.

    kind is one of "whole_category", "vertex_supported" (carries the set
    of vertices whose simples lie in the subcategory) or "classified"
    (carries an opaque component-label tuple from a family classification).
    """

    def __init__(self, kind, vertices=None, components=None):
        self.kind = kind
        self.vertices = frozenset(vertices) if vertices is not None else None
        self.components = tuple(components) if components is not None else None

    def __repr__(self):
        if self.kind == "vertex_supported":
            return "SubcatSignature(%s)" % sorted(self.vertices)
        if self.kind == "classified":
            return "SubcatSignature(%s)" % (self.components,)
        return "SubcatSignature(whole_category)"

    def to_json(self):
        d = {"kind": self.kind}
        if self.vertices is not None:
            d["vertices"] = sorted(self.vertices)
        if self.components is not None:
            d["components"] = list(self.components)
        return d


def compare(sig1, sig2):
    """Partial-order comparison: one of '<', '>', '=', 'incomparable'."""
    if sig1.kind == "whole_category" and sig2.kind == "whole_category":
        return "="
    if sig1.kind == "whole_category":
        return ">"
    if sig2.kind == "whole_category":
        return "<"
    if sig1.kind != sig2.kind:
        raise IncompatibleKinds("%s vs %s" % (sig1.kind, sig2.kind))
    if sig1.kind == "vertex_supported":
        if sig1.vertices == sig2.vertices:
            return "="
        if sig1.vertices < sig2.vertices:
            return "<"
        if sig1.vertices > sig2.vertices:
            return ">"
        return "incomparable"
    return "=" if sig1.components == sig2.components else "incomparable"


class Witness:
    """A test object W certifying non-membership/membership: the profile
    Hom^*(W, Q_{must_hit}) is nonzero while Hom^*(W, Q_{must_miss}) = 0."""

    def __init__(self, desc, obj, must_hit, must_miss):
        self.desc = desc
        self.obj = obj
        self.must_hit = must_hit
        self.must_miss = must_miss

    def __repr__(self):
        return "Witness(%s: in D_%s, not in D_%s)" % (
            self.desc, self.must_miss, self.must_hit)


class PosetNode:
    def __init__(self, name, desc, d, verdict, signature, obj=None, Q=None):
        self.name = name
        self.desc = desc
        self.d = d
        self.verdict = verdict
        self.signature = signature
        self.obj = obj
        self.Q = Q

    def is_whole(self):
        return self.signature.kind == "whole_category"


class SpherelikePoset:
    """Nodes with a strict order; every edge and incomparability carries
    witnesses that can be re-run against the engine."""

    def __init__(self, alg, family):
        self.alg = alg
        self.family = family
        self.nodes = {}
        self.order = []
        self.relation = set()
        self.witnesses = []
        self._memo = {}

    def add_node(self, node):
        self.nodes[node.name] = node
        self.order.append(node.name)

    def add_less(self, a, b):
        self.relation.add((a, b))

    def descendants(self):
        """{a: {b : a < b}} in the transitive closure of the relation."""
        desc = graphs.descendants(self.order, self.relation)
        if desc is None:
            raise EngineInvariantViolation("relation is not irreflexive")
        return desc

    def close_transitively(self):
        self.relation = {(a, b) for a, above in self.descendants().items()
                         for b in above}

    def less(self, a, b):
        return (a, b) in self.relation

    def covers(self):
        return sorted(graphs.covers(self.descendants()))

    @memoised
    def simples(self):
        """[(desc, minimal resolution)] of the simples, in vertex order."""
        return [("S:%s" % v, minimal_projective_resolution(
            simple_module(self.alg, v))) for v in self.alg.quiver.vertices]

    @memoised
    def contains(self, W, Q):
        """W in D_F = perp(Q_F), memoised per (W, Q) for this poset; Q is
        None for the whole category."""
        return Q is None or in_spherical_subcat(W, Q)

    def to_json(self):
        return {
            "family": list(self.family) if isinstance(self.family, tuple)
            else self.family,
            "nodes": [{"name": n.name, "desc": n.desc, "d": n.d,
                       "verdict": n.verdict,
                       "signature": n.signature.to_json()}
                      for n in (self.nodes[k] for k in self.order)],
            "less": sorted(self.relation),
            "stats": stats(self),
        }


def _witness(poset, hit, miss, tests):
    """The first (desc, W) of tests with W not in D_hit and W in D_miss."""
    Q_hit, Q_miss = poset.nodes[hit].Q, poset.nodes[miss].Q
    for desc, W in tests:
        if not poset.contains(W, Q_hit) and poset.contains(W, Q_miss):
            return Witness(desc, W, must_hit=hit, must_miss=miss)
    raise WitnessFailed("no witness in D_%s outside D_%s" % (miss, hit))


def _attach_witnesses(poset):
    """Edges try the simples; incomparabilities try the simples, then the
    node objects (a's own object is always a member of D_a)."""
    for (a, b) in poset.covers():
        poset.witnesses.append(_witness(poset, a, b, poset.simples()))
    tests = poset.simples() + [(poset.nodes[name].desc,
                                poset.nodes[name].obj)
                               for name in poset.order]
    for a, b in itertools.combinations(poset.order, 2):
        if poset.less(a, b) or poset.less(b, a):
            continue
        poset.witnesses.append(_witness(poset, b, a, tests))
        poset.witnesses.append(_witness(poset, a, b, tests))


def verify_edges(poset):
    """Re-run every witness without the build's memo; raises WitnessFailed
    on any divergence."""
    checked = 0
    for w in poset.witnesses:
        hit, miss = poset.nodes[w.must_hit], poset.nodes[w.must_miss]
        if hit.Q is None or in_spherical_subcat(w.obj, hit.Q):
            raise WitnessFailed("witness %s does not avoid D_%s"
                                % (w.desc, w.must_hit))
        if miss.Q is not None and not in_spherical_subcat(w.obj, miss.Q):
            raise WitnessFailed("witness %s is not inside D_%s"
                                % (w.desc, w.must_miss))
        checked += 1
    return {"checked": checked, "passed": checked}


# ----------------------------------------------------------------------
# node factories


def _classified_node(name, desc, obj_perf, components):
    report = classify_spherelike(obj_perf, desc)
    if not report.is_spherelike():
        raise EngineInvariantViolation("%s is not spherelike" % desc)
    if report.is_spherical():
        sig, Q = SubcatSignature("whole_category"), None
    else:
        sig = SubcatSignature("classified", components=components)
        Q = asphericality(obj_perf, report)
    return PosetNode(name, desc, report.d, report.verdict, sig,
                     obj=obj_perf, Q=Q)


def _two_term_candidates(alg):
    for a in alg.quiver.vertices:
        for b in alg.quiver.vertices:
            for p in alg.slice_basis(b, a):
                if not p.arrows:
                    continue
                e = Element({p: alg.field.one()}, alg.field)
                yield ("P(%s)<-%s-P(%s)" % (b, p.label(), a),
                       LabeledComplex(alg, {-1: [b], 0: [a]}, {-1: [[e]]},
                                      "proj", check=False))


def _search_candidates(alg, d_target):
    """The candidates of ``_find_spherelike`` in order, as (desc, K_0
    class, build): simples, then, when a degree is sought, interval
    modules of length at least 2, then two-term path complexes.  The
    length-1 interval P(v)/rad P(v) is S(v), already a candidate: it is the
    shared ``simple_module`` object, or P(v) when P(v) is simple.  build()
    returns the candidate; an interval's class is its dimension vector read
    off the radical spans, so its quotient is built only when build() is
    called."""
    def built(pairs):
        for desc, obj in pairs:
            yield desc, k_class(obj), lambda obj=obj: obj

    candidates = built(candidate_list(alg, "all_simples"))
    if d_target is None:
        return candidates
    order = vertex_order(alg)
    intervals = ((desc, [dims[w] for w in order], build)
                 for desc, dims, build in lazy_interval_modules(alg)
                 if not desc.endswith(",1"))
    return itertools.chain(candidates, intervals,
                           built(_two_term_candidates(alg)))


def _find_spherelike(alg, d_target=None):
    """Deterministic scan of ``_search_candidates`` for the first
    spherelike object of degree d_target.  With d_target None it looks for
    a spherical simple (the Y corner of a full-relation-run cycle algebra).
    A candidate F is skipped without being built or resolved when its
    chi(F, F) = [F]^T E [F] rules it out: Hom^*(F, F) = k + k[-d] gives
    chi(F, F) = 1 + (-1)^d, so 0 or 2 for a spherical object of any
    degree.  Returns the description and the perfect complex
    classification resolved."""
    try:
        E = euler_matrix(alg)
    except GlobalDimensionExceeded:
        # classify_spherelike certifies the same bound, so it would
        # refuse every candidate.
        candidates = ()
    else:
        candidates = _search_candidates(alg, d_target)
    values = {0, 2} if d_target is None else {1 + (-1) ** d_target}
    for desc, c, build in candidates:
        if euler_pairing(E, c, c) not in values:
            continue
        obj = build()
        try:
            rep = classify_spherelike(obj, desc)
        except SphqError:
            continue
        if (rep.is_spherical() if d_target is None
                else rep.is_spherelike() and rep.d == d_target):
            return desc, rep.complex
    if d_target is None:
        raise EngineInvariantViolation("no spherical simple found")
    raise EngineInvariantViolation(
        "no spherelike object of degree %d found" % d_target)


def _tau_orbit(F, count):
    out = [F]
    for _ in range(count - 1):
        out.append(tau(out[-1]))
    return out


# ----------------------------------------------------------------------
# families


def _build_dda_poset(r, n, m):
    big, _ = dda(r, n, m)
    poset = SpherelikePoset(big, ("dda", r, n, m))
    if (r, n, m) == (1, 2, 0):
        desc, X = _find_spherelike(big, 1 - r)
        node = _classified_node("D", desc, X, None)
        if not node.is_whole():
            raise EngineInvariantViolation("expected a spherical object")
        poset.add_node(node)
        poset.close_transitively()
        return poset

    y_spherical = (n == r + 1)
    x_spherical = (r == 1 and m == 0)

    # X-side objects: degree 1-r, tau-orbit of length m+r
    if not x_spherical or not y_spherical:
        dX, X0 = _find_spherelike(big, 1 - r)
    if not y_spherical:
        # Y-side from the corner algebra Lambda(r, r+1, m)
        small, _, emb = dda_small_corner(r, n, m, big=big)
        dYs, Ys = _find_spherelike(small)
        Y0 = induce(emb, Ys)
        dY = "induced:" + dYs
    if y_spherical and not x_spherical:
        # top element from the spherical Y, children are the X orbit
        dY, Y0 = _find_spherelike(big)
        top = _classified_node("D", dY, Y0, None)
        poset.add_node(top)
        for i, Xi in enumerate(_tau_orbit(X0, m + r), start=1):
            node = _classified_node(
                "X%d" % i, "tau^%d(%s)" % (i - 1, dX), Xi,
                ("A_%d" % (m - 1 if m else 0), "L(1,%d,0)" % n)
                if r == 1 else ("non-algebra",))
            poset.add_node(node)
            poset.add_less(node.name, "D")
    elif x_spherical and not y_spherical:
        top = _classified_node("D", dX, X0, None)
        poset.add_node(top)
        for i, Yi in enumerate(_tau_orbit(Y0, n - r), start=1):
            node = _classified_node(
                "Y%d" % i, "tau^%d(%s)" % (i - 1, dY), Yi,
                ("A_%d" % (n - r - 2), "L(%d,%d,%d)" % (r, r + 1, m)))
            poset.add_node(node)
            poset.add_less(node.name, "D")
    else:
        for i, Xi in enumerate(_tau_orbit(X0, m + r), start=1):
            poset.add_node(_classified_node(
                "X%d" % i, "tau^%d(%s)" % (i - 1, dX), Xi,
                ("X", str(i))))
        for i, Yi in enumerate(_tau_orbit(Y0, n - r), start=1):
            poset.add_node(_classified_node(
                "Y%d" % i, "tau^%d(%s)" % (i - 1, dY), Yi,
                ("Y", str(i))))
    poset.close_transitively()
    _attach_witnesses(poset)
    return poset


def _arm_value_module(alg, ps, cvals):
    """Module with one-dimensional spaces everywhere; all arrows act by 1
    except the last arrow of arm j, which acts by cvals[j-1]."""
    field = alg.field
    dims = {v: 1 for v in alg.quiver.vertices}
    maps = {}
    for i, p in enumerate(ps, start=1):
        for j in range(1, p + 1):
            val = cvals[i - 1] if j == p else field.one()
            maps["x%d_%d" % (i, j)] = Matrix(1, 1, [[val]], field)
    return Representation(alg, dims, maps)


def _build_canonical_poset(ps, lambdas):
    alg = canonical(ps, lambdas)
    field = alg.field
    t = len(ps)
    bs = {i + 3: field.parse(str(l)) for i, l in enumerate(lambdas)}
    poset = SpherelikePoset(alg, ("canonical", tuple(ps), tuple(lambdas)))

    def consistent(c1, c2):
        cs = [c1, c2] + [c2 - bs[k] * c1 for k in range(3, t + 1)]
        return cs

    # generic (homogeneous) parameter for the top element
    mu = None
    k = 2
    while mu is None:
        cand = consistent(field.one(), field.from_int(k))
        if all(cand):
            mu = cand
        k += 1
    top_obj = resolve(_arm_value_module(alg, ps, mu))
    top = _classified_node("D", "quasi:homogeneous", top_obj, None)
    if not top.is_whole():
        raise EngineInvariantViolation("homogeneous quasi-simple not spherical")
    poset.add_node(top)
    for i in range(1, t + 1):
        if i == 1:
            cs = consistent(field.zero(), field.one())
        elif i == 2:
            cs = consistent(field.one(), field.zero())
        else:
            cs = consistent(field.one(), bs[i])
        Fi = resolve(_arm_value_module(alg, ps, cs))
        rest = [ps[j] for j in range(t) if j != i - 1]
        node = _classified_node(
            "F%d" % i, "tube:%d" % i, Fi,
            ("C(%s)" % ",".join(map(str, rest)), "A_%d" % (ps[i - 1] - 2)))
        poset.add_node(node)
        poset.add_less(node.name, "D")
    poset.close_transitively()
    _attach_witnesses(poset)
    return poset


def _build_synthesized_poset(elements, less):
    alg, designated, iotas = synthesize_poset_algebra(elements, less)
    poset = SpherelikePoset(alg, ("synthesized", tuple(elements),
                                  tuple(sorted(less))))
    for (desc, M, expected_sig) in designated:
        node = _classified_node(desc.split(":", 1)[1], desc, resolve(M), None)
        if not node.is_whole():
            got = {v for v, (_, S) in zip(alg.quiver.vertices, poset.simples())
                   if poset.contains(S, node.Q)}
            if got != expected_sig:
                raise EngineInvariantViolation(
                    "signature mismatch for %s" % desc)
            node.signature = SubcatSignature("vertex_supported", vertices=got)
        poset.add_node(node)
    for i in elements:
        for j in elements:
            if i != j and i in iotas[j]:
                poset.add_less(str(i), str(j))
    poset.close_transitively()
    # cross-check the declared order against signature comparison
    for a in poset.order:
        for b in poset.order:
            if a == b:
                continue
            c = compare(poset.nodes[a].signature, poset.nodes[b].signature)
            want = "<" if poset.less(a, b) else \
                (">" if poset.less(b, a) else "incomparable")
            if c != want:
                raise EngineInvariantViolation(
                    "signature order disagrees with the input poset")
    _attach_witnesses(poset)
    return poset


def build_poset(family):
    """family: ("dda", r, n, m) | ("canonical", ps, lambdas) |
    ("synthesized", elements, less)."""
    kind = family[0]
    if kind == "dda":
        return _build_dda_poset(*family[1:4])
    if kind == "canonical":
        return _build_canonical_poset(family[1], family[2])
    if kind == "synthesized":
        return _build_synthesized_poset(family[1], family[2])
    raise UnsupportedFamily(str(kind))


# ----------------------------------------------------------------------
# statistics and output


def stats(poset):
    """Cardinality; height, the longest chain; width, the largest antichain,
    which by Dilworth's theorem is n minus a maximum matching of the
    bipartite graph {(a, b) : a < b}."""
    desc = poset.descendants()
    n = len(desc)
    return {"cardinality": n, "height": graphs.longest_chain(desc),
            "width": n - graphs.matching_size(desc)}


def hasse_dot(poset):
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for name in sorted(poset.order):
        node = poset.nodes[name]
        lines.append('  "%s" [label="%s\\nd=%s"];' % (name, node.desc, node.d))
    for (a, b) in sorted(poset.covers()):
        lines.append('  "%s" -> "%s";' % (a, b))
    lines.append("}")
    return "\n".join(lines)
