"""Spherelike-poset assembly: signatures of spherical subcategories,
classification-backed poset construction for supported families, witness
verification, statistics and Hasse-diagram output."""

import functools
import itertools

from .algebra import Element
from .constructions import (canonical, dda, dda_small_corner, induce,
                            synthesize_poset_algebra)
from .derived import (DEFAULT_BOUND, LabeledComplex, hom_profile,
                      minimal_projective_resolution, resolve, tau)
from .errors import (EngineInvariantViolation, IncompatibleKinds, SphqError,
                     UnsupportedFamily, WitnessFailed)
from .linalg import QQ, Matrix
from .reps import Representation, simple_module
from .spherelike import asphericality, classify_spherelike, interval_modules


class SubcatSignature:
    """Descriptor of a spherical subcategory.

    kind is one of "whole_category", "vertex_supported" (carries the set
    of vertices whose simples lie in the subcategory) or "classified"
    (carries an opaque component-label tuple from a family classification).
    """

    def __init__(self, kind, vertices=None, components=None, provenance=""):
        self.kind = kind
        self.vertices = frozenset(vertices) if vertices is not None else None
        self.components = tuple(components) if components is not None else None
        self.provenance = provenance

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

    def __init__(self, desc, obj, must_hit, must_miss=None):
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

    def add_node(self, node):
        self.nodes[node.name] = node
        self.order.append(node.name)

    def add_less(self, a, b):
        self.relation.add((a, b))

    def close_transitively(self):
        changed = True
        while changed:
            changed = False
            for (a, b) in list(self.relation):
                for (c, d) in list(self.relation):
                    if b == c and (a, d) not in self.relation:
                        self.relation.add((a, d))
                        changed = True
        for (a, b) in self.relation:
            if a == b:
                raise EngineInvariantViolation("relation is not irreflexive")

    def less(self, a, b):
        return (a, b) in self.relation

    def covers(self):
        out = []
        for (a, b) in sorted(self.relation):
            if not any(self.less(a, c) and self.less(c, b)
                       for c in self.nodes):
                out.append((a, b))
        return out

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


def _member(W_perf, Q):
    return hom_profile(W_perf, Q) == {}


def _vertex_signature(alg, Q, bound=DEFAULT_BOUND):
    out = set()
    for v in alg.quiver.vertices:
        R = minimal_projective_resolution(simple_module(alg, v), bound)
        if _member(R, Q):
            out.add(v)
    return out


def _edge_witness(poset, lower, upper):
    """W not in D_lower, W in D_upper (both checked on verification)."""
    alg = poset.alg
    nl, nu = poset.nodes[lower], poset.nodes[upper]
    for v in alg.quiver.vertices:
        if nl.signature.kind == "vertex_supported" and \
                v in nl.signature.vertices:
            continue
        R = minimal_projective_resolution(simple_module(alg, v))
        if _member(R, nl.Q):
            continue
        if nu.Q is not None and not _member(R, nu.Q):
            continue
        return Witness("S:%s" % v, R, must_hit=lower, must_miss=upper)
    raise WitnessFailed("no witness for edge %s < %s" % (lower, upper))


def _incomparability_witness(poset, a, b):
    """W in D_a but not in D_b, certifying D_a not contained in D_b."""
    alg = poset.alg
    na, nb = poset.nodes[a], poset.nodes[b]
    for v in alg.quiver.vertices:
        R = minimal_projective_resolution(simple_module(alg, v))
        if _member(R, na.Q) and not _member(R, nb.Q):
            return Witness("S:%s" % v, R, must_hit=b, must_miss=a)
    # fall back to defining objects of poset nodes (a's own object is
    # always a member of D_a)
    for name in poset.order:
        W = poset.nodes[name].obj
        if W is None:
            continue
        if _member(W, na.Q) and not _member(W, nb.Q):
            return Witness(poset.nodes[name].desc, W, must_hit=b, must_miss=a)
    raise WitnessFailed("no witness separating %s from %s" % (a, b))


def _attach_witnesses(poset):
    names = poset.order
    for (a, b) in poset.covers():
        poset.witnesses.append(_edge_witness(poset, a, b))
    for a, b in itertools.combinations(names, 2):
        if poset.less(a, b) or poset.less(b, a):
            continue
        poset.witnesses.append(_incomparability_witness(poset, a, b))
        poset.witnesses.append(_incomparability_witness(poset, b, a))


def verify_edges(poset):
    """Re-run every witness; raises WitnessFailed on any divergence."""
    checked = 0
    for w in poset.witnesses:
        hit = poset.nodes[w.must_hit]
        if hit.Q is None or _member(w.obj, hit.Q):
            raise WitnessFailed("witness %s does not avoid D_%s"
                                % (w.desc, w.must_hit))
        if w.must_miss is not None:
            miss = poset.nodes[w.must_miss]
            if miss.Q is not None and not _member(w.obj, miss.Q):
                raise WitnessFailed("witness %s is not inside D_%s"
                                    % (w.desc, w.must_miss))
        checked += 1
    return {"checked": checked, "passed": checked}


# ----------------------------------------------------------------------
# node factories


def _classified_node(name, desc, obj_perf, components, provenance, bound=DEFAULT_BOUND):
    report = classify_spherelike(obj_perf, desc, bound)
    if not report.is_spherelike():
        raise EngineInvariantViolation("%s is not spherelike" % desc)
    if report.is_spherical():
        sig = SubcatSignature("whole_category", provenance=provenance)
        return PosetNode(name, desc, report.d, report.verdict, sig,
                         obj=obj_perf, Q=None)
    Q = asphericality(obj_perf, report, bound)
    sig = SubcatSignature("classified", components=components,
                          provenance=provenance)
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


def _find_spherelike(alg, d_target, bound=DEFAULT_BOUND):
    """Deterministic scan for a spherelike object of the requested degree:
    simples and interval modules first, then two-term path complexes."""
    cands = []
    for v in alg.quiver.vertices:
        cands.append(("S:%s" % v, simple_module(alg, v)))
    cands.extend(interval_modules(alg))
    for desc, M in cands:
        try:
            rep = classify_spherelike(M, desc, bound)
        except SphqError:
            continue
        if rep.is_spherelike() and rep.d == d_target:
            return desc, resolve(M, bound)
    for desc, C in _two_term_candidates(alg):
        try:
            rep = classify_spherelike(C, desc, bound)
        except SphqError:
            continue
        if rep.is_spherelike() and rep.d == d_target:
            return desc, C
    raise EngineInvariantViolation(
        "no spherelike object of degree %d found" % d_target)


def _tau_orbit(F, count, bound=DEFAULT_BOUND):
    out = [F]
    for _ in range(count - 1):
        out.append(tau(out[-1], bound))
    return out


# ----------------------------------------------------------------------
# families


def _build_dda_poset(r, n, m, field=None, bound=DEFAULT_BOUND):
    big, _ = dda(r, n, m, field=field)
    poset = SpherelikePoset(big, ("dda", r, n, m))
    if (r, n, m) == (1, 2, 0):
        desc, X = _find_spherelike(big, 1 - r, bound)
        node = _classified_node("D", desc, X, None, "all spherelike spherical")
        if not node.is_whole():
            raise EngineInvariantViolation("expected a spherical object")
        poset.add_node(node)
        poset.close_transitively()
        return poset

    y_spherical = (n == r + 1)
    x_spherical = (r == 1 and m == 0)

    # X-side objects: degree 1-r, tau-orbit of length m+r
    if not x_spherical or not y_spherical:
        dX, X0 = _find_spherelike(big, 1 - r, bound)
    if not y_spherical:
        # Y-side from the corner algebra Lambda(r, r+1, m)
        small, _, emb = dda_small_corner(r, n, m, big=big, field=field)
        dYs, Ys = _find_y_corner(small, bound)
        Y0 = induce(emb, Ys)
        dY = "induced:" + dYs
    if y_spherical and not x_spherical:
        # top element from the spherical Y, children are the X orbit
        dY, Y0 = _find_y_corner(big, bound)
        top = _classified_node("D", dY, Y0, None, "spherical Y")
        poset.add_node(top)
        for i, Xi in enumerate(_tau_orbit(X0, m + r, bound), start=1):
            node = _classified_node(
                "X%d" % i, "tau^%d(%s)" % (i - 1, dX), Xi,
                ("A_%d" % (m - 1 if m else 0), "L(1,%d,0)" % n)
                if r == 1 else ("non-algebra",),
                "X-orbit")
            poset.add_node(node)
            poset.add_less(node.name, "D")
    elif x_spherical and not y_spherical:
        top = _classified_node("D", dX, X0, None, "spherical X")
        poset.add_node(top)
        for i, Yi in enumerate(_tau_orbit(Y0, n - r, bound), start=1):
            node = _classified_node(
                "Y%d" % i, "tau^%d(%s)" % (i - 1, dY), Yi,
                ("A_%d" % (n - r - 2), "L(%d,%d,%d)" % (r, r + 1, m)),
                "Y-orbit")
            poset.add_node(node)
            poset.add_less(node.name, "D")
    else:
        for i, Xi in enumerate(_tau_orbit(X0, m + r, bound), start=1):
            poset.add_node(_classified_node(
                "X%d" % i, "tau^%d(%s)" % (i - 1, dX), Xi,
                ("X", str(i)), "X-orbit"))
        for i, Yi in enumerate(_tau_orbit(Y0, n - r, bound), start=1):
            poset.add_node(_classified_node(
                "Y%d" % i, "tau^%d(%s)" % (i - 1, dY), Yi,
                ("Y", str(i)), "Y-orbit"))
    poset.close_transitively()
    _attach_witnesses(poset)
    return poset


def _find_y_corner(alg, bound=DEFAULT_BOUND):
    """The spherical simple of a full-relation-run cycle algebra."""
    for v in alg.quiver.vertices:
        desc = "S:%s" % v
        M = simple_module(alg, v)
        try:
            rep = classify_spherelike(M, desc, bound)
        except SphqError:
            continue
        if rep.is_spherical():
            return desc, resolve(M, bound)
    raise EngineInvariantViolation("no spherical simple found")


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


def _build_canonical_poset(ps, lambdas, field=None, bound=DEFAULT_BOUND):
    field = field or QQ
    alg = canonical(ps, lambdas, field=field)
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
    top_obj = resolve(_arm_value_module(alg, ps, mu), bound)
    top = _classified_node("D", "quasi:homogeneous", top_obj, None,
                           "homogeneous tube quasi-simple")
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
        Fi = resolve(_arm_value_module(alg, ps, cs), bound)
        rest = [ps[j] for j in range(t) if j != i - 1]
        node = _classified_node(
            "F%d" % i, "tube:%d" % i, Fi,
            ("C(%s)" % ",".join(map(str, rest)), "A_%d" % (ps[i - 1] - 2)),
            "exceptional tube mouth")
        poset.add_node(node)
        poset.add_less(node.name, "D")
    poset.close_transitively()
    _attach_witnesses(poset)
    return poset


def _build_synthesized_poset(elements, less, field=None, bound=DEFAULT_BOUND):
    alg, designated, iotas = synthesize_poset_algebra(elements, less,
                                                      field=field)
    poset = SpherelikePoset(alg, ("synthesized", tuple(elements),
                                  tuple(sorted(less))))
    for (desc, M, expected_sig) in designated:
        name = desc.split(":", 1)[1]
        obj = resolve(M, bound)
        report = classify_spherelike(obj, desc, bound)
        if not report.is_spherelike():
            raise EngineInvariantViolation("%s is not spherelike" % desc)
        if report.is_spherical():
            sig = SubcatSignature("whole_category", provenance="poset synthesis")
            node = PosetNode(name, desc, report.d, report.verdict, sig,
                             obj=obj, Q=None)
        else:
            Q = asphericality(obj, report, bound)
            got = _vertex_signature(alg, Q, bound)
            if got != expected_sig:
                raise EngineInvariantViolation(
                    "signature mismatch for %s" % desc)
            sig = SubcatSignature("vertex_supported", vertices=got,
                                  provenance="poset synthesis")
            node = PosetNode(name, desc, report.d, report.verdict, sig,
                             obj=obj, Q=Q)
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


def build_poset(family, field=None, bound=DEFAULT_BOUND):
    """family: ("dda", r, n, m) | ("canonical", ps, lambdas) |
    ("synthesized", elements, less)."""
    kind = family[0]
    if kind == "dda":
        return _build_dda_poset(*family[1:4], field=field, bound=bound)
    if kind == "canonical":
        return _build_canonical_poset(family[1], family[2], field=field,
                                      bound=bound)
    if kind == "synthesized":
        return _build_synthesized_poset(family[1], family[2], field=field,
                                        bound=bound)
    raise UnsupportedFamily(str(kind))


# ----------------------------------------------------------------------
# statistics and output


def stats(poset):
    names = list(poset.order)
    n = len(names)
    height = 1 if names else 0
    # longest chain by dynamic programming over the strict order
    @functools.lru_cache(maxsize=None)
    def chain_from(a):
        best = 1
        for b in names:
            if poset.less(a, b):
                best = max(best, 1 + chain_from(b))
        return best

    for a in names:
        height = max(height, chain_from(a))
    width = 0
    for k in range(1, n + 1):
        for combo in itertools.combinations(names, k):
            if all(not poset.less(a, b) and not poset.less(b, a)
                   for a, b in itertools.combinations(combo, 2)):
                width = max(width, k)
    return {"cardinality": n, "height": height, "width": width}


def hasse_dot(poset):
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for name in sorted(poset.order):
        node = poset.nodes[name]
        lines.append('  "%s" [label="%s\\nd=%s"];' % (name, node.desc, node.d))
    for (a, b) in sorted(poset.covers()):
        lines.append('  "%s" -> "%s";' % (a, b))
    lines.append("}")
    return "\n".join(lines)
