"""Bound quiver algebras kQ/I with a normal-form path basis.

The basis is computed by length-graded saturation: enumerate all paths up
to the length cap, span the ideal slice by all products path * relation *
path that fit under the cap, and row-reduce with columns ordered so that
longer (then lexicographically larger) paths become pivots.  Pivot paths
are reducible; the surviving paths form the basis.  Finite-dimensionality
is certified, not assumed: if any path of length == cap survives, the cap
does not witness nilpotency of the arrow ideal and the build fails.

The terms of a relation are parallel, so each product touches only paths
with one (source, target) pair.  The rows are sparse {column: coeff} dicts
grouped by that pair, and each group is reduced on its own by
``sparse_rref``.  The reduced echelon form is unique, so the union of the
groups' forms is the form of the whole matrix.

Composition convention (fixed once, used everywhere): multiply(a, b) means
"first b, then a" (function composition).  Paths are stored in traversal
order, so the concatenation underlying a*b is b.arrows + a.arrows.
Consequently e_x * p != 0 iff target(p) = x, and p * e_y != 0 iff
source(p) = y; the slice e_x A e_y is spanned by paths y -> x.
"""

import bisect
import functools
from dataclasses import dataclass

from .errors import (CapInsufficient, NotAdmissible, UnknownArrow,
                     UnknownVertex, SchemaError)
from .linalg import QQ, PrimeField, scalar_to_str, sparse_rref

_MISSING = object()


def memoised(fn):
    """Keep ``fn(owner, *args)`` in ``owner._memo`` under ``(fn, *args)``.

    The owners are ``BoundQuiverAlgebra``, ``Representation``,
    ``LabeledComplex`` and ``SpherelikePoset``; each declares
    ``self._memo = {}`` in ``__init__``, and nothing else reads it.  Rules:

    * A hit costs one dict lookup.  The lookup is a sentinel ``get``, so an
      exception raised by the build is not chained to a ``KeyError``.
    * Nothing is stored when the build raises: the next call builds again.
    * The result is shared by every caller, who must not mutate it.

    One cache lives outside it: ``corpus.load_fixture`` keeps
    ``functools.cache``, since it has no owner object.
    """
    @functools.wraps(fn)
    def wrapper(owner, *args):
        key = (fn,) + args
        out = owner._memo.get(key, _MISSING)
        if out is _MISSING:
            out = owner._memo[key] = fn(owner, *args)
        return out
    return wrapper


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Path:
    """A path in a quiver; arrows listed in traversal order.

    Immutable.  Its hash, ``hash((source, target, arrows))``, is computed
    once here: paths are dict and memo keys on every hot path, and a tuple
    does not cache its own hash."""

    __slots__ = ("source", "target", "arrows", "_hash")

    def __init__(self, source, target, arrows):
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "arrows", arrows)
        init(self, "_hash", hash((source, target, arrows)))

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def __delattr__(self, name):
        raise AttributeError("Path is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, o):
        if o.__class__ is not Path:
            return NotImplemented
        return (self._hash == o._hash and self.arrows == o.arrows
                and self.source == o.source and self.target == o.target)

    def __reduce__(self):
        return Path, (self.source, self.target, self.arrows)

    def __repr__(self):
        return "Path(source=%r, target=%r, arrows=%r)" % (
            self.source, self.target, self.arrows)

    def __len__(self):
        return len(self.arrows)

    def label(self):
        if not self.arrows:
            return "e_%s" % self.source
        return "*".join(self.arrows)


class Quiver:
    """Finite quiver; loops, parallel arrows and oriented cycles allowed."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise SchemaError("duplicate vertex ids")
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate arrow ids")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise SchemaError("arrow %s has unknown endpoint" % a.name)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrows_out = {v: [] for v in self.vertices}
        self.arrows_in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_out[a.source].append(a)
            self.arrows_in[a.target].append(a)

    def trivial_path(self, v):
        if v not in self.arrows_out:
            raise UnknownVertex("unknown vertex %r" % (v,))
        return Path(v, v, ())

    def path(self, arrow_names, source=None):
        """Build a path from arrow names in traversal order."""
        if not arrow_names:
            if source is None:
                raise SchemaError("trivial path needs a source vertex")
            return self.trivial_path(source)
        arrs = []
        for n in arrow_names:
            if n not in self.arrow_by_name:
                raise UnknownArrow(str(n))
            arrs.append(self.arrow_by_name[n])
        for x, y in zip(arrs, arrs[1:]):
            if x.target != y.source:
                raise SchemaError("arrows %s, %s do not compose" % (x.name, y.name))
        return Path(arrs[0].source, arrs[-1].target, tuple(a.name for a in arrs))

    def path_sort_key(self, p):
        return (len(p.arrows), tuple(self._arrow_index[a] for a in p.arrows))

    def is_acyclic(self):
        # Kahn peeling on the vertex set.
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self.arrows_out[v]:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        return seen == len(self.vertices)


class Element:
    """Finite k-linear combination of parallel-or-not paths."""

    def __init__(self, terms, field=QQ):
        self.field = field
        self.terms = {p: c for p, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __add__(self, o):
        t = dict(self.terms)
        for p, c in o.terms.items():
            t[p] = t.get(p, self.field.zero()) + c
        return Element(t, self.field)

    def __sub__(self, o):
        t = dict(self.terms)
        for p, c in o.terms.items():
            t[p] = t.get(p, self.field.zero()) - c
        return Element(t, self.field)

    def __neg__(self):
        return Element({p: -c for p, c in self.terms.items()}, self.field)

    def scale(self, c):
        return Element({p: c * x for p, x in self.terms.items()}, self.field)

    def __eq__(self, o):
        return isinstance(o, Element) and self.terms == o.terms

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = ["%s*%s" % (scalar_to_str(c), p.label()) for p, c in self.terms.items()]
        return "Element(%s)" % " + ".join(bits)

    def endpoints(self):
        """(source, target) if all terms are parallel, else None."""
        eps = {(p.source, p.target) for p in self.terms}
        if len(eps) == 1:
            return next(iter(eps))
        return None


def _up_to(paths, budget):
    """The paths of length <= budget in a list sorted longest first: a
    suffix of it."""
    return paths[bisect.bisect_left(paths, -budget, key=lambda p: -len(p)):]


class BoundQuiverAlgebra:
    """Finite-dimensional algebra kQ/I with a certified path basis."""

    def __init__(self, quiver, relations, length_cap, field=QQ, name=""):
        self.quiver = quiver
        self.relations = relations
        self.length_cap = length_cap
        self.field = field
        self.name = name
        self._memo = {}
        self._check_admissible()
        self._build_basis()

    # -- construction ---------------------------------------------------

    def _check_admissible(self):
        for rel in self.relations:
            if rel.is_zero():
                raise NotAdmissible("zero relation")
            if rel.endpoints() is None:
                raise NotAdmissible("relation terms are not parallel")
            for p in rel.terms:
                if len(p) < 2:
                    raise NotAdmissible("relation contains a path of length < 2")
                if len(p) > self.length_cap:
                    raise CapInsufficient(
                        "relation of length %d exceeds cap %d" % (len(p), self.length_cap))

    def _enumerate_paths(self):
        by_len = [[self.quiver.trivial_path(v) for v in self.quiver.vertices]]
        for ell in range(1, self.length_cap + 1):
            prev = by_len[-1]
            cur = []
            for p in prev:
                for a in self.quiver.arrows_out[p.target]:
                    cur.append(Path(p.source, a.target, p.arrows + (a.name,)))
            by_len.append(cur)
            if len(cur) > 200000:
                raise CapInsufficient("path count explosion before cap; algebra "
                                      "is likely infinite-dimensional")
        return [p for lst in by_len for p in lst]

    def _build_basis(self):
        q = self.quiver
        paths = self._enumerate_paths()
        # Longest (then lexicographically latest) paths first, so they are
        # the ones eliminated as pivots.
        paths.sort(key=q.path_sort_key, reverse=True)
        col_of = {p: i for i, p in enumerate(paths)}
        # Ideal slice rows: left_path * relation * right_path within the cap,
        # grouped by the (source, target) shared by all their paths.
        by_target = {}
        by_source = {}
        for p in paths:
            by_target.setdefault(p.target, []).append(p)
            by_source.setdefault(p.source, []).append(p)
        blocks = {}
        for rel in self.relations:
            s, t = rel.endpoints()
            budget = self.length_cap - max(len(p) for p in rel.terms)
            for right in _up_to(by_target.get(s, []), budget):
                for left in _up_to(by_source.get(t, []), budget - len(right)):
                    row = {col_of[Path(right.source, left.target,
                                       right.arrows + p.arrows + left.arrows)]: c
                           for p, c in rel.terms.items()}
                    blocks.setdefault((right.source, left.target), []).append(row)
        # reduction[pivot path] = {basis path: coeff}, both in column order
        reduction = {}
        for rows in blocks.values():
            reduced, pivots = sparse_rref(rows, self.field)
            for pc, row in zip(pivots, reduced):
                reduction[pc] = {paths[j]: -c for j, c in row.items() if j != pc}
        self._reduction = {paths[pc]: reduction[pc] for pc in sorted(reduction)}
        basis = [p for j, p in enumerate(paths) if j not in reduction]
        for p in basis:
            if len(p) >= self.length_cap:
                raise CapInsufficient(
                    "path %s of length %d not reducible at cap %d" %
                    (p.label(), len(p), self.length_cap))
        basis.sort(key=q.path_sort_key)
        self.basis = basis
        self.total_dim = len(basis)
        self.basis_index = {p: i for i, p in enumerate(basis)}
        self.basis_by_st = {}
        for p in basis:
            self.basis_by_st.setdefault((p.source, p.target), []).append(p)

    # -- normal forms and multiplication --------------------------------

    def unit(self, v):
        return Element({self.quiver.trivial_path(v): self.field.one()}, self.field)

    def zero_element(self):
        return Element({}, self.field)

    def _reduce_known(self, p):
        """Normal form of an enumerated path (length <= cap) as a term dict."""
        if p in self.basis_index:
            return {p: self.field.one()}
        red = self._reduction.get(p)
        if red is None:
            # Path beyond the cap can only appear through stepwise products,
            # which never exceed the cap; anything else is a bug.
            raise CapInsufficient("path %s escaped the enumeration" % p.label())
        return dict(red)

    def reduce_path(self, p):
        """Normal form of an arbitrary path as an Element (stepwise)."""
        vec = {self.quiver.trivial_path(p.source): self.field.one()}
        for name in p.arrows:
            a = self.quiver.arrow_by_name[name]
            nxt = {}
            for bp, c in vec.items():
                if bp.target != a.source:
                    raise SchemaError("path does not traverse the quiver")
                ext = Path(bp.source, a.target, bp.arrows + (a.name,))
                for rp, rc in self._reduce_known(ext).items():
                    nxt[rp] = nxt.get(rp, self.field.zero()) + c * rc
            vec = {k: v for k, v in nxt.items() if v}
        return Element(vec, self.field)

    def reduce_element(self, e):
        out = self.zero_element()
        for p, c in e.terms.items():
            out = out + self.reduce_path(p).scale(c)
        return out

    @memoised
    def mult_paths(self, p, q):
        """Normal form of p*q = "first q, then p" for basis paths."""
        if q.target != p.source:
            return self.zero_element()
        return self.reduce_path(Path(q.source, p.target, q.arrows + p.arrows))

    def multiply(self, a, b):
        """Product of normal-form elements; multiply(a, b) = first b, then a.

        The term products are summed into one dict; a coefficient that
        cancels to zero is dropped at once, so the terms keep the order of
        adding the products one at a time."""
        field = self.field
        if isinstance(a, Path):
            a = Element({a: field.one()}, field)
        if isinstance(b, Path):
            b = Element({b: field.one()}, field)
        out = {}
        for p, cp in a.terms.items():
            for q, cq in b.terms.items():
                c = cp * cq
                for r, cr in self.mult_paths(p, q).terms.items():
                    if r in out:
                        v = out[r] + c * cr
                        if v:
                            out[r] = v
                        else:
                            del out[r]
                    else:
                        out[r] = c * cr
        return Element(out, field)

    def slice_basis(self, x, y):
        """Basis of e_x A e_y: normal paths y -> x."""
        return self.basis_by_st.get((y, x), [])

    def element(self, path_coeffs):
        """Element from {path-or-arrow-name-tuple: coeff}, reduced."""
        terms = {}
        for p, c in path_coeffs.items():
            if not isinstance(p, Path):
                p = self.quiver.path(list(p))
            if not isinstance(c, (int,)):
                terms[p] = terms.get(p, self.field.zero()) + c
            else:
                terms[p] = terms.get(p, self.field.zero()) + self.field.from_int(c)
        return self.reduce_element(Element(terms, self.field))

    @memoised
    def opposite(self):
        """The opposite algebra (all arrows reversed), built once."""
        q = self.quiver
        oq = Quiver(list(q.vertices), [Arrow(a.name, a.target, a.source) for a in q.arrows])
        rels = []
        for rel in self.relations:
            terms = {}
            for p, c in rel.terms.items():
                terms[oq.path(list(reversed(p.arrows)))] = c
            rels.append(Element(terms, self.field))
        return BoundQuiverAlgebra(
            oq, rels, self.length_cap, self.field,
            name=self.name + "^op" if self.name else "")


def default_cap(quiver, relations):
    max_rel = max((max(len(p) for p in r.terms) for r in relations), default=2)
    return 2 + len(quiver.arrows) * max_rel


def build_algebra(quiver, relations, cap=None, field=QQ, name=""):
    if cap is None:
        cap = default_cap(quiver, relations)
    return BoundQuiverAlgebra(quiver, relations, cap, field, name=name)


# -- JSON (de)serialization ---------------------------------------------

def json_int(x, what):
    """x if it is a JSON integer; a bool, float or string is a SchemaError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError("%s must be an integer, not %r" % (what, x))
    return x


def field_from_json(d):
    kind = d.get("kind")
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(json_int(d["p"], "field 'p'"))
    raise SchemaError("unknown field kind %r" % (kind,))


def field_to_json(field):
    if field == QQ:
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def algebra_from_json(d, name=""):
    try:
        field = field_from_json(d.get("field", {"kind": "rational"}))
        qd = d["quiver"]
        quiver = Quiver([str(v) for v in qd["vertices"]],
                        [Arrow(str(a["id"]), str(a["from"]), str(a["to"]))
                         for a in qd["arrows"]])
        rels = []
        for rel in d.get("relations", []):
            terms = {}
            for term in rel:
                p = quiver.path([str(x) for x in term["path"]])
                terms[p] = terms.get(p, field.zero()) + field.parse(str(term.get("coeff", "1")))
            rels.append(Element(terms, field))
        cap = d.get("length_cap")
        if cap is not None:
            json_int(cap, "'length_cap'")
    except (AttributeError, KeyError, TypeError) as e:
        raise SchemaError("malformed algebra file: %s" % e)
    return build_algebra(quiver, rels, cap, field, name=name or d.get("name", ""))


def algebra_to_json(alg):
    return {
        "field": field_to_json(alg.field),
        "quiver": {
            "vertices": list(alg.quiver.vertices),
            "arrows": [{"id": a.name, "from": a.source, "to": a.target}
                       for a in alg.quiver.arrows],
        },
        "relations": [
            [{"coeff": scalar_to_str(c), "path": list(p.arrows)}
             for p, c in sorted(rel.terms.items(),
                                key=lambda t: alg.quiver.path_sort_key(t[0]))]
            for rel in alg.relations
        ],
        "length_cap": alg.length_cap,
    }
