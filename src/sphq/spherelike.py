"""Spherelike/spherical classification, asphericality, membership, scans.

An object F with derived endomorphism profile {0:1, d:1} is d-spherelike;
it is d-spherical when additionally nu F is isomorphic to F[d].  For
d != 0 the map space F -> nu F[-d] has dimension 1 by Serre duality, and
F is spherical exactly when the cone Q_F of its map vanishes, that is
when the map is a quasi-isomorphism.  The report keeps Q_F: the zero
complex when F is spherical, which is Q_F up to isomorphism, and else the
cone, written only then.  For d = 0 the degree-0 endomorphism ring
(dimension 2) decides between k[x]/x^2 (indecomposable) and k x k
(decomposable).  The spherical subcategory of F consists of the objects
A with Hom^*(A, Q_F) = 0.
"""

import functools
import itertools
import math
from fractions import Fraction

from .algebra import memoised
from .errors import (DZeroUnsupported, EngineInvariantViolation,
                     GlobalDimensionExceeded, NonUniqueMap, SchemaError,
                     UnsupportedCandidateSet)
from .linalg import (Matrix, _complement, _forward, _sub_multiple,
                     from_entries, rank)
from .reps import (Representation, generator_column, hom_basis,
                   simple_module, standard_basis)
from . import reps as _reps
from .derived import (RESOLUTION_BOUND, BoundedComplex, HomComplexData,
                      _cocycle_columns, _cocycle_vectors, _sum_columns,
                      chain_map_space, cone, hom_profile, is_quasi_iso,
                      iso_up_to_shift, minimal_projective_resolution,
                      nakayama, perfectify, resolve)


@memoised
def certify_finite_gldim(alg):
    """Global dimension via resolutions of all simples (memoised per
    algebra); raises GlobalDimensionExceeded when it is above
    ``RESOLUTION_BOUND``, before anything is memoised."""
    g = 0
    for v in alg.quiver.vertices:
        res = minimal_projective_resolution(simple_module(alg, v))
        if not res.is_zero():
            g = max(g, -min(res.degrees()))
    return g


class SpherelikeReport:
    def __init__(self, desc, profile, verdict, d=None, spherical_witnessed=None,
                 end_kind=None, field_sensitive=False, note="", complex=None):
        self.desc = desc
        self.profile = profile
        self.verdict = verdict
        self.d = d
        self.spherical_witnessed = spherical_witnessed
        self.end_kind = end_kind
        self.field_sensitive = field_sensitive
        self.note = note
        self.complex = complex  # perfect presentation used
        self.Q = None  # Q_F when d != 0: the zero complex if spherical

    def is_spherelike(self):
        return self.verdict in ("d_spherical", "properly_d_spherelike",
                                "decomposable_0_spherelike")

    def is_spherical(self):
        return self.verdict == "d_spherical"

    def to_json(self):
        out = {
            "object": self.desc,
            "profile": {str(k): v for k, v in sorted(self.profile.items())},
            "verdict": self.verdict,
        }
        if self.d is not None:
            out["d"] = self.d
        if self.end_kind is not None:
            out["end_kind"] = self.end_kind
        if self.field_sensitive:
            out["field_sensitive"] = True
        if self.spherical_witnessed == "not_witnessed":
            out["spherical_witnessed"] = "not_witnessed"
        if self.note:
            out["note"] = self.note
        return out

    def __repr__(self):
        return "SpherelikeReport(%s, %s, d=%r)" % (self.desc, self.verdict, self.d)


def _degree0_end_structure(F):
    """(alpha, beta) with phi^2 = alpha*id + beta*phi in H^0 End(F).

    Needs dim H^0 End(F) = 2.  The Hom complex Hom(F, F_rep) is laid out
    once, in degrees -1, 0 and 1: the candidates are the coordinate
    vectors of its degree-0 cohomology (``derived._cocycle_vectors``), and
    id has a 1 at the generator column of each slot.  One
    ``linalg._forward`` pass takes the columns of d^{-1}, then id and the
    candidates with a 1 in the extra column n = dim C^0 (id) or n + 1
    (candidates).  phi is the first candidate independent of id modulo
    the image: its row is a pivot row left of n.  phi o phi sends
    generator j of F^p to phi^p of the value of phi on it: the value is a
    vector in the ``standard_basis`` coordinates of F^p_x, and phi^p of
    it is summed from phi's columns (``derived._cocycle_columns``,
    ``_sum_columns``), so no chain map is built.  Reducing
    phi o phi left of n leaves -alpha and -beta in columns n and n + 1,
    unique as id and phi are independent mod image.
    """
    alg = F.alg
    field = alg.field
    one, z = field.one(), field.zero()
    data = HomComplexData(F, F.to_rep())
    layouts = {k: data._layout(k) for k in (-1, 0, 1)}
    cands = _cocycle_vectors(data, 0, layouts)
    if len(cands) != 2:
        raise EngineInvariantViolation(
            "H^0 End(F) has dim %d, not 2" % len(cands))
    slots, offsets, n = layouts[0]
    ident = {}
    for p, j, x, _ in slots:
        index = standard_basis(alg, "proj", F.labels(p))[1]
        ident[offsets[p, j] + generator_column(index, j, x)] = one
    rows = [{**ident, n: one}] + [{**vec, n + 1: one} for vec in cands]
    image = data._rows(-1, layouts, by_column=True).values()
    pivots = _forward(itertools.chain(image, rows), field)
    led = {id(row) for pc, row in pivots.items() if pc < n}
    phi = next((vec for vec, row in zip(cands, rows[1:]) if id(row) in led),
               None)
    if phi is None:
        raise EngineInvariantViolation(
            "no candidate of H^0 End(F) is independent of id")
    q = _cocycle_columns(data, 0, offsets, phi)
    row = {}
    for p, j, x, d in slots:
        if p in q:  # else phi^p, and so its value, is zero
            off = offsets[p, j]
            value = {k - off: c for k, c in phi.items() if off <= k < off + d}
            row.update((i + off, a) for i, a in
                       _sum_columns(value, q[p][x]).items())
    while row and min(row) < n:
        pc = min(row)
        if pc not in pivots:
            raise EngineInvariantViolation(
                "phi o phi is not in the span of id and phi")
        _sub_multiple(row, row[pc], pivots[pc])
    return -row.get(n, z), -row.get(n + 1, z)


def _is_rational_square(x):
    f = Fraction(x)
    if f < 0:
        return False
    n, d = f.numerator, f.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def classify_spherelike(obj, desc="object"):
    """SpherelikeReport for a module, bounded complex or perfect complex.

    The profile is H^* Hom(F, X), where F = ``resolve(obj)`` and X is the
    object F resolves: the module, the bounded complex, or the
    representation of an injective-labeled complex.  F is a bounded
    complex of projectives and F -> X a quasi-isomorphism, so
    H^i Hom(F, F) = H^i Hom(F, X) (Weibel, An Introduction to Homological
    Algebra, 10.4), and the Hom complex has size |F| dim X and needs no
    representation of F.  Only a projective-labeled input, which is F
    itself, is profiled as Hom(F, F).  ``F.to_rep()`` is built only where
    it is a Hom argument: by the degree-0 End structure.  For d != 0, F is
    spherical when the map F -> nu F[-d] that ``chain_map_space`` gives is
    a quasi-isomorphism onto the representation of nu F[-d] that its Hom
    complex read (``is_quasi_iso``); Q_F is then the zero complex, and
    otherwise the ``cone`` of that map.
    """
    F = resolve(obj)
    alg = F.alg
    certify_finite_gldim(alg)
    prof = hom_profile(F, obj)
    total = sum(prof.values())
    rep = SpherelikeReport(desc, prof, "not_spherelike", complex=F)
    if total == 1 and prof.get(0) == 1:
        rep.note = "exceptional"
        return rep
    if total != 2 or prof.get(0) not in (1, 2):
        return rep
    if prof.get(0) == 2 and len(prof) == 1:
        d = 0
    else:
        others = [k for k in prof if k != 0]
        if len(others) != 1 or prof[others[0]] != 1 or prof.get(0) != 1:
            return rep
        d = others[0]
    rep.d = d
    if d == 0:
        alpha, beta = _degree0_end_structure(F)
        disc = beta * beta + alg.field.from_int(4) * alpha
        if not disc:
            rep.end_kind = "k[x]/x^2"
            iso = iso_up_to_shift(F, nakayama(F), 0)
            rep.spherical_witnessed = iso
            rep.verdict = "d_spherical" if iso is True else "properly_d_spherelike"
        else:
            rep.end_kind = "k x k"
            if alg.field.characteristic == 0 and not _is_rational_square(disc):
                rep.field_sensitive = True
            rep.verdict = "decomposable_0_spherelike"
        return rep
    N = nakayama(F)
    dim, cands = chain_map_space(F, N, -d)
    if dim != 1:
        raise EngineInvariantViolation(
            "Hom(F, nu F[-d]) has dim %d; Serre duality gives 1" % dim)
    target = N.to_rep().shift(-d)
    rep.spherical_witnessed = is_quasi_iso(F, target, cands[0])
    if not rep.spherical_witnessed:
        rep.verdict = "properly_d_spherelike"
        rep.Q = cone(F, target, cands[0])
        return rep
    if d < 0:
        raise EngineInvariantViolation(
            "spherical object with negative d=%d over finite global dimension" % d)
    rep.verdict = "d_spherical"
    rep.Q = BoundedComplex(alg, {}, {})
    return rep


def asphericality(F, report):
    """Q_F from F's classification ``report``: the cone of the unique map
    F -> nu F[-d], or the zero complex when F is spherical."""
    if not report.is_spherelike():
        raise NonUniqueMap("object is not spherelike; no canonical map")
    if report.d == 0:
        raise DZeroUnsupported("asphericality for d = 0 is not computed")
    return report.Q


def in_spherical_subcat(A, Q):
    """True iff Hom^*(A, Q) = 0, i.e. A lies in the spherical subcategory."""
    Aperf = resolve(A)
    return hom_profile(Aperf, Q) == {}


def _radical_spans(alg, v):
    """(P(v), spans): spans[l - 1][w] lists {coordinate: coeff} vectors
    that are a basis of rad^l P(v)_w in the path basis of P(v)_w, for
    l = 1 .. L - 1, where L is the Loewy length of P(v) (rad^L P(v) = 0).

    rad^{l+1} P(v)_w is the span of P(v)_a rad^l P(v)_u over the arrows
    a: u -> w in quiver order, starting from the unit vectors, and its
    basis is the images independent of those before them (``_complement``),
    none where rad^l P(v)_w is already 0, since rad^{l+1} P(v) lies in it.
    These are the pivot columns of the images, which iterating
    ``top_and_radical`` and composing the radical inclusions yields.
    """
    P = _reps.projective_module(alg, v)
    field = alg.field
    cur = {w: [{i: field.one()} for i in range(n)] for w, n in P.dims.items()}
    spans = []
    while True:
        nxt = {}
        for w, prev in cur.items():
            images = [P.maps[a.name].apply(vec)
                      for a in alg.quiver.arrows_in[w] if prev
                      for vec in cur[a.source]]
            nxt[w] = _complement((), images, field)[0]
        if not any(nxt.values()):
            return P, spans
        spans.append(nxt)
        cur = nxt


def _interval(P, span):
    """P(v)/rad^l P(v), the quotient of P = P(v) by ``span`` (an entry of
    ``_radical_spans``).  Where the span is 0 or all of P_w, the section
    and projection that ``_quotient_data`` would return are written down:
    the identity twice, or the empty maps."""
    field = P.alg.field
    sects, projs = {}, {}
    for w, vecs in span.items():
        n = P.dims[w]
        if not vecs:
            sects[w] = projs[w] = Matrix.identity(n, field)
        elif len(vecs) == n:
            sects[w] = Matrix.zero(n, 0, field)
            projs[w] = Matrix.zero(0, n, field)
        else:
            A = from_entries(n, len(vecs),
                             ((i, k, c) for k, vec in enumerate(vecs)
                              for i, c in vec.items()), field)
            sects[w], projs[w], _ = _reps._quotient_data(A)
    return _reps._quotient_rep(P, sects, projs)[0]


def interval_module(alg, v, ell):
    """P(v)/rad^ell P(v) for 1 <= ell <= L, the Loewy length of P(v); the
    length-L interval is the shared ``projective_module`` object and, when
    1 < L, the length-1 interval P(v)/rad P(v) is the shared
    ``simple_module`` object S(v).  None when ell is out of range.  Builds
    only vertex v's spans."""
    P, spans = _radical_spans(alg, v)
    if not 1 <= ell <= len(spans) + 1:
        return None
    if ell == len(spans) + 1:
        return P
    return simple_module(alg, v) if ell == 1 else _interval(P, spans[ell - 1])


def interval_modules(alg):
    """[("interval:v,l", P(v)/rad^l P(v))], vertices in quiver order and
    l = 1 .. L for each.

    For Nakayama algebras these are exactly the interval modules (one
    module per vertex-interval of paths).
    """
    return [(desc, build()) for desc, _, build in lazy_interval_modules(alg)]


def lazy_interval_modules(alg):
    """Yield ("interval:v,l", dims, build) in ``interval_modules`` order:
    dims[w] = dim P(v)_w - dim rad^l P(v)_w, the dimension vector of
    P(v)/rad^l P(v) read off the radical spans, and build() makes the
    module.  A caller can so look at the dimension vector before the
    quotient is built, and vertex v's spans are built when its first
    interval is asked for.  The length-L interval is P(v) and, when
    1 < L, the length-1 interval is S(v), as in ``interval_module``."""
    for v in alg.quiver.vertices:
        P, spans = _radical_spans(alg, v)
        for ell, span in enumerate(spans, start=1):
            yield ("interval:%s,%d" % (v, ell),
                   {w: P.dims[w] - len(vecs) for w, vecs in span.items()},
                   functools.partial(simple_module, alg, v) if ell == 1
                   else functools.partial(_interval, P, span))
        yield ("interval:%s,%d" % (v, len(spans) + 1), dict(P.dims),
               lambda P=P: P)


def candidate_list(alg, descriptor, dim_bound=None):
    if descriptor == "all_simples":
        return [("S:%s" % v, simple_module(alg, v)) for v in alg.quiver.vertices]
    if descriptor == "all_interval_modules":
        return interval_modules(alg)
    if descriptor == "all_indecomposables_up_to_dimvector":
        return _indecomposables_up_to(alg, dim_bound)
    raise UnsupportedCandidateSet(str(descriptor))


def _indecomposables_up_to(alg, dim_bound):
    """Exhaustive enumeration over a prime field; refused over the rationals."""
    if alg.field.characteristic == 0:
        raise UnsupportedCandidateSet(
            "all_indecomposables_up_to_dimvector requires a prime field "
            "(finite enumeration)")
    if dim_bound is None or dim_bound < 0:
        raise UnsupportedCandidateSet(
            "all_indecomposables_up_to_dimvector needs a bound >= 0, got %r"
            % (dim_bound,))
    p = alg.field.characteristic
    verts = alg.quiver.vertices
    out = []
    seen = []
    for dims in itertools.product(*(range(0, dim_bound + 1) for _ in verts)):
        if sum(dims) == 0:
            continue
        dv = dict(zip(verts, dims))
        shapes = [(a, dv[a.target] * dv[a.source]) for a in alg.quiver.arrows]
        total = sum(s for _, s in shapes)
        if p ** total > 200000:
            raise UnsupportedCandidateSet("enumeration too large (p^%d matrices)" % total)
        for flat in itertools.product(range(p), repeat=total):
            maps = {}
            idx = 0
            for a, sz in shapes:
                ent = []
                for i in range(dv[a.target]):
                    row = [alg.field.from_int(flat[idx + i * dv[a.source] + j])
                           for j in range(dv[a.source])]
                    ent.append(row)
                idx += sz
                maps[a.name] = Matrix(dv[a.target], dv[a.source], ent, alg.field)
            try:
                M = Representation(alg, dv, maps)
            except SchemaError:
                continue
            if not _is_indecomposable_finite(M):
                continue
            if any(_iso_modules_finite(M, N) for _, N in seen):
                continue
            desc = "indec:%s#%d" % (",".join(str(d) for d in dims), len(seen))
            seen.append((desc, M))
            out.append((desc, M))
    return out


def _combinations(homs, what):
    """Every combination sum c_i f_i of a nonempty hom basis over GF(p), the
    coefficients (c_i) in ``itertools.product`` order; refused above 4096."""
    field = homs[0].source.alg.field
    p = field.characteristic
    if p ** len(homs) > 4096:
        raise UnsupportedCandidateSet("%s too large to enumerate" % what)
    for coeffs in itertools.product(range(p), repeat=len(homs)):
        f = None
        for c, e in zip(coeffs, homs):
            part = e.scale(field.from_int(c))
            f = part if f is None else f + part
        yield f


def _is_indecomposable_finite(M):
    """Over a finite field: End(M) local iff every endo is nilpotent or unit."""
    ends = hom_basis(M, M)
    if not ends:
        return False
    total = M.total_dim()
    for f in _combinations(ends, "endomorphism ring"):
        # nilpotency / invertibility vertexwise
        ranks = {v: rank(f.mats[v]) for v in M.dims}
        invertible = all(ranks[v] == M.dims[v] for v in M.dims)
        if invertible:
            continue
        g = f
        for _ in range(total):
            g = g.compose(f)
        if not all(g.mats[v].is_zero() for v in M.dims):
            return False
    return True


def _iso_modules_finite(M, N):
    if M.dims != N.dims:
        return False
    homs = hom_basis(M, N)
    if not homs:
        return False
    for f in _combinations(homs, "hom space"):
        if all(rank(f.mats[v]) == M.dims[v] for v in M.dims):
            return True
    return False


def scan(alg, descriptor, dim_bound=None):
    """Classify every candidate; deterministic order; unresolvable
    candidates are reported as skipped, not fatal."""
    out = []
    for desc, M in candidate_list(alg, descriptor, dim_bound):
        try:
            out.append(classify_spherelike(M, desc=desc))
        except GlobalDimensionExceeded:
            r = SpherelikeReport(desc, {}, "skipped",
                                 note="resolution exceeded bound %d"
                                 % RESOLUTION_BOUND)
            out.append(r)
    return out


def fractional_cy_check(F, r, s):
    """True iff nu^r F is isomorphic to F[s] (re-resolving between steps)."""
    F = resolve(F)
    G = F
    for _ in range(r):
        G = perfectify(nakayama(G).to_rep())
    return iso_up_to_shift(F, G, s) is True
