"""Bounded complexes, resolutions, derived Hom, Nakayama functor.

Degree convention is cohomological: differentials raise degree, and
projective resolutions live in degrees <= 0.

Two complex flavours:

* ``BoundedComplex`` — graded Representations with ModuleMorphism
  differentials; supports cohomology, shifts, cones.
* ``LabeledComplex`` — formal sums of standard-module labels (projective
  or injective) with differentials whose entries are AlgebraElements.
  A "proj"-labeled complex is a perfect complex; the entry in position
  (i, j) of the differential out of degree n is an element of
  e_{x_j} A e_{y_i} and encodes the right-multiplication map
  P(x_j) -> P(y_i) (dually for injective labels).  Element-valued
  differentials exist precisely so the Nakayama functor can transport
  maps functorially: nakayama just swaps P-labels for I-labels.

Derived Hom is always computed with a perfect left argument.  A
bounded-above complex of projectives is K-projective, so homotopy classes
of chain maps compute derived Homs; ``chain_map_space`` returns H^s of
the total Hom complex together with representative chain maps.
"""

import random
from collections import defaultdict

from .algebra import Element, memoised
from .errors import (GlobalDimensionExceeded, NotChainMap, NotElementValued,
                     EngineInvariantViolation, SchemaError, UnknownVertex)
from .linalg import (Matrix, from_blocks, hstack, kernel_basis, rank, rref,
                     scalar_to_str, sparse_rank)
from .reps import (ModuleMorphism, Representation, direct_sum,
                   from_generators, standard_basis, standard_sum, zero_rep)

# Largest resolution length tried before GlobalDimensionExceeded.
RESOLUTION_BOUND = 40


# ----------------------------------------------------------------------
# rep-level complexes


class BoundedComplex:
    def __init__(self, alg, pieces, diffs, check=True):
        self.alg = alg
        self.pieces = {n: p for n, p in pieces.items() if p.total_dim() > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if n in self.pieces and (n + 1) in self.pieces and not d.is_zero():
                self.diffs[n] = d
        if check:
            self._validate()

    def _validate(self):
        for n, d in self.diffs.items():
            if d.source.dims != self.pieces[n].dims or d.target.dims != self.pieces[n + 1].dims:
                raise SchemaError("differential at degree %d has wrong endpoints" % n)
        for n in self.diffs:
            if n + 1 in self.diffs:
                comp = self.diffs[n + 1].compose(self.diffs[n])
                if not comp.is_zero():
                    raise SchemaError("d o d != 0 at degree %d" % n)

    def degrees(self):
        return sorted(self.pieces)

    def is_zero(self):
        return not self.pieces

    def piece(self, n):
        return self.pieces.get(n) or zero_rep(self.alg)

    def shift(self, s):
        """X[s]^n = X^{n+s}, differential scaled by (-1)^s."""
        sign = self.alg.field.from_int((-1) ** (s % 2))
        pieces = {n - s: p for n, p in self.pieces.items()}
        diffs = {n - s: d.scale(sign) for n, d in self.diffs.items()}
        return BoundedComplex(self.alg, pieces, diffs, check=False)

    def cohomology_dims(self):
        return {n: h for n, h in self._h() if h}

    def is_acyclic(self):
        """True when every cohomology group vanishes; stops at the first
        degree with cohomology."""
        return not any(h for _, h in self._h())

    def _h(self):
        """``_cohomology`` of this complex."""
        return _cohomology(
            {n: p.total_dim() for n, p in self.pieces.items()},
            lambda n: _rank_sum(self.diffs[n].mats if n in self.diffs else None))

    def total_dim(self):
        return sum(p.total_dim() for p in self.pieces.values())


def _cohomology(dims, rank_of):
    """Yield (n, dim H^n) in ascending degree for a complex whose pieces
    have dimension dims[n]: dim H^n = dims[n] - rank d^n - rank d^{n-1}.
    ``rank_of(n)``, the rank of d^n, is called once per degree, when that
    degree is reached, so a caller that stops early ranks no differential
    above it.  ``dims`` lists every degree with a nonzero piece, so rank
    d^{n-1} is the rank found at the listed degree m before n: when m is
    below n - 1, d^{n-1} leaves and d^m enters a zero piece, and both
    ranks are 0."""
    below = 0
    for n, dim in sorted(dims.items()):
        r = rank_of(n)
        yield n, dim - r - below
        below = r


def _rank_sum(mats):
    """Rank of a differential given by its per-vertex matrices, or 0 when
    ``mats`` is None (the differential is absent, so zero)."""
    return 0 if mats is None else sum(rank(m) for m in mats.values())


def stalk_complex(M):
    return BoundedComplex(M.alg, {0: M}, {}, check=False)


def complex_direct_sum(complexes):
    """Degreewise direct sum; each differential is block diagonal, and the
    block of a summand without a differential in that degree is zero."""
    assert complexes
    alg = complexes[0].alg
    degs = sorted({n for c in complexes for n in c.pieces})
    pieces, diffs = {}, {}
    for n in degs:
        pieces[n] = direct_sum([c.piece(n) for c in complexes])
    for n in degs:
        if n + 1 not in pieces:
            continue
        mats = {}
        for v in alg.quiver.vertices:
            blocks, r0, c0 = [], 0, 0
            for c in complexes:
                d = c.diffs.get(n)
                if d is not None:
                    blocks.append((r0, c0, d.mats[v], None))
                r0 += c.piece(n + 1).dims[v]
                c0 += c.piece(n).dims[v]
            mats[v] = from_blocks(r0, c0, blocks, alg.field)
        diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
    return BoundedComplex(alg, pieces, diffs, check=False)


class ChainMap:
    """Degree-0 chain map between BoundedComplexes."""

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {n: f for n, f in comps.items() if not f.is_zero()}
        if check:
            self._validate()

    def _validate(self):
        """d_Y f^n = f^{n+1} d_X in every degree.  A side with an absent
        factor is zero and is not multiplied out; a square with both sides
        zero holds."""
        X, Y = self.source, self.target
        for n in set(X.pieces) | set(Y.pieces):
            lhs = _compose_present(Y.diffs.get(n), self.comps.get(n))
            rhs = _compose_present(self.comps.get(n + 1), X.diffs.get(n))
            if lhs is None and rhs is None:
                continue
            for v in X.alg.quiver.vertices:
                if rhs is None:
                    bad = not lhs.mats[v].is_zero()
                elif lhs is None:
                    bad = not rhs.mats[v].is_zero()
                else:
                    bad = lhs.mats[v] != rhs.mats[v]
                if bad:
                    raise NotChainMap("square fails at degree %d vertex %s" % (n, v))


def _compose_present(g, h):
    """g after h, or None (the zero map) when either is absent."""
    return None if g is None or h is None else g.compose(h)


def _cone_mats(f, n):
    """Per-vertex matrices of the cone differential C^n -> C^{n+1},
    C^n = X^{n+1} + Y^n, with blocks [[-d_X^{n+1}, 0], [f^{n+1}, d_Y^n]];
    None when all three blocks are absent.  A present block is a nonzero
    morphism, so the differential is then nonzero."""
    X, Y = f.source, f.target
    dx, fn, dy = X.diffs.get(n + 1), f.comps.get(n + 1), Y.diffs.get(n)
    if dx is None and fn is None and dy is None:
        return None
    alg = X.alg
    minus_one = alg.field.from_int(-1)
    xr, xc = X.piece(n + 2).dims, X.piece(n + 1).dims
    yr, yc = Y.piece(n + 1).dims, Y.piece(n).dims
    mats = {}
    for v in alg.quiver.vertices:
        blocks = ((0, 0, dx, minus_one), (xr[v], 0, fn, None),
                  (xr[v], xc[v], dy, None))
        mats[v] = from_blocks(
            xr[v] + yr[v], xc[v] + yc[v],
            [(r0, c0, g.mats[v], c) for r0, c0, g, c in blocks if g is not None],
            alg.field)
    return mats


def _cone_degrees(f):
    return sorted({n - 1 for n in f.source.pieces} | set(f.target.pieces))


def cone(f):
    """Mapping cone of a chain map: C^n = X^{n+1} + Y^n, with the
    differential of ``_cone_mats``.  A block absent from ``X.diffs``,
    ``f.comps`` or ``Y.diffs`` is zero and is never built."""
    X, Y = f.source, f.target
    degs = _cone_degrees(f)
    pieces = {n: direct_sum([X.piece(n + 1), Y.piece(n)]) for n in degs}
    diffs = {}
    for n in degs:
        mats = _cone_mats(f, n)
        if mats is not None:
            diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
    return BoundedComplex(X.alg, pieces, diffs, check=False)


def is_quasi_iso(f):
    """True when the chain map f is a quasi-isomorphism, that is, when
    ``cone(f)`` is acyclic.  Ranks the cone's differentials
    (``_cone_mats``) as ``BoundedComplex.is_acyclic`` would, without
    building the cone's modules, whose arrow maps acyclicity never reads."""
    X, Y = f.source, f.target
    dims = {n: X.piece(n + 1).total_dim() + Y.piece(n).total_dim()
            for n in _cone_degrees(f)}
    return not any(h for _, h in _cohomology(
        dims, lambda n: _rank_sum(_cone_mats(f, n))))


# ----------------------------------------------------------------------
# labeled (element-valued) complexes


class LabeledComplex:
    """Complex of labeled standard modules with AlgebraElement differentials."""

    def __init__(self, alg, pieces, diffs, kind="proj", check=True):
        self.alg = alg
        self.kind = kind
        self.pieces = {n: list(lab) for n, lab in pieces.items() if lab}
        self.diffs = {n: d for n, d in diffs.items()
                      if n in self.pieces and (n + 1) in self.pieces}
        self._memo = {}
        if check:
            self._validate()

    def labels(self, n):
        return self.pieces.get(n, [])

    def degrees(self):
        return sorted(self.pieces)

    def is_zero(self):
        return not self.pieces

    def _validate(self):
        alg = self.alg
        for n, d in self.diffs.items():
            src, tgt = self.pieces[n], self.pieces[n + 1]
            if len(d) != len(tgt) or any(len(row) != len(src) for row in d):
                raise SchemaError("differential shape mismatch at degree %d" % n)
            for i, row in enumerate(d):
                for j, e in enumerate(row):
                    if e.terms:
                        eps = e.endpoints()
                        if eps is None or eps != (tgt[i], src[j]):
                            raise NotElementValued(
                                "entry (%d,%d) at degree %d is not in the right slice"
                                % (i, j, n))
        for n in self.diffs:
            if n + 1 not in self.diffs:
                continue
            d1, d2 = self.diffs[n], self.diffs[n + 1]
            for j in range(len(self.pieces[n])):
                col = [(i, row[j]) for i, row in enumerate(d1) if row[j].terms]
                for row2 in d2:
                    acc = alg.zero_element()
                    for i, e in col:
                        if row2[i].terms:
                            acc = acc + alg.multiply(e, row2[i])
                    if acc.terms:
                        raise SchemaError("d o d != 0 at degree %d (labeled)" % n)

    def shift(self, s):
        sign = self.alg.field.from_int((-1) ** (s % 2))
        pieces = {n - s: lab for n, lab in self.pieces.items()}
        diffs = {n - s: [[e.scale(sign) for e in row] for row in d]
                 for n, d in self.diffs.items()}
        return LabeledComplex(self.alg, pieces, diffs, self.kind, check=False)

    @memoised
    def to_rep(self):
        alg = self.alg
        field = alg.field
        pieces, orders, indexes = {}, {}, {}
        for n in self.degrees():
            pieces[n], orders[n], indexes[n] = standard_sum(
                alg, self.kind, self.labels(n))
        diffs = {}
        for n, d in self.diffs.items():
            src_order, tgt_order = orders[n], orders[n + 1]
            tgt_index = indexes[n + 1]
            mats = {}
            for v in alg.quiver.vertices:
                m = Matrix.zero(len(tgt_order[v]), len(src_order[v]), field)
                if self.kind == "proj":
                    # basis path p: x_j -> v maps to p * e in P(y_i)
                    for col, (j, p) in enumerate(src_order[v]):
                        for i, row in enumerate(d):
                            if row[j].terms:
                                for q, c in alg.multiply(p, row[j]).terms.items():
                                    m.entries[tgt_index[v][i, q]][col] = c
                else:
                    # dual of left multiplication: entry (q, p) is the
                    # coefficient of the I(x_j)-basis path p in e * q,
                    # q: v -> y_i, so each product e * q fills its row
                    src_index = indexes[n][v]
                    for r, (i, q) in enumerate(tgt_order[v]):
                        out = m.entries[r]
                        for j, e in enumerate(d[i]):
                            if e.terms:
                                for p, c in alg.multiply(e, q).terms.items():
                                    out[src_index[j, p]] = c
                mats[v] = m
            diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
        return BoundedComplex(alg, pieces, diffs, check=False)

    def total_rank(self):
        return sum(len(lab) for lab in self.pieces.values())


def _relabelled(F, kind):
    """F with the same labels and differential entries, read as ``kind``."""
    return LabeledComplex(F.alg, dict(F.pieces),
                          {n: [row[:] for row in d] for n, d in F.diffs.items()},
                          kind, check=False)


@memoised
def nakayama(F):
    """nu(F): relabel P(x) -> I(x); differential entries transport as duals
    of left multiplication.

    Built once per perfect complex, so the result and its ``to_rep()`` are
    shared: callers must not mutate them.
    """
    if F.kind != "proj":
        raise NotElementValued("nakayama needs a projective-labeled complex")
    return _relabelled(F, "inj")


def inverse_nakayama(G):
    if G.kind != "inj":
        raise NotElementValued("inverse_nakayama needs an injective-labeled complex")
    return _relabelled(G, "proj")


def tau(F):
    """tau = nu o [-1] followed by re-resolution to perfect form."""
    return perfectify(nakayama(F).to_rep().shift(-1))


# ----------------------------------------------------------------------
# minimal projective resolutions


@memoised
def minimal_projective_resolution(M):
    """Iterated projective covers; perfect complex in degrees -len..0.

    Computed once per module object, so the result is shared: callers must
    not mutate its pieces or diffs.  Raises GlobalDimensionExceeded if the
    syzygies do not vanish within ``RESOLUTION_BOUND`` steps; nothing is
    stored then.
    """
    return _cover_complex(stalk_complex(M))[0]


def _cover_complex(C):
    """(P, q): a projective-labeled complex P and a chain map q from P to
    the BoundedComplex C (degree -> ModuleMorphism from the direct sum of
    the projectives of P^n, which is P.to_rep().piece(n), to C^n) whose
    cone is acyclic.

    One projective cover per degree, descending from the top degree of C
    (Weibel, *An Introduction to Homological Algebra*, the projective
    resolution of a bounded complex).  With P^{n+1} and q^{n+1} built,
    P^n is the projective cover of

        F^n = {(b, c) in P^{n+1} + C^n : d_P b = 0, q b = d_C c},

    the kernel of Phi^n(b, c) = (d_P b, q b - d_C c), and a generator of
    P^n that maps to (b, c) gets d_P = b and q = c.  Then d_P d_P = 0
    because d_P b = 0, and q is a chain map because q b = d_C c.  The
    cone of q has differential (b, c) -> (-d_P b, q b + d_C c) on
    P^{n+1} + C^n.  A cocycle (b, c) in degree n has d_P b = 0 and
    q b = d_C (-c), so (b, -c) is in F^n and is the image of some y in
    P^n; then (b, c) is the cone differential of (-y, 0).  So the cone is
    acyclic.  F^n = 0 means P^n = 0, and the loop stops at the first such
    n below C; it raises GlobalDimensionExceeded when F^n != 0 for some
    n < min deg C - ``RESOLUTION_BOUND``.

    Per vertex, E^{n+1} = [d_P ; q] is the matrix of P^{n+1} into
    P^{n+2} + C^{n+1}, so Phi^n = [E^{n+1} | 0 ; -d_C^n], where d_C^n is
    zero when C has no differential in degree n.  Column (j, p)
    of E^n is the path p applied, one arrow at a time, to the vector of
    generator j in P^{n+1} + C^n (``reps.from_generators``).  For a stalk
    complex, Phi^n is the previous cover map followed by the inclusion of
    its syzygy, which has full column rank, so Phi^n has the reduced form
    of the cover map and this is the classical loop of covers and
    syzygies.

    The generators of P^n are picked from the top of F^n (Green, Solberg
    and Zacharia, *Minimal projective resolutions*, Trans. AMS 2001)
    without building F^n as a module.  At vertex v, K = ker Phi^n_v
    (the identity at the top degree) spans F^n_v, and the arrows into v
    map F^n onto the span of R = [A_a K_{source a}], A = P^{n+1} + C^n.
    The columns of K that are pivots of [R | K] are the generators with
    label v.  Since K is injective and R = K R' for the arrow maps R' of
    F^n, column i of K is independent of R and the earlier columns of K
    exactly when e_i is independent of R' and the earlier e_j: these
    are the basis vectors of a complement of rad F^n_v in F^n_v.  More
    than K.cols pivots would mean F^n is not arrow-stable.
    """
    alg = C.alg
    field = alg.field
    minus_one = field.from_int(-1)
    verts = alg.quiver.vertices
    pieces, diffs, q = {}, {}, {}
    if C.is_zero():
        return LabeledComplex(alg, pieces, diffs, "proj", check=False), q
    lo, n = C.degrees()[0], C.degrees()[-1]
    prev = None  # (P^{n+1} as a module, its summand order, E^{n+1})
    while True:
        Cn = C.piece(n)
        if prev is None:  # the top degree: Phi^n has no rows, F^n = C^n
            A = Cn
            kins = {v: Matrix.identity(Cn.dims[v], field) for v in verts}
        else:
            Prev, above, E = prev
            A = Prev if Cn.is_zero() else direct_sum([Prev, Cn])
            dC = C.diffs.get(n)
            kins = {}
            for v in verts:
                phi = E[v]
                if Cn.dims[v]:
                    blocks = [(0, 0, phi, None)]
                    if dC is not None:
                        m = dC.mats[v]
                        blocks.append((phi.rows - m.rows, phi.cols, m, minus_one))
                    phi = from_blocks(phi.rows, phi.cols + Cn.dims[v], blocks, field)
                kins[v] = kernel_basis(phi)
        if n < lo and all(K.cols == 0 for K in kins.values()):
            break
        if n < lo - RESOLUTION_BOUND:
            raise GlobalDimensionExceeded(RESOLUTION_BOUND,
                                          "resolving a module")
        labels, gens = [], []
        for v in verts:
            K = kins[v]
            R = [A.maps[a.name] * kins[a.source] for a in alg.quiver.arrows_in[v]]
            r = sum(m.cols for m in R)
            _, piv = rref(hstack(R + [K]))
            if len(piv) != K.cols:
                raise EngineInvariantViolation(
                    "F^%d is not arrow-stable at vertex %s" % (n, v))
            for p in piv:
                if p >= r:
                    labels.append(v)
                    gens.append(K.col(p - r))
        pieces[n] = labels
        if prev is not None:
            # the first rows of generator j are its coordinates (i, p) in P^{n+1}
            d = [[alg.zero_element() for _ in labels] for _ in pieces[n + 1]]
            for j, x in enumerate(labels):
                for (i, p), c in zip(above[x], gens[j]):
                    if c:
                        d[i][j] = d[i][j] + Element({p: c}, field)
            diffs[n] = d
        Pn, order, _ = standard_sum(alg, "proj", labels)
        E = from_generators(A, order, gens)
        q[n] = ModuleMorphism(Pn, Cn, {
            v: Matrix(Cn.dims[v], E[v].cols,
                      E[v].entries[A.dims[v] - Cn.dims[v]:], field)
            for v in verts}, check=False)
        prev = (Pn, order, E)
        n -= 1
    return LabeledComplex(alg, pieces, diffs, "proj"), q


def resolve(obj):
    """Perfect presentation of a Representation, BoundedComplex or
    LabeledComplex: a projective-labeled complex is returned as it is, an
    injective-labeled one is resolved through its representation."""
    if isinstance(obj, Representation):
        return minimal_projective_resolution(obj)
    if isinstance(obj, LabeledComplex):
        if obj.kind == "proj":
            return obj
        obj = obj.to_rep()
    return perfectify(obj)


# ----------------------------------------------------------------------
# Hom complexes


def as_rep_complex(G):
    if isinstance(G, Representation):
        return stalk_complex(G)
    if isinstance(G, LabeledComplex):
        return G.to_rep()
    return G


class HomComplexData:
    """Coordinates of the total complex Hom(F, G) for F perfect."""

    def __init__(self, F, G):
        if F.kind != "proj":
            raise NotElementValued("left Hom argument must be projective-labeled")
        self.F = F
        self.G = as_rep_complex(G)
        self.alg = F.alg

    def _layout(self, n):
        """(slots(n), offset of each slot (p, j), dim C^n)."""
        slots, offsets, size = [], {}, 0
        for p in self.F.degrees():
            Gp = self.G.pieces.get(p + n)
            if Gp is None:
                continue
            for j, x in enumerate(self.F.labels(p)):
                slots.append((p, j, x, Gp.dims[x]))
                offsets[p, j] = size
                size += Gp.dims[x]
        return slots, offsets, size

    def slots(self, n):
        """[(p, j, label, dim)] for C^n = sum_p sum_j G^{p+n}_{x_j}."""
        return self._layout(n)[0]

    def degree_range(self):
        if self.F.is_zero() or self.G.is_zero():
            return []
        fdeg = self.F.degrees()
        gdeg = self.G.degrees()
        return list(range(gdeg[0] - fdeg[-1], gdeg[-1] - fdeg[0] + 1))

    def _entries(self, n, src, tgt_off):
        """Yield (row, col, coeff) for each nonzero entry of the differential
        C^n -> C^{n+1}, each once, given the slots ``src`` of C^n and the
        slot offsets ``tgt_off`` of C^{n+1}.

        Slot (p, j) of C^n sends phi to d_G phi in slot (p, j) of C^{n+1}
        and to -(-1)^n phi d_F in the slots (p - 1, j2).  These are
        distinct slots, so no cell gets two blocks.  An entry c_1 q_1 + ...
        of d_F adds the cells of each path action q_i times -(-1)^n c_i
        into one table, so no scaled or summed action matrix is built."""
        sign = self.alg.field.from_int((-1) ** (n % 2 + 1))
        col0 = 0
        for (p, j, x, dim) in src:
            dg = self.G.diffs.get(p + n)
            if dg is not None:
                for r, row in enumerate(dg.mats[x].entries, tgt_off[p, j]):
                    for c, a in enumerate(row, col0):
                        if a:
                            yield r, c, a
            dprev = self.F.diffs.get(p - 1)
            if dprev is not None:
                Gp = self.G.pieces[p + n]
                for j2, e in enumerate(dprev[j]):
                    r0 = tgt_off.get((p - 1, j2))
                    if r0 is None or e.is_zero():
                        continue
                    cells = {}
                    for path, coeff in e.terms.items():
                        f = sign * coeff
                        for r, row in enumerate(Gp.path_action(path).entries, r0):
                            for c, a in enumerate(row, col0):
                                if a:
                                    v = cells.get((r, c))
                                    cells[r, c] = f * a if v is None else v + f * a
                    for (r, c), v in cells.items():
                        if v:
                            yield r, c, v
            col0 += dim

    def delta(self, n):
        """Matrix of the differential C^n -> C^{n+1}, scattered from its
        nonzero entries."""
        src, _, cols = self._layout(n)
        _, tgt_off, rows = self._layout(n + 1)
        M = Matrix.zero(rows, cols, self.alg.field)
        for r, c, v in self._entries(n, src, tgt_off):
            M.entries[r][c] = v
        return M


def hom_profile(F, G):
    """HomProfile: degree i -> dim Hom_D(F, G[i]); F perfect.

    Each differential is ranked from the rows its nonzero entries fill
    (``linalg.sparse_rank``); no dense differential is built, and one into
    or out of a zero space has rank 0."""
    data = HomComplexData(F, G)
    rng = data.degree_range()
    if not rng:
        return {}
    layouts = {n: data._layout(n) for n in range(rng[0], rng[-1] + 2)}
    field = data.alg.field

    def rank_of(n):
        src, _, cols = layouts[n]
        _, tgt_off, rows = layouts[n + 1]
        if not (rows and cols):
            return 0
        filled = defaultdict(dict)
        for r, c, v in data._entries(n, src, tgt_off):
            filled[r][c] = v
        return sparse_rank(filled.values(), field)

    return {n: h for n, h in _cohomology(
        {n: layouts[n][2] for n in rng}, rank_of) if h}


def chain_map_space(F, G, s):
    """Representatives of H^s Hom(F, G): chain maps F_rep -> G[s].

    Returns (dim, [ChainMap]) with ChainMaps from F.to_rep() to
    as_rep_complex(G).shift(s) (so each representative is an honest
    degree-0 chain map).
    """
    data = HomComplexData(F, G)
    Grep = data.G
    alg = data.alg
    dn = data.delta(s)
    K = kernel_basis(dn)
    dprev = data.delta(s - 1)
    # image columns of dprev, then pick kernel columns independent mod image
    stacked = hstack([dprev, K]) if dprev.cols else K
    _, pivots = rref(stacked)
    imcols = dprev.cols
    reps_idx = [p - imcols for p in pivots if p >= imcols]
    hdim = len(reps_idx)

    Fs = F.to_rep()
    Gs = Grep.shift(s)
    slots = data.slots(s)
    orders = {p: standard_basis(alg, "proj", F.labels(p))[0]
              for p in F.degrees()}
    chain_maps = []
    for ci in reps_idx:
        vec = K.col(ci)
        # the value of slot (p, j) is the image of generator j of F^p
        off = 0
        vals = {}
        for (p, j, x, d) in slots:
            vals[(p, j)] = vec[off:off + d]
            off += d
        comps = {}
        for p in F.degrees():
            Gp = Grep.piece(p + s)
            if Gp.is_zero():
                continue
            images = [vals[p, j] for j in range(len(F.labels(p)))]
            comps[p] = ModuleMorphism(Fs.piece(p), Gs.piece(p),
                                      from_generators(Gp, orders[p], images),
                                      check=False)
        chain_maps.append(ChainMap(Fs, Gs, comps, check=False))
    return hdim, chain_maps


ISO_TRIALS = 8
_ISO_SEED = 174


def iso_up_to_shift(F, Y, s):
    """Semi-decision of F[s] being isomorphic to Y in the derived category.

    F must be projective-labeled.  F[s] and Y are isomorphic iff some map
    F -> Y[-s] has an acyclic cone.  Returns True, False, or
    "not_witnessed" (candidate space of dim > 1 where no tested
    combination produced an acyclic cone).
    """
    Yrep = as_rep_complex(Y)
    if F.is_zero() and Yrep.is_zero():
        return True
    dim, cands = chain_map_space(F, Yrep, -s)
    for cm in cands:
        if is_quasi_iso(cm):
            return True
    if dim > 1:
        rng = random.Random(_ISO_SEED)
        for _ in range(ISO_TRIALS):
            coeffs = [rng.randint(-5, 5) for _ in cands]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            comb = _combine_chain_maps(
                cands, [F.alg.field.from_int(c) for c in coeffs])
            if is_quasi_iso(comb):
                return True
        return "not_witnessed"
    return False


def _combine_chain_maps(maps, coeffs):
    """The chain map sum of c * f over the pairs (c, f); a component absent
    from f is zero and adds nothing."""
    comps = {}
    for c, f in zip(coeffs, maps):
        for n, g in f.comps.items():
            g = g.scale(c)
            comps[n] = comps[n] + g if n in comps else g
    return ChainMap(maps[0].source, maps[0].target, comps, check=False)


# ----------------------------------------------------------------------
# perfectification of bounded complexes


def _unit_entry(d):
    """(i, j) of the first entry, row by row, of the element matrix ``d``
    that has a trivial-path term, or None.

    All terms of an entry are parallel, so such an entry joins two
    summands with one label x and lies in e_x A e_x."""
    for i, row in enumerate(d):
        for j, e in enumerate(row):
            if any(not p.arrows for p in e.terms):
                return i, j
    return None


def is_minimal(F):
    """True when every differential entry of F lies in the radical."""
    return all(_unit_entry(d) is None for d in F.diffs.values())


def _unit_inverse(alg, b):
    """Inverse of b = c (e_x + r) in e_x A e_x, c a nonzero scalar and r in
    the radical: c^-1 sum_k (-r)^k, a finite sum since r is nilpotent."""
    e = next(p for p in b.terms if not p.arrows)
    c_inv = alg.field.div(alg.field.one(), b.terms[e])
    minus_r = Element({p: -c * c_inv for p, c in b.terms.items() if p.arrows},
                      alg.field)
    total = alg.zero_element()
    power = alg.unit(e.source)
    while power.terms:
        total = total + power
        power = alg.multiply(power, minus_r)
    return total.scale(c_inv)


def _minimise(F):
    """Cancel the contractible summands of a projective-labeled complex.

    Gaussian elimination (Bar-Natan, *Fast Khovanov homology
    computations*, arXiv math/0606318): if the entry b = d^n[i][j]
    joining summand j of F^n to summand i of F^{n+1} is an isomorphism,
    F is homotopy equivalent to the complex without those two summands,
    in which d^n loses row i and column j and every other entry becomes
    d[l][k] - d[i][k] b^-1 d[l][j] (products in ``alg.multiply`` order),
    d^{n-1} loses row j and d^{n+1} column i.  Eliminating in degree n
    changes no other differential's entries, so one ascending pass over
    the degrees, eliminating the first unit entry (row by row) until none
    is left, ends with every entry in the radical.
    """
    alg = F.alg
    pieces = {n: list(lab) for n, lab in F.pieces.items()}
    diffs = {n: [row[:] for row in d] for n, d in F.diffs.items()}
    for n in sorted(diffs):
        d = diffs[n]
        pos = _unit_entry(d)
        while pos is not None:
            i, j = pos
            binv = _unit_inverse(alg, d[i][j])
            left = [(k, alg.multiply(e, binv))
                    for k, e in enumerate(d[i]) if k != j and e.terms]
            for ell, row in enumerate(d):
                if ell != i and row[j].terms:
                    for k, u in left:
                        row[k] = row[k] - alg.multiply(u, row[j])
            del d[i]
            for row in d:
                del row[j]
            del pieces[n][j], pieces[n + 1][i]
            if n - 1 in diffs:
                del diffs[n - 1][j]
            for row in diffs.get(n + 1, []):
                del row[i]
            pos = _unit_entry(d)
    return LabeledComplex(alg, pieces, diffs, F.kind)


def perfectify(C):
    """Minimal projective-labeled complex quasi-isomorphic to a
    BoundedComplex.

    ``_cover_complex`` covers C one degree at a time, from the top down,
    and returns the complex P with its map q to C.  The result is
    certified: q must be a chain map and its cone must be acyclic.

    The certified complex is then minimised (``_minimise``): every
    differential entry of the output lies in the radical, so the output
    is the minimal model, unique up to isomorphism.  An entry b of
    e_x A e_x whose trivial path e_x has a nonzero coefficient c is a
    unit: b = c (e_x + r) with r in the radical of e_x A e_x, which is
    nilpotent because the arrow ideal of the bound quiver algebra is, so
    b^-1 = c^-1 sum_k (-r)^k is a finite sum (``_unit_inverse``).  Right
    multiplication by b is then an isomorphism P(x) -> P(x), and the
    Gaussian-elimination lemma cancels the two summands it joins without
    changing the homotopy type.
    """
    P, q = _cover_complex(C)
    try:
        final = ChainMap(P.to_rep(), C, q, check=True)
    except NotChainMap as e:
        raise EngineInvariantViolation("perfectify map is not a chain map: %s" % e) from e
    if not is_quasi_iso(final):
        raise EngineInvariantViolation("perfectify result is not quasi-isomorphic")
    return _minimise(P)


# ----------------------------------------------------------------------
# duality, injective models and inverse translate


def dual_rep(M, op):
    """D(M): the dual of M as a module over the opposite algebra."""
    maps = {a.name: M.maps[a.name].transpose() for a in M.alg.quiver.arrows}
    return Representation(op, dict(M.dims), maps, check=False)


def dual_rep_complex(X, op):
    """D(X): dual complex over the opposite algebra, degrees negated."""
    pieces = {-n: dual_rep(X.piece(n), op) for n in X.degrees()}
    diffs = {}
    for n, d in X.diffs.items():
        src, tgt = pieces[-n - 1], pieces[-n]
        mats = {v: d.mats[v].transpose() for v in src.dims}
        diffs[-n - 1] = ModuleMorphism(src, tgt, mats, check=False)
    return BoundedComplex(op, pieces, diffs, check=False)


def _reverse_element(alg, e):
    """Transport an element of the opposite algebra back (reverse each path)."""
    out = alg.zero_element()
    q = alg.quiver
    for p, c in e.terms.items():
        rp = q.path(list(reversed(p.arrows))) if p.arrows else \
            q.trivial_path(p.source)
        out = out + alg.reduce_path(rp).scale(c)
    return out


def dual_of_op_perfect(P, alg):
    """D(P) for a projective-labeled complex P over alg's opposite: an
    injective-labeled complex over alg with negated degrees."""
    pieces = {-n: list(lab) for n, lab in P.pieces.items()}
    diffs = {}
    for n, d in P.diffs.items():
        src, tgt = P.pieces[n], P.pieces[n + 1]
        m = -n - 1
        dd = [[None] * len(tgt) for _ in src]
        for i in range(len(tgt)):
            for j in range(len(src)):
                dd[j][i] = _reverse_element(alg, d[i][j])
        diffs[m] = dd
    return LabeledComplex(alg, pieces, diffs, "inj")


def injective_model(X):
    """Injective-labeled complex quasi-isomorphic to X."""
    X = as_rep_complex(X)
    op = X.alg.opposite()
    P = perfectify(dual_rep_complex(X, op))
    return dual_of_op_perfect(P, X.alg)


def tau_inverse(F):
    """tau^{-1} = nu^{-1} o [1] on a perfect complex."""
    if not isinstance(F, LabeledComplex):
        raise NotElementValued("tau_inverse needs a projective-labeled complex")
    return inverse_nakayama(injective_model(F)).shift(1)


# ----------------------------------------------------------------------
# JSON serialization of labeled complexes


def complex_to_json(C):
    if not isinstance(C, LabeledComplex):
        raise NotElementValued("only labeled complexes serialize to JSON")
    out = {"kind": C.kind, "pieces": {}, "diffs": {}}
    for n in C.degrees():
        out["pieces"][str(n)] = list(C.labels(n))
    for n, d in sorted(C.diffs.items()):
        out["diffs"][str(n)] = [
            [[{"coeff": scalar_to_str(c), "path": list(p.arrows),
               "at": p.source}
              for p, c in sorted(e.terms.items(),
                                 key=lambda t: C.alg.quiver.path_sort_key(t[0]))]
             for e in row]
            for row in d]
    return out


def complex_from_json(alg, d):
    try:
        kind = d.get("kind", "proj")
        pieces, rawdiffs = d["pieces"], d.get("diffs", {})
        if kind not in ("proj", "inj"):
            raise SchemaError("complex 'kind' must be \"proj\" or \"inj\", "
                              "not %r" % (kind,))
        if not (isinstance(pieces, dict) and isinstance(rawdiffs, dict) and
                all(isinstance(lab, list) for lab in pieces.values())):
            raise SchemaError("complex 'pieces' must map degrees to label "
                              "lists, and 'diffs' must be an object")
        pieces = {int(n): [str(x) for x in lab] for n, lab in pieces.items()}
        unknown = set().union(*pieces.values()) - set(alg.quiver.vertices)
        if unknown:
            raise UnknownVertex("piece labels %s are not vertices"
                                % sorted(unknown))
        diffs = {}
        for n, rows in rawdiffs.items():
            n = int(n)
            if not (pieces.get(n) and pieces.get(n + 1)):
                raise SchemaError("differential at degree %d needs pieces in "
                                  "degrees %d and %d" % (n, n, n + 1))
            mat = []
            for row in rows:
                erow = []
                for terms in row:
                    t = {}
                    for term in terms:
                        at = term.get("at")
                        p = alg.quiver.path(
                            [str(x) for x in term["path"]],
                            source=str(at) if at is not None else None)
                        t[p] = t.get(p, alg.field.zero()) + \
                            alg.field.parse(str(term.get("coeff", "1")))
                    erow.append(Element(t, alg.field))
                mat.append(erow)
            diffs[n] = mat
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed complex file: %s" % e)
    try:
        return LabeledComplex(alg, pieces, diffs, kind)
    except NotElementValued as e:
        raise SchemaError("malformed complex file: %s" % e) from e
