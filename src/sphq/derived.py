"""Bounded complexes, resolutions, derived Hom, Nakayama functor.

Degree convention is cohomological: differentials raise degree, and
projective resolutions live in degrees <= 0.

Two complex flavours:

* ``BoundedComplex`` — graded Representations with ModuleMorphism
  differentials; supports shifts.
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
of chain maps compute derived Homs.  ``hom_profile`` and
``_cocycle_vectors`` read the differentials of the Hom complex only as
their nonzero entries (``HomComplexData._rows``); neither builds a dense
matrix to reduce.

A map q from a projective-labeled complex P to a BoundedComplex C has one
format: q[n][v] lists, for each ``standard_basis`` coordinate of P^n_v in
order, its image in C^n_v as a {row: coeff} dict of nonzero coefficients.
The cover loop of resolutions and ``perfectify`` (``_cover_complex``)
writes its map in it, and so do ``_cocycle_columns`` for a vector of the
Hom complex and ``chain_map_space``.  ``is_quasi_iso(P, C, q)`` is the one
test of a map's cone, and checks the map's squares on the columns it
ranks: ``perfectify``'s certificate (``_certify``), ``iso_up_to_shift``
and classification's Q_F test call it, and it is the only acyclicity test
in ``sphq``.  ``cone(P, C, q)`` writes the cone from the same columns
where it is kept: Q_F when that test answers False, and criterion 07's
cone; no dense chain map is built.
"""

import random
from collections import defaultdict

from .algebra import Element, Path, memoised
from .errors import (GlobalDimensionExceeded, NotChainMap, NotElementValued,
                     EngineInvariantViolation, SchemaError, UnknownVertex)
from .linalg import (_complement, _kernel_vectors, _reduce, from_entries,
                     null_space, scalar_to_str, sparse_rank)
from .reps import (ModuleMorphism, Representation, direct_sum,
                   standard_basis, standard_sum, zero_rep)

# Largest resolution length tried before GlobalDimensionExceeded.
RESOLUTION_BOUND = 40


# ----------------------------------------------------------------------
# rep-level complexes


class BoundedComplex:
    """Graded Representations with ModuleMorphism differentials, taken as
    given: nothing is checked (the tests' check is
    ``tests/reference.py::check_complex``)."""

    def __init__(self, alg, pieces, diffs):
        self.alg = alg
        self.pieces = {n: p for n, p in pieces.items() if p.total_dim() > 0}
        self._memo = {}
        self.diffs = {}
        for n, d in diffs.items():
            if n in self.pieces and (n + 1) in self.pieces and not d.is_zero():
                self.diffs[n] = d

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
        return BoundedComplex(self.alg, pieces, diffs)

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


def stalk_complex(M):
    return BoundedComplex(M.alg, {0: M}, {})


class ChainMap:
    """Degree-0 chain map between BoundedComplexes, with its dense
    chain-map check.  ``sphq`` never builds one: it stays as the tests'
    reference (``tests/reference.py::dense_chain_map``) and because
    perfbench/tracer.py looks ``ChainMap._validate`` up in this class body
    as a boundary, and goes together with that boundary."""

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


def cone(P, C, q):
    """Mapping cone of the chain map q from the projective-labeled complex
    P to the BoundedComplex C, in the format of ``_cover_complex``: pieces
    P^{n+1} + C^n, P^{n+1} the ``standard_sum`` of its labels, and at each
    vertex v the differential [[-d_P^{n+1}, 0], [q^{n+1}, d_C^n]], written
    by one ``from_entries`` from the columns that ``is_quasi_iso`` ranks:
    those of d_P^{n+1} (``_diff_columns``), those of q^{n+1} with their
    rows moved down by dim P^{n+2}_v, and those of d_C^n
    (``_rep_diff_columns``) moved right by dim P^{n+1}_v.  A degree
    absent from q, P.diffs and C.diffs gets no differential, and
    ``BoundedComplex`` drops a zero one."""
    alg = P.alg
    field = alg.field
    minus_one = field.from_int(-1)
    degs = sorted({n - 1 for n in P.pieces} | set(C.pieces))
    tops = {n: standard_sum(alg, "proj", P.labels(n + 1))[0] for n in degs}
    pieces = {n: direct_sum([tops[n], C.piece(n)]) for n in degs}
    diffs = {}
    for n in degs:
        up, dP, dC = q.get(n + 1), n + 1 in P.diffs, n in C.diffs
        if not dP and up is None and not dC:
            continue
        below, right = tops[n + 1].dims, tops[n].dims
        mats = {}
        for v in alg.quiver.vertices:
            cells = [(r, k, minus_one * c) for k, col in
                     enumerate(_diff_columns(P, n + 1, v) if dP else ())
                     for r, c in col.items()]
            cells += [(r + below[v], k, c) for k, col in
                      enumerate(up[v] if up else ()) for r, c in col.items()]
            cells += [(r + below[v], k + right[v], c) for k, col in
                      enumerate(_rep_diff_columns(C, n, v) if dC else ())
                      for r, c in col.items()]
            mats[v] = from_entries(pieces[n + 1].dims[v], pieces[n].dims[v],
                                   cells, field)
        diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats)
    return BoundedComplex(alg, pieces, diffs)


def is_quasi_iso(P, C, q):
    """True when the chain map q from the projective-labeled complex P to
    the BoundedComplex C, in the format of ``_cover_complex``, has an
    acyclic cone, and False when it has not; raises
    EngineInvariantViolation when a square of q that the walk below
    reaches fails, so q is no chain map.  A degree absent from q, P.diffs
    or C.diffs is a zero map.

    The cone has pieces P^{n+1} + C^n and the differential
    [[-d_P^{n+1}, 0], [q^{n+1}, d_C^n]].  Swapping the two block rows and
    negating one changes no rank, so each vertex ranks
    [[q^{n+1}, d_C^n], [d_P^{n+1}, 0]] by its columns
    (``linalg.sparse_rank``, the rank of the transpose, which consumes
    them): copies of those of d_C^n (``_rep_diff_columns``), and for each
    coordinate k of P^{n+1}_v column k of q^{n+1} with column k of
    d_P^{n+1} below it, its rows moved down by dim C^{n+1}_v.  d_P's
    columns are written from P's own entries (``_diff_columns``).  The same two columns first give the
    square d_C^{n+1} q^{n+1} = q^{n+2} d_P^{n+1} on coordinate k, both
    sides summed from columns (``_sum_columns``): those of d_C^{n+1} over
    the q column, and those of q^{n+2} over the d_P column.  The ranks are
    taken in the ``_cohomology`` walk, which reaches every degree of P
    unless it stops at the first degree with cohomology; no cone module
    and no dense block is built."""
    field = P.alg.field

    def rank_of(n):
        up = q.get(n + 1)
        if n + 1 not in P.diffs and up is None and n not in C.diffs:
            return 0
        up2 = q.get(n + 2)
        below = C.piece(n + 1).dims
        total = 0
        for v in P.alg.quiver.vertices:
            cols = ([dict(col) for col in _rep_diff_columns(C, n, v)]
                    if n in C.diffs else [])
            over = _rep_diff_columns(C, n + 1, v) if n + 1 in C.diffs else ()
            for k, dcol in enumerate(_diff_columns(P, n + 1, v)):
                qcol = {} if up is None else up[v][k]
                lhs = _sum_columns(qcol, over) if over else {}
                rhs = _sum_columns(dcol, up2[v]) if up2 else {}
                if lhs != rhs:
                    raise EngineInvariantViolation(
                        "map is not a chain map: square fails at degree %d "
                        "vertex %s" % (n + 1, v))
                col = dict(qcol)
                col.update((r + below[v], c) for r, c in dcol.items())
                cols.append(col)
            total += sparse_rank(cols, field)
        return total

    dims = defaultdict(int)
    for n, lab in P.pieces.items():
        order = standard_basis(P.alg, "proj", lab)[0]
        dims[n - 1] += sum(len(keys) for keys in order.values())
    for n, M in C.pieces.items():
        dims[n] += M.total_dim()
    return not any(h for _, h in _cohomology(dims, rank_of))


def _columns(M):
    """The columns of the Matrix M as {row: coeff} dicts of its nonzero
    entries."""
    if not M.rows:
        return [{} for _ in range(M.cols)]
    return [{i: c for i, c in enumerate(col) if c} for col in zip(*M.entries)]


@memoised
def _rep_diff_columns(C, n, v):
    """The columns of d_C^n at vertex v, for a BoundedComplex C with a
    differential in degree n, as ``_columns`` reads them.  Read once per
    C, degree and vertex, so ``iso_up_to_shift`` reads them once for all
    its candidate maps; the result is shared and must not be mutated."""
    return _columns(C.diffs[n].mats[v])


def _sum_columns(vec, cols):
    """The sum of c times cols[r] over the entries (r, c) of the
    {coordinate: coeff} vector ``vec``, each column a {row: coeff} dict, as
    a {row: coeff} dict of its nonzero coefficients: a map given by its
    columns applied to ``vec``."""
    out = {}
    for r, c in vec.items():
        for i, a in cols[r].items():
            old = out.get(i)
            out[i] = c * a if old is None else old + c * a
    return {i: a for i, a in out.items() if a}


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
        """Shapes, that each nonzero entry lies in the slice between its
        labels, and d o d = 0: each cell of d^{n+1} d^n sums the products
        of its entries into one term table (``alg.add_product``), so no
        Element is built per product, and must come out empty."""
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
                col = [(i, row[j].terms) for i, row in enumerate(d1)
                       if row[j].terms]
                for row2 in d2:
                    acc = {}
                    for i, terms in col:
                        if row2[i].terms:
                            alg.add_product(acc, terms, row2[i].terms)
                    if acc:
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
        pieces, bases = {}, {}
        for n in self.degrees():
            pieces[n], order, index = standard_sum(alg, self.kind,
                                                   self.labels(n))
            bases[n] = order, index
        diffs = {}
        for n, d in self.diffs.items():
            src, tgt = bases[n], bases[n + 1]
            mats = {}
            for v in alg.quiver.vertices:
                cells = _diff_cells(alg, self.kind, d, src, tgt, v)
                mats[v] = from_entries(len(tgt[0][v]), len(src[0][v]), cells,
                                       alg.field)
            diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats)
        return BoundedComplex(alg, pieces, diffs)

    def total_rank(self):
        return sum(len(lab) for lab in self.pieces.values())


def _diff_cells(alg, kind, d, src, tgt, v):
    """(row, col, coeff) once for each nonzero entry at vertex v of the
    map given by the element matrix d between sums of standard modules of
    ``kind``, in their ``standard_basis`` coordinates src and tgt (each an
    (order, index) pair).  ``LabeledComplex.to_rep`` writes its matrices
    and ``_diff_columns`` the sparse columns of d_P from these cells.  Each
    cell's product is summed from ``alg.mult_paths`` terms into one term
    table (``alg.add_product``), so no Element is built per product."""
    one = alg.field.one()
    if kind == "proj":
        # basis path p: x_j -> v maps to p * e in P(y_i)
        tgt_index = tgt[1][v]
        for col, (j, p) in enumerate(src[0][v]):
            path = {p: one}
            for i, row in enumerate(d):
                if row[j].terms:
                    for q, c in alg.add_product({}, path,
                                                row[j].terms).items():
                        yield tgt_index[i, q], col, c
        return
    # dual of left multiplication: entry (q, p) is the coefficient of the
    # I(x_j)-basis path p in e * q, q: v -> y_i, so each product e * q
    # fills its row
    src_index = src[1][v]
    for r, (i, q) in enumerate(tgt[0][v]):
        path = {q: one}
        for j, e in enumerate(d[i]):
            if e.terms:
                for p, c in alg.add_product({}, e.terms, path).items():
                    yield r, src_index[j, p], c


@memoised
def _diff_columns(P, n, v):
    """The columns of d_P^n at vertex v, for a projective-labeled P, as
    {row: coeff} dicts, one per ``standard_basis`` coordinate of P^n_v,
    written from P's entries by ``_diff_cells``; each is empty where P has
    no differential in degree n.  Built once per P, degree and vertex, so
    ``iso_up_to_shift`` writes them once for all its candidate maps; the
    result is shared and must not be mutated."""
    alg = P.alg
    src = standard_basis(alg, "proj", P.labels(n))
    cols = [{} for _ in src[0][v]]
    if n in P.diffs:
        tgt = standard_basis(alg, "proj", P.labels(n + 1))
        for r, k, c in _diff_cells(alg, "proj", P.diffs[n], src, tgt, v):
            cols[k][r] = c
    return cols



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
    the BoundedComplex C whose cone is acyclic.  q[n] is given, for each
    degree n of C, by its sparse columns at each vertex v: q[n][v] lists,
    for each ``standard_basis`` coordinate of P^n_v in order, its image in
    C^n_v as a {row: coeff} dict of nonzero coefficients.  These are the C
    parts of the columns of E^n below, so no matrix of q is written.

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
    n < min deg C - ``RESOLUTION_BOUND``.  For a stalk complex, Phi^n is
    the previous cover map followed by the inclusion of its syzygy, which
    has full column rank, so Phi^n has the reduced form of the cover map
    and this is the classical loop of covers and syzygies.

    No module P^{n+1} + C^n and no dense Phi^n is built.  At vertex v a
    vector of P^{n+1}_v + C^n_v is a {coordinate: coeff} dict: first the
    coordinates (i, p) of P^{n+1}_v, in ``standard_basis`` order, then
    those of C^n_v.  A path p out of x acts on the P part coordinate by
    coordinate, (i, p') going to the normal form of p' followed by p
    (``alg.mult_paths``), and on the sparse C part by ``C^n.path_apply``.
    Column (j, p) of E^n = [d_P ; q] is p applied to generator j, so each
    column of E^{n+1}_v is a sparse {row: coeff} column, and the rows of
    Phi^n_v = [E^{n+1}_v | 0 ; -d_C^n] are gathered from those columns and
    the nonzero entries of d_C^n.

    The generators of P^n are picked from the top of F^n (Green, Solberg
    and Zacharia, *Minimal projective resolutions*, Trans. AMS 2001)
    without building F^n as a module.  At vertex v, the kernel vectors K
    of Phi^n_v (``linalg._kernel_vectors`` of its reduced rows, as
    ``null_space`` reads them, with no copy of the loop's fresh rows) span
    F^n_v, and the arrows a into v map F^n onto the span of the images R
    of the kernel vectors at the source of a.  One ``_forward`` pass over
    R, then K
    (``linalg._complement``), keeps the vectors of K that are pivot
    columns of [R | K].  Since the
    vectors of K are independent and R = K R' for the arrow maps R' of
    F^n, a vector of K is independent of R and the
    earlier vectors exactly when its basis vector is independent of R'
    and the earlier ones: these are the basis vectors of a complement of
    rad F^n_v in F^n_v.  A rank of [R | K] above the number of vectors of
    K, also when K is empty, would mean F^n is not arrow-stable.

    Only nonzero work is done.  Each step visits only the vertices where
    P^{n+1}_v + C^n_v is nonzero; elsewhere F^n_v = 0.  Where Phi^n_v has
    no nonzero row (at the top degree, and wherever E^{n+1}_v and d_C^n
    vanish), K is the unit vectors, read off with no elimination.  Where
    every arrow image R is zero, all of K is kept with no ``_forward``
    pass: K is independent, so the rank of [R | K] is the number of its
    vectors and the arrow-stability check is vacuous there; it runs
    wherever R is nonzero.  ``moved`` applies C^n's arrow maps only to a
    vector with a C part.  The arrow images, computed once per arrow and
    kernel vector to pick the generators, are kept as the generators'
    arrow columns of E^n and q^n (``_complement`` gets copies, since
    ``_forward`` consumes its rows), and a generator's trivial-path column
    is the generator itself, so only paths of two or more arrows are
    applied again.

    These choices are those of a dense loop (the kernel basis read off
    the reduced form of the dense Phi^n_v, then the pivot columns of the
    reduced form of [R | K] beyond R): the reduced echelon form is unique,
    so ``_kernel_vectors`` gives the same kernel vectors, ``_forward`` finds
    the same independent columns, and normal forms are unique, so path
    products give the same columns of E.
    """
    alg = C.alg
    field = alg.field
    zero, one, minus_one = (alg.zero_element(), field.one(),
                            field.from_int(-1))
    verts = alg.quiver.vertices
    arrow_path = {a.name: Path(a.source, a.target, (a.name,))
                  for a in alg.quiver.arrows}
    pieces, diffs, q = {}, {}, {}
    if C.is_zero():
        return LabeledComplex(alg, pieces, diffs, "proj", check=False), q
    lo, n = C.degrees()[0], C.degrees()[-1]
    # the standard basis of P^{n+1}, the columns of E^{n+1} per vertex and
    # dim P^{n+2} per vertex, the row of E^{n+1} where its q part starts
    above = standard_basis(alg, "proj", [])
    E = {v: [] for v in verts}
    qrow = {v: 0 for v in verts}
    while True:
        Cn, dC = C.piece(n), C.diffs.get(n)
        order, index = above
        psize = {v: len(order[v]) for v in verts}
        live = [v for v in verts if psize[v] or Cn.dims[v]]

        def moved(p, vec):
            """(column, c): the path p applied to the vector ``vec`` of
            P^{n+1} + C^n at its source, as a vector at its target and its
            C^n part c, a {coordinate: coeff} vector of C^n at the target."""
            size, at_x, to_v = psize[p.source], order[p.source], index[p.target]
            col, cvec = {}, {}
            for k, c in vec.items():
                if k >= size:
                    cvec[k - size] = c
                    continue
                i, p0 = at_x[k]
                for r, cr in alg.mult_paths(p, p0).terms.items():
                    key = to_v[i, r]
                    old = col.get(key)
                    col[key] = c * cr if old is None else old + c * cr
            col = {k: c for k, c in col.items() if c}
            if not cvec:
                return col, cvec
            cimg = Cn.path_apply(p, cvec)
            size = psize[p.target]
            col.update((k + size, c) for k, c in cimg.items())
            return col, cimg

        kernels = {v: [] for v in verts}
        for v in live:
            width = psize[v] + Cn.dims[v]
            rows = defaultdict(dict)
            for k, col in enumerate(E[v]):
                for r, c in col.items():
                    rows[r][k] = c
            if dC is not None:
                for r, row in enumerate(dC.mats[v].entries, qrow[v]):
                    for k, c in enumerate(row, psize[v]):
                        if c:
                            rows[r][k] = minus_one * c
            if rows:
                # fresh rows of nonzero entries, reduced in place
                kernels[v] = _kernel_vectors(*_reduce(list(rows.values()),
                                                      field), width, field)
            else:
                kernels[v] = [{k: one} for k in range(width)]
        if n < lo and not any(kernels.values()):
            break
        if n < lo - RESOLUTION_BOUND:
            raise GlobalDimensionExceeded(RESOLUTION_BOUND,
                                          "resolving a module")
        labels, gens, arrow_cols = [], [], {}
        for v in live:
            image = []
            for a in alg.quiver.arrows_in[v]:
                for vec in kernels[a.source]:
                    out = arrow_cols[a.name, id(vec)] = moved(
                        arrow_path[a.name], vec)
                    if out[0]:
                        image.append(dict(out[0]))
            kept = kernels[v]
            if image:
                kept, rk = _complement(image, kept, field)
                if rk != len(kernels[v]):
                    raise EngineInvariantViolation(
                        "F^%d is not arrow-stable at vertex %s" % (n, v))
            labels += [v] * len(kept)
            gens += kept
        if n + 1 in pieces:
            # the P part of generator j is its coordinates (i, p) in P^{n+1}
            d = [[zero] * len(labels) for _ in pieces[n + 1]]
            for j, (x, vec) in enumerate(zip(labels, gens)):
                terms = defaultdict(dict)
                for k, c in vec.items():
                    if k < psize[x]:
                        i, p = order[x][k]
                        terms[i][p] = c
                for i, t in terms.items():
                    d[i][j] = Element(t, field)
            diffs[n] = d
        pieces[n] = labels
        above = standard_basis(alg, "proj", labels)
        E, qn = {}, {}
        for v in verts:
            E[v], qn[v] = cols, cparts = [], []
            for j, p in above[0][v]:
                vec = gens[j]
                if not p.arrows:  # the generator, its C part from psize on
                    size = psize[labels[j]]
                    col, cpart = vec, {k - size: c for k, c in vec.items()
                                       if k >= size}
                elif len(p.arrows) == 1:  # no image: zero, v is not live
                    col, cpart = arrow_cols.get((p.arrows[0], id(vec)),
                                                ({}, {}))
                else:
                    col, cpart = moved(p, vec)
                cols.append(col)
                cparts.append(cpart)
        if n in C.pieces:
            q[n] = qn
        qrow = psize
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
    """Coordinates of the total complex Hom(F, G) for F perfect.  The
    degrees of F and G are sorted once, here; a caller builds each
    ``_layout`` it needs once and reads the differentials by ``_rows``."""

    def __init__(self, F, G):
        if F.kind != "proj":
            raise NotElementValued("left Hom argument must be projective-labeled")
        self.F = F
        self.G = as_rep_complex(G)
        self.alg = F.alg
        self.fdeg = F.degrees()
        self.gdeg = self.G.degrees()

    def _layout(self, n):
        """(slots, offset of each slot (p, j), dim C^n), where the slots
        [(p, j, label, dim)] list C^n = sum_p sum_j G^{p+n}_{x_j}."""
        slots, offsets, size = [], {}, 0
        for p in self.fdeg:
            Gp = self.G.pieces.get(p + n)
            if Gp is None:
                continue
            for j, x in enumerate(self.F.labels(p)):
                slots.append((p, j, x, Gp.dims[x]))
                offsets[p, j] = size
                size += Gp.dims[x]
        return slots, offsets, size

    def degree_range(self):
        if not (self.fdeg and self.gdeg):
            return []
        return list(range(self.gdeg[0] - self.fdeg[-1],
                          self.gdeg[-1] - self.fdeg[0] + 1))

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

    def _rows(self, n, layouts, by_column=False):
        """{row: {column: coeff}} of the nonzero entries of C^n -> C^{n+1},
        or {column: {row: coeff}} ``by_column``; ``layouts`` maps n and
        n + 1 to their ``_layout``."""
        out = defaultdict(dict)
        for r, c, v in self._entries(n, layouts[n][0], layouts[n + 1][1]):
            if by_column:
                r, c = c, r
            out[r][c] = v
        return out

    def delta(self, n):
        """Matrix of the differential C^n -> C^{n+1}, scattered from its
        nonzero entries.  ``sphq`` never builds it: it stays as a test
        reference and because perfbench/tracer.py looks it up in this
        class body as a boundary, and goes together with that boundary."""
        src, _, cols = self._layout(n)
        _, tgt_off, rows = self._layout(n + 1)
        return from_entries(rows, cols, self._entries(n, src, tgt_off),
                            self.alg.field)


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

    def rank_of(n):
        if not (layouts[n][2] and layouts[n + 1][2]):
            return 0
        return sparse_rank(data._rows(n, layouts).values(), data.alg.field)

    return {n: h for n, h in _cohomology(
        {n: layouts[n][2] for n in rng}, rank_of) if h}


def chain_map_space(F, G, s):
    """Representatives of H^s Hom(F, G), F perfect: (dim, [q]), each q
    the map F -> G[s] of a vector of ``_cocycle_vectors`` in the format of
    ``_cover_complex`` (``_cocycle_columns``), whose target is
    ``as_rep_complex(G).shift(s)``."""
    data = HomComplexData(F, G)
    layouts = {n: data._layout(n) for n in (s - 1, s, s + 1)}
    vecs = _cocycle_vectors(data, s, layouts)
    return len(vecs), [_cocycle_columns(data, s, layouts[s][1], vec)
                       for vec in vecs]


def _cocycle_vectors(data, s, layouts):
    """The Hom-complex coordinate vectors, as {coordinate: coeff} dicts,
    of representatives of a basis of H^s Hom(F, G); ``layouts`` maps
    s - 1, s and s + 1 to their ``_layout``.

    A kernel basis of d^s (``linalg.null_space``) is completed against
    the columns of d^{s-1} (``_complement``): the kept basis vectors are
    the pivot columns of the rref of [d^{s-1} | kernel basis].
    """
    field = data.alg.field
    kernel = null_space(data._rows(s, layouts).values(), layouts[s][2], field)
    return _complement(data._rows(s - 1, layouts, by_column=True).values(),
                       kernel, field)[0]


def _cocycle_columns(data, s, offsets, vec):
    """The map F -> G[s] whose coordinates in degree s of the Hom complex
    (slot offsets ``offsets``) are the {coordinate: coeff} vector ``vec``,
    in the q format of ``_cover_complex``: generator j of F^p goes to the
    value of slot (p, j), image_j, and column (j, p) of q^p at v is
    G[s]^p.path_apply(p, image_j).  A degree p with G[s]^p = 0 has no
    entry."""
    F = data.F
    q = {}
    for p in data.fdeg:
        Gp = data.G.piece(p + s)
        if Gp.is_zero():
            continue
        images = [{k - offsets[p, j]: c for k, c in vec.items()
                   if 0 <= k - offsets[p, j] < Gp.dims[x]}
                  for j, x in enumerate(F.labels(p))]
        order = standard_basis(data.alg, "proj", F.labels(p))[0]
        q[p] = {v: [Gp.path_apply(path, images[j]) for j, path in keys]
                for v, keys in order.items()}
    return q


ISO_TRIALS = 8
_ISO_SEED = 174


def iso_up_to_shift(F, Y, s):
    """Semi-decision of F[s] being isomorphic to Y in the derived category.

    F must be projective-labeled.  F[s] and Y are isomorphic iff some map
    F[s] -> Y has an acyclic cone.  Returns True, False, or
    "not_witnessed" (candidate space of dim > 1 where no tested
    combination produced an acyclic cone).

    The candidates are the vectors of ``_cocycle_vectors`` in degree 0 of
    Hom(F[s], Y), the same coordinates and differentials as degree -s of
    Hom(F, Y).  Each basis vector is tried, then ``ISO_TRIALS`` seeded
    combinations sum c_i vec_i.  The map of ``_cocycle_columns`` is linear
    in its vector, so a combination's columns are summed from the basis
    vectors' columns (``_sum_columns``), and d_F's columns are written
    once for all candidates (``_diff_columns`` on F[s]).
    ``is_quasi_iso`` ranks each cone; no representation of F and no chain
    map is built."""
    Yrep = as_rep_complex(Y)
    if F.is_zero() and Yrep.is_zero():
        return True
    Fs = F.shift(s)
    data = HomComplexData(Fs, Yrep)
    layouts = {n: data._layout(n) for n in (-1, 0, 1)}
    vecs = _cocycle_vectors(data, 0, layouts)
    maps = []
    for vec in vecs:
        q = _cocycle_columns(data, 0, layouts[0][1], vec)
        if is_quasi_iso(Fs, Yrep, q):
            return True
        maps.append(q)
    if len(vecs) > 1:
        field = F.alg.field
        rng = random.Random(_ISO_SEED)
        for _ in range(ISO_TRIALS):
            coeffs = [rng.randint(-5, 5) for _ in vecs]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            weights = {i: field.from_int(c) for i, c in enumerate(coeffs)
                       if c}
            comb = {p: {v: [_sum_columns(weights, cols)
                            for cols in zip(*(q[p][v] for q in maps))]
                        for v in qp}
                    for p, qp in maps[0].items()}
            if is_quasi_iso(Fs, Yrep, comb):
                return True
        return "not_witnessed"
    return False


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
    and returns the complex P with the sparse columns of its map q to C;
    ``_certify`` checks that q is a chain map with an acyclic cone.

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
    _certify(P, C, q)
    return _minimise(P)


def _certify(P, C, q):
    """Raise EngineInvariantViolation unless q: P -> C, in the format of
    ``_cover_complex``, is a chain map whose cone is acyclic: that is
    ``is_quasi_iso``, which checks the squares of q on the columns it
    ranks.  d_P's columns are written from P's own entries
    (``_diff_columns``, as ``P.to_rep()`` would write its matrices, but
    with no module built), never from the cover loop's columns."""
    if not is_quasi_iso(P, C, q):
        raise EngineInvariantViolation(
            "perfectify result is not quasi-isomorphic")


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
        diffs[-n - 1] = ModuleMorphism(src, tgt, mats)
    return BoundedComplex(op, pieces, diffs)


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
